package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeDump hardens the span-dump decoder against corrupt and
// adversarial inputs: it must never panic, only return errors, and any
// dump it accepts must render as a Chrome log and survive an
// EncodeJSON -> DecodeDump round trip unchanged. (Seed corpus runs
// under plain `go test`; use `go test -fuzz=FuzzDecodeDump
// ./internal/telemetry` for a real fuzz session.)
func FuzzDecodeDump(f *testing.F) {
	var valid bytes.Buffer
	if err := fixedTree().Dump().EncodeJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(`{"schema":"nestwrf/spans/v0","unit":"seconds","spans":[]}`))
	f.Add([]byte(`{"schema":"nestwrf/spans/v1","unit":"seconds","spans":[` +
		`{"id":7,"parent":3,"name":"x","layer":"gpu","start":0.5,"end":0.25,` +
		`"attrs":[{"key":"span","value":"shadow"},{"key":"k","value":"v"}]}],"dropped":2}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDump(bytes.NewReader(data))
		if err != nil {
			return // errors are the expected outcome for garbage
		}
		if log := d.ChromeLog(); len(log.Spans) != len(d.Spans) {
			t.Fatalf("Chrome log has %d spans, dump %d", len(log.Spans), len(d.Spans))
		}
		var buf bytes.Buffer
		if err := d.EncodeJSON(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		d2, err := DecodeDump(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip changed the dump:\nfirst  %+v\nsecond %+v", d, d2)
		}
	})
}
