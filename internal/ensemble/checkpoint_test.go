package ensemble

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// checkpointSpec is the small campaign whose mid-run checkpoint seeds
// the corruption table and the decoder fuzzer.
var checkpointSpec = Spec{Generator: GenSweep, Members: 10, Seed: 5, StepsPerPhase: 10}

// realCheckpoint runs checkpointSpec for four members and returns the
// checkpoint it leaves behind.
func realCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "campaign.ckpt")
	if _, err := (&Engine{Spec: checkpointSpec, Cache: sharedCache, CheckpointPath: path, StopAfter: 4}).Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// corruptions are hand-edited checkpoints that once crashed or misled
// a resumed run.
var corruptions = []struct {
	name   string
	mutate func(cp map[string]any)
}{
	{"null stream", func(cp map[string]any) {
		cp["aggregates"].(map[string]any)["default_time"] = nil
	}},
	{"negative quantile count", func(cp map[string]any) {
		s := cp["aggregates"].(map[string]any)["improvement_pct"].(map[string]any)
		s["quantiles"].([]any)[0].(map[string]any)["count"] = -3
	}},
	{"committed past members", func(cp map[string]any) {
		cp["committed"] = 20
	}},
}

func corrupt(tb testing.TB, raw []byte, mutate func(map[string]any)) []byte {
	tb.Helper()
	var cp map[string]any
	if err := json.Unmarshal(raw, &cp); err != nil {
		tb.Fatal(err)
	}
	mutate(cp)
	out, err := json.Marshal(cp)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// A resumed run must reject a corrupt checkpoint with ErrBadCheckpoint
// instead of panicking or accepting an impossible frontier.
func TestCorruptCheckpointRejected(t *testing.T) {
	raw := realCheckpoint(t)
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.ckpt")
			if err := os.WriteFile(path, corrupt(t, raw, c.mutate), 0o644); err != nil {
				t.Fatal(err)
			}
			sum, err := (&Engine{Spec: checkpointSpec, Cache: sharedCache, CheckpointPath: path}).Run(context.Background())
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("resume returned (%+v, %v), want ErrBadCheckpoint", sum, err)
			}
		})
	}
}

// FuzzDecodeCheckpoint hardens the checkpoint decoder: it must never
// panic, and any checkpoint it accepts must ingest a member without
// panicking and survive a JSON round trip unchanged. (Seed corpus runs
// under plain `go test`; use `go test -fuzz=FuzzDecodeCheckpoint
// ./internal/ensemble` for a real fuzz session.)
func FuzzDecodeCheckpoint(f *testing.F) {
	raw := realCheckpoint(f)
	f.Add(raw)
	for _, c := range corruptions {
		f.Add(corrupt(f, raw, c.mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		cp2, err := decodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if enc2, _ := json.Marshal(cp2); !bytes.Equal(enc, enc2) || !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("round trip changed the checkpoint:\nfirst  %s\nsecond %s", enc, enc2)
		}
		cp.Aggregates.Ingest(MemberResult{Default: 2, Concurrent: 1.5, ImprovementPct: 25})
	})
}
