package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"nestwrf/internal/trace"
)

// DumpSchema tags the JSON span dump. Bump the version suffix on any
// incompatible field change.
const DumpSchema = "nestwrf/spans/v1"

// Dump is the schema-stable record of a tracer's finished spans,
// ordered by (start, id) so the encoding is deterministic for a given
// span set. Span IDs in the dump join against slog lines that carry
// the same IDs.
type Dump struct {
	Schema string `json:"schema"`
	// Unit documents the time base of Start/End (seconds since the
	// tracer epoch).
	Unit  string `json:"unit"`
	Spans []Span `json:"spans"`
	// Dropped counts spans discarded past the tracer's MaxSpans cap —
	// nonzero means the trace is a prefix, not the whole story.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Dump snapshots the tracer's finished spans. A nil tracer yields an
// empty (but valid) dump.
func (t *Tracer) Dump() Dump {
	d := Dump{Schema: DumpSchema, Unit: "seconds", Spans: []Span{}}
	if t == nil {
		return d
	}
	t.mu.Lock()
	d.Spans = append(d.Spans, t.spans...)
	t.mu.Unlock()
	d.Dropped = t.dropped.Load()
	sort.SliceStable(d.Spans, func(i, j int) bool {
		if d.Spans[i].Start != d.Spans[j].Start {
			return d.Spans[i].Start < d.Spans[j].Start
		}
		return d.Spans[i].ID < d.Spans[j].ID
	})
	return d
}

// EncodeJSON writes the dump as indented JSON.
func (d Dump) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeDump reads a JSON span dump, rejecting unknown schemas.
func DecodeDump(r io.Reader) (Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return d, fmt.Errorf("telemetry: decoding span dump: %w", err)
	}
	if d.Schema != DumpSchema {
		return d, fmt.Errorf("telemetry: unsupported span schema %q (want %s)", d.Schema, DumpSchema)
	}
	// An empty attrs list encodes as absent (omitempty), so decode it
	// as absent too: a decoded dump then re-encodes and decodes back
	// unchanged.
	for i := range d.Spans {
		if len(d.Spans[i].Attrs) == 0 {
			d.Spans[i].Attrs = nil
		}
	}
	return d, nil
}

// layerRank orders the Chrome lanes outermost layer first; layers not
// in the canonical list sort after, alphabetically.
var layerRank = map[string]int{
	LayerCampaign: 0,
	LayerMember:   1,
	LayerServe:    2,
	LayerCache:    3,
	LayerDriver:   4,
	LayerPhase:    5,
}

// ChromeLog renders the dump as a trace.Log with one lane per layer:
// span attributes become Chrome event args, and lanes appear in
// canonical layer order (campaign, member, planserve, cache, driver,
// phase) so every export reads the same top to bottom.
func (d Dump) ChromeLog() *trace.Log {
	spans := append([]Span(nil), d.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		ri, iOK := layerRank[spans[i].Layer]
		rj, jOK := layerRank[spans[j].Layer]
		switch {
		case iOK && jOK && ri != rj:
			return ri < rj
		case iOK != jOK:
			return iOK
		case !iOK && spans[i].Layer != spans[j].Layer:
			return spans[i].Layer < spans[j].Layer
		}
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	log := &trace.Log{}
	for _, s := range spans {
		ts := trace.Span{Name: s.Name, Lane: s.Layer, Start: s.Start, End: s.End}
		if len(s.Attrs) > 0 {
			ts.Args = make(map[string]string, len(s.Attrs)+2)
			for _, a := range s.Attrs {
				ts.Args[a.Key] = a.Value
			}
		} else {
			ts.Args = make(map[string]string, 2)
		}
		ts.Args["span"] = s.ID.String()
		if s.Parent != 0 {
			ts.Args["parent"] = s.Parent.String()
		}
		log.Spans = append(log.Spans, ts)
	}
	return log
}

// WriteChrome writes the tracer's spans in the Chrome trace-event
// format (loadable in Perfetto) as one process named name.
func (t *Tracer) WriteChrome(w io.Writer, name string) error {
	return trace.WriteChrome(w, trace.ChromeProcess{Name: name, Log: t.Dump().ChromeLog()})
}
