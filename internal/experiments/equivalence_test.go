package experiments

import (
	"reflect"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
)

// TestMappingHopMetricsUnchanged pins the mapping-level hop metrics of
// a two-sibling split of the 256-rank multilevel mapping to the values
// the experiments report, so a rewrite of mapping.Analyze must keep
// them bit-identical.
func TestMappingHopMetricsUnchanged(t *testing.T) {
	g, err := machine.GridFor(256)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(256)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	rects := []alloc.Rect{{X: 0, Y: 0, W: 8, H: 16}, {X: 8, Y: 0, W: 8, H: 16}}
	got, err := mapping.Analyze(mp, rects)
	if err != nil {
		t.Fatal(err)
	}
	want := mapping.Report{
		Name:         "multilevel",
		ParentAvg:    1.0333333333333334, // 496 hops / 480 pairs
		ParentMax:    2,
		SiblingAvg:   []float64{1.0344827586206897, 1.0344827586206897}, // 240 / 232
		SiblingMax:   []int{2, 2},
		OverallAvg:   1.0338983050847457,
		OverallPairs: 944,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hop metrics changed:\n got %#v\nwant %#v", got, want)
	}
}
