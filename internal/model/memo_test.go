package model

import (
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/vtopo"
)

// buildPlacements assembles a two-sibling concurrent phase on a 64-rank
// multilevel mapping.
func buildPlacements(t *testing.T) (machine.Machine, *mapping.Mapping, []Placement) {
	t.Helper()
	m := machine.BGL()
	g, err := machine.GridFor(64)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(64)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	root := nest.Root("parent", 286, 307)
	c1 := root.AddChild("s1", 200, 180, 3, 5, 5)
	c2 := root.AddChild("s2", 160, 220, 3, 60, 60)
	sg1, err := vtopo.NewSubgrid(g, alloc.Rect{X: 0, Y: 0, W: 4, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	sg2, err := vtopo.NewSubgrid(g, alloc.Rect{X: 4, Y: 0, W: 4, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m, mp, []Placement{{D: c1, SG: sg1}, {D: c2, SG: sg2}}
}

// TestMemoizedMatchesUncached asserts the phase-cost cache is
// bit-exact against the uncached evaluation, for both contention
// settings, including the HopsAvg hop metric.
func TestMemoizedMatchesUncached(t *testing.T) {
	m, mp, placements := buildPlacements(t)

	for _, contention := range []bool{true, false} {
		want := evalPhase(m, mp, placements, contention)
		ResetCache()
		miss := phaseCosts(m, mp, placements, contention) // populates the cache
		hit := phaseCosts(m, mp, placements, contention)  // must be served from it
		for i := range want {
			if miss[i] != want[i] {
				t.Errorf("contention=%v placement %d: uncached %+v, first call %+v", contention, i, want[i], miss[i])
			}
			if hit[i] != want[i] {
				t.Errorf("contention=%v placement %d: uncached %+v, cached %+v", contention, i, want[i], hit[i])
			}
		}
	}
}

// TestMemoKeyDistinguishes asserts the cache key separates evaluations
// that must not share results: different contention, different machine
// constants, different mappings, different placements.
func TestMemoKeyDistinguishes(t *testing.T) {
	m, mp, placements := buildPlacements(t)

	key1, ok := phaseKey(m, mp, placements, true)
	if !ok {
		t.Fatal("phaseKey not cacheable for constructor-built mapping")
	}
	if key2, _ := phaseKey(m, mp, placements, false); key2 == key1 {
		t.Error("contention flag not encoded in key")
	}
	m2 := m
	m2.PointCost *= 2
	if key2, _ := phaseKey(m2, mp, placements, true); key2 == key1 {
		t.Error("machine PointCost not encoded in key")
	}
	mp2, err := mapping.Sequential(mp.Grid, mp.Torus)
	if err != nil {
		t.Fatal(err)
	}
	if key2, _ := phaseKey(m, mp2, placements, true); key2 == key1 {
		t.Error("mapping identity not encoded in key")
	}
	if key2, _ := phaseKey(m, mp, placements[:1], true); key2 == key1 {
		t.Error("placement set not encoded in key")
	}
}

// TestPhaseCostsCongestionMatchesPhaseCosts pins the instrumented
// entry point to the plain one: same costs, and congestion totals that
// agree with an independently constructed network.
func TestPhaseCostsCongestionMatchesPhaseCosts(t *testing.T) {
	m, mp, placements := buildPlacements(t)
	plain := PhaseCosts(m, mp, placements)
	inst, cong := PhaseCostsCongestion(m, mp, placements)
	for i := range plain {
		if plain[i] != inst[i] {
			t.Errorf("placement %d: PhaseCosts %+v, PhaseCostsCongestion %+v", i, plain[i], inst[i])
		}
	}
	if cong.Links == 0 || cong.TotalHops == 0 || cong.MaxLoad == 0 {
		t.Errorf("empty congestion summary: %+v", cong)
	}
}
