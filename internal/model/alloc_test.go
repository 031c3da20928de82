package model

import "testing"

// TestEvalPhaseAllocations pins a warm phase evaluation to its one
// output slice: the pooled network, the halo walks and the per-rank
// cost loop allocate nothing.
func TestEvalPhaseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	m, mp, placements := buildPlacements(t)
	evalPhase(m, mp, placements, true) // grow the pooled network's scratch state
	if avg := testing.AllocsPerRun(50, func() {
		evalPhase(m, mp, placements, true)
	}); avg != 1 {
		t.Errorf("warm evalPhase allocates %v times per call, want 1", avg)
	}
}
