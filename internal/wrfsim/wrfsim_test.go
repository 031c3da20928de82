package wrfsim

import (
	"errors"
	"math"
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
)

func testConfig() *nest.Domain {
	// Sibling point counts 2880:1728 split an 8x4 process grid 20:12,
	// which balances the per-rank load almost perfectly (144 points
	// each) — the regime the paper's allocator aims for.
	root := nest.Root("parent", 64, 64)
	root.AddChild("nest1", 60, 48, 3, 2, 2)
	root.AddChild("nest2", 48, 36, 3, 30, 30)
	return root
}

func baseOpts(s Strategy) Options {
	return Options{
		Ranks:    32,
		Steps:    3,
		Strategy: s,
		// The concurrent strategy only wins when scaling is sub-linear
		// (the paper's premise): per-message latency must be significant
		// against the per-rank compute of these small test domains.
		PointCost: 1e-6,
		TM:        mpi.AlphaBeta{Alpha: 5e-5, Beta: 1e-9},
	}
}

func TestRunValidation(t *testing.T) {
	cfg := testConfig()
	opt := baseOpts(Sequential)
	opt.Steps = 0
	if _, err := Run(cfg, opt); !errors.Is(err, ErrBadSteps) {
		t.Errorf("zero steps: %v", err)
	}
	deep := nest.Root("p", 100, 100)
	mid := deep.AddChild("m", 60, 60, 3, 10, 10)
	mid.AddChild("g", 30, 30, 3, 2, 2)
	if _, err := Run(deep, baseOpts(Sequential)); !errors.Is(err, ErrTooDeep) {
		t.Errorf("deep config: %v", err)
	}
	bad := nest.Root("p", -5, 10)
	if _, err := Run(bad, baseOpts(Sequential)); err == nil {
		t.Error("invalid domain should fail")
	}
}

func TestSequentialRunProducesStates(t *testing.T) {
	out, err := Run(testConfig(), baseOpts(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	if out.Parent == nil {
		t.Fatal("no parent state")
	}
	if len(out.Nests) != 2 || out.Nests[0] == nil || out.Nests[1] == nil {
		t.Fatalf("nest states missing: %v", out.Nests)
	}
	if out.Nests[0].NX != 60 || out.Nests[0].NY != 48 {
		t.Errorf("nest 1 dims %dx%d", out.Nests[0].NX, out.Nests[0].NY)
	}
	for i, h := range out.Parent.H {
		if math.IsNaN(h) || h <= 0 || h > 3 {
			t.Fatalf("parent cell %d: unphysical height %v", i, h)
		}
	}
	if out.MaxClock <= 0 || out.AvgWait < 0 {
		t.Errorf("clock %v, wait %v", out.MaxClock, out.AvgWait)
	}
}

// The headline end-to-end validation: both strategies compute the same
// weather — bit-identical, since feedback accumulates every parent
// cell's child block in canonical order regardless of decomposition —
// and the concurrent strategy finishes in less virtual time.
func TestStrategiesAgreeAndConcurrentIsFaster(t *testing.T) {
	cfg := testConfig()
	seq, err := Run(cfg, baseOpts(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	con, err := Run(cfg, baseOpts(Concurrent))
	if err != nil {
		t.Fatal(err)
	}

	if d := seq.Parent.MaxDiff(con.Parent); d != 0 {
		t.Errorf("parent fields differ between strategies by %v", d)
	}
	for i := range seq.Nests {
		if d := seq.Nests[i].MaxDiff(con.Nests[i]); d != 0 {
			t.Errorf("nest %d fields differ between strategies by %v", i, d)
		}
	}

	t.Logf("virtual makespan: sequential %.6f s, concurrent %.6f s", seq.MaxClock, con.MaxClock)
	if con.MaxClock >= seq.MaxClock {
		t.Errorf("concurrent makespan %.6f should beat sequential %.6f", con.MaxClock, seq.MaxClock)
	}
}

// Feedback must actually modify the parent: a run whose nests see a
// different initial bump must diverge from a hypothetical parent-only
// evolution. We verify the nest footprint region of the parent carries
// fine-grid information (values differ from the immediate neighbours'
// smooth field at above-noise level is too vague; instead check that
// nest feedback changed the parent relative to zero-feedback).
func TestFeedbackAffectsParent(t *testing.T) {
	cfg := testConfig()
	withNests, err := Run(cfg, baseOpts(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	// Same parent without nests.
	bare := nest.Root("parent", 64, 64)
	noNests, err := Run(bare, baseOpts(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	if d := withNests.Parent.MaxDiff(noNests.Parent); d == 0 {
		t.Error("nest feedback had no effect on the parent")
	}
}

func TestMassRemainsPhysical(t *testing.T) {
	out, err := Run(testConfig(), baseOpts(Concurrent))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range out.Nests {
		for j, h := range st.H {
			if math.IsNaN(h) || h <= 0 || h > 3 {
				t.Fatalf("nest %d cell %d: unphysical height %v", i, j, h)
			}
		}
	}
}

// Virtual times are deterministic across repeated runs.
func TestDeterministicVirtualTime(t *testing.T) {
	cfg := testConfig()
	a, err := Run(cfg, baseOpts(Concurrent))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, baseOpts(Concurrent))
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxClock != b.MaxClock || a.AvgWait != b.AvgWait {
		t.Errorf("runs differ: clock %v vs %v, wait %v vs %v",
			a.MaxClock, b.MaxClock, a.AvgWait, b.AvgWait)
	}
	if d := a.Parent.MaxDiff(b.Parent); d != 0 {
		t.Errorf("fields differ between identical runs by %v", d)
	}
}

// Custom weights steer the partition sizes.
func TestCustomWeights(t *testing.T) {
	cfg := testConfig()
	opt := baseOpts(Concurrent)
	opt.Weights = []float64{3, 1}
	out, err := Run(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Parent == nil {
		t.Fatal("no parent state")
	}
}

func TestSingleRankRun(t *testing.T) {
	cfg := nest.Root("p", 20, 20)
	cfg.AddChild("c", 18, 18, 3, 1, 1)
	opt := Options{Ranks: 1, Steps: 2, Strategy: Sequential, PointCost: 1e-6}
	out, err := Run(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Parent == nil || out.Nests[0] == nil {
		t.Fatal("missing states on single-rank run")
	}
}

func TestOwnerIdxMatchesDecompose(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{{40, 4}, {41, 4}, {7, 3}, {5, 8}} {
		// Build the ownership from Decompose's share and compare.
		starts := make([]int, tc.parts+1)
		pos := 0
		for i := 0; i < tc.parts; i++ {
			base := tc.n / tc.parts
			if i < tc.n%tc.parts {
				base++
			}
			starts[i] = pos
			pos += base
		}
		starts[tc.parts] = pos
		for g := 0; g < tc.n; g++ {
			want := 0
			for i := 0; i < tc.parts; i++ {
				if g >= starts[i] && g < starts[i+1] {
					want = i
					break
				}
			}
			if got := ownerIdx(tc.n, tc.parts, g); got != want {
				t.Fatalf("ownerIdx(%d,%d,%d) = %d, want %d", tc.n, tc.parts, g, got, want)
			}
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{-1, 3, -1}, {0, 3, 0}, {2, 3, 0}, {3, 3, 1}, {-3, 3, -1}, {-4, 3, -2},
	}
	for _, tc := range cases {
		if got := floorDiv(tc.a, tc.b); got != tc.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// The functional simulator accepts the second-order scheme; strategies
// still agree on the forecast.
func TestRichtmyerFunctional(t *testing.T) {
	opt := baseOpts(Sequential)
	p := solver.DefaultParams()
	p.Scheme = solver.Richtmyer
	opt.Params = p
	seq, err := Run(testConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Strategy = Concurrent
	con, err := Run(testConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := seq.Parent.MaxDiff(con.Parent); d != 0 {
		t.Errorf("Richtmyer strategies differ by %v", d)
	}
}

// TestPhaseBreakdownPopulated checks the functional run reports a
// per-phase breakdown whose compute time covers every rank's clock
// advance and whose wait sums match the scalar aggregates.
func TestPhaseBreakdownPopulated(t *testing.T) {
	out, err := Run(testConfig(), baseOpts(Concurrent))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Phases) == 0 {
		t.Fatal("no phase breakdown")
	}
	byName := map[string]mpi.PhaseTotal{}
	var wait, maxWait float64
	for _, ph := range out.Phases {
		byName[ph.Name] = ph
		wait += ph.Sum.Wait
		if ph.MaxWait > maxWait {
			maxWait = ph.MaxWait
		}
	}
	for _, want := range []string{"parent", "coupling", "nest:nest1", "nest:nest2", "collect"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing phase %q (have %v)", want, out.Phases)
		}
	}
	if byName["parent"].Sum.Compute <= 0 || byName["parent"].Sum.SendCount == 0 {
		t.Errorf("parent phase looks empty: %+v", byName["parent"])
	}
	// collect is the phase open when the rank function returns; its
	// wall time must still be accounted.
	if byName["collect"].Sum.Wall <= 0 {
		t.Errorf("collect phase wall = %v, want > 0", byName["collect"].Sum.Wall)
	}
	// Every rank must have entered the parent phase.
	if byName["parent"].Ranks != 32 {
		t.Errorf("parent phase ranks = %d, want 32", byName["parent"].Ranks)
	}
	if avg := wait / 32; math.Abs(avg-out.AvgWait) > 1e-9*math.Max(1, out.AvgWait) {
		t.Errorf("phase wait sum/ranks = %v, AvgWait = %v", avg, out.AvgWait)
	}
	// MaxWait is over ranks, max phase wait is over (phase, rank) pairs,
	// so the former bounds the latter from above.
	if maxWait > out.MaxWait+1e-12 {
		t.Errorf("max phase wait %v exceeds MaxWait %v", maxWait, out.MaxWait)
	}
}
