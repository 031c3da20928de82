package wrfsim

import (
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
	"nestwrf/internal/vtopo"
)

// A nested functional run must produce the same fields bit for bit on
// any rank count and under either strategy: the solver guarantees
// parallel==serial, boundary conditions are pure functions of parent
// cells, and feedback accumulates every parent cell's child block in
// canonical child-global order regardless of decomposition.
func TestRunBitIdenticalAcrossDecompositions(t *testing.T) {
	cfg := testConfig()
	runWith := func(ranks int, s Strategy) *Output {
		opt := baseOpts(s)
		opt.Ranks = ranks
		out, err := Run(cfg, opt)
		if err != nil {
			t.Fatalf("ranks=%d strategy=%v: %v", ranks, s, err)
		}
		return out
	}
	ref := runWith(1, Sequential)
	for _, tc := range []struct {
		ranks int
		s     Strategy
	}{{6, Sequential}, {32, Sequential}, {32, Concurrent}} {
		got := runWith(tc.ranks, tc.s)
		if d := ref.Parent.MaxDiff(got.Parent); d != 0 {
			t.Errorf("ranks=%d strategy=%v: parent differs from 1-rank run by %v (want exactly 0)", tc.ranks, tc.s, d)
		}
		for i := range ref.Nests {
			if d := ref.Nests[i].MaxDiff(got.Nests[i]); d != 0 {
				t.Errorf("ranks=%d strategy=%v: nest %d differs from 1-rank run by %v (want exactly 0)", tc.ranks, tc.s, i, d)
			}
		}
	}
}

// Steady-state coupling must be allocation-free: plans are prebuilt,
// payloads come from the world pool, and the boundary-cell store reuses
// its backing array. The allocation counter is process-global, so
// rank 0 measures while the other ranks run the identical call
// sequence bare: their coupling work overlaps rank 0's window (message
// dependencies keep the ranks in lockstep), so any allocation on any
// rank is caught, without testing machinery polluting the count.
func TestCouplingZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	// The nest footprint straddles all four parent quadrants so that
	// over a full coupling step (BC + feedback) every rank receives
	// from another rank: the mutual blocking keeps the ranks in
	// lockstep, bounding the payloads in flight to what the warmup
	// already pooled. (The phases must be measured together: in the BC
	// phase alone the northwest rank has no remote receive — its child
	// tile's halo parents are its own parent cells by construction — so
	// it would free-run ahead of the receivers' frees and draw fresh
	// buffers. The run loop always executes both phases per step.)
	cfg := nest.Root("parent", 32, 24)
	child := cfg.AddChild("nest", 16, 12, 2, 12, 8)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	grid := vtopo.Grid{Px: 2, Py: 2}
	params := solver.DefaultParams()
	nestParams := params
	nestParams.Dt = params.Dt / float64(child.Ratio)
	nestParams.Dx = params.Dx / float64(child.Ratio)

	const runs = 10
	var cplAvg float64
	_, err := mpi.Run(grid.Size(), mpi.AlphaBeta{Alpha: 1e-6, Beta: 1e-9}, func(p *mpi.Proc) error {
		world := p.World()
		me := world.Rank()
		px0, py0, pw, ph := solver.Decompose(cfg.NX, cfg.NY, grid, me)
		parent, err := solver.NewTile(cfg.NX, cfg.NY, px0, py0, pw, ph, params)
		if err != nil {
			return err
		}
		parent.Fill(solver.GaussianHill(cfg.NX, cfg.NY, 16, 12, 0.4, 4))

		nc := &nestCtx{d: child, idx: 0, grid: grid, comm: world}
		nc.world = make([]int, grid.Size())
		for r := range nc.world {
			nc.world[r] = r
		}
		x0, y0, w, h := solver.Decompose(child.NX, child.NY, grid, me)
		tile, err := solver.NewTile(child.NX, child.NY, x0, y0, w, h, nestParams)
		if err != nil {
			return err
		}
		tile.Fill(func(gx, gy int) (float64, float64, float64) {
			return initialParentValue(cfg, child.OffX+gx/child.Ratio, child.OffY+gy/child.Ratio)
		})
		nc.tile = tile
		nc.bcPlan = newBCPlan(bcPattern(cfg, grid, child, nc.grid, nc.world), grid.Size())
		nc.fbPlan = buildFBPlan(cfg, grid, child, nc.grid, nc.world)
		nc.fbPayloads = make([][]float64, nc.fbPlan.inboxLen[me])

		couple := func() {
			if err := exchangeBC(world, parent, nc); err != nil {
				t.Error(err)
			}
			if err := exchangeFeedback(world, parent, nc); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 3; i++ {
			couple()
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		if me == 0 {
			cplAvg = testing.AllocsPerRun(runs, couple)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun runs 1 warmup + runs
				couple()
			}
		}
		return world.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if cplAvg != 0 {
		t.Errorf("exchangeBC+exchangeFeedback: %v allocs per coupling step, want 0", cplAvg)
	}
}
