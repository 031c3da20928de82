package wrfsim

import (
	"testing"

	"nestwrf/internal/metrics"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
)

// paperConfig is the paper's Table 2 multi-sibling setup: the pacific
// parent with four regions of interest. Unlike testConfig, every
// domain is large enough to decompose over thousands of ranks, so it
// is the fixture for full BG/P-scale functional runs.
func paperConfig() *nest.Domain {
	root := nest.Root("pacific", 286, 307)
	root.AddChild("sibling1", 394, 418, 3, 5, 5)
	root.AddChild("sibling2", 232, 202, 3, 150, 10)
	root.AddChild("sibling3", 232, 256, 3, 10, 160)
	root.AddChild("sibling4", 313, 337, 3, 140, 150)
	return root
}

// scaleSnapshot captures every virtual-time observable of a run the
// high-rank tests compare: final fields, makespan, wait aggregates,
// and the per-phase totals with the real-time Wall field zeroed.
func scaleSnapshot(out *Output) *Output {
	phases := make([]mpi.PhaseTotal, len(out.Phases))
	copy(phases, out.Phases)
	for i := range phases {
		phases[i].Sum.Wall = 0
	}
	out.Phases = phases
	return out
}

func equalOutputs(t *testing.T, label string, a, b *Output) {
	t.Helper()
	if d := a.Parent.MaxDiff(b.Parent); d != 0 {
		t.Errorf("%s: parent fields differ by %v (want exactly 0)", label, d)
	}
	for i := range a.Nests {
		if d := a.Nests[i].MaxDiff(b.Nests[i]); d != 0 {
			t.Errorf("%s: nest %d fields differ by %v (want exactly 0)", label, i, d)
		}
	}
	if a.MaxClock != b.MaxClock || a.AvgWait != b.AvgWait || a.MaxWait != b.MaxWait {
		t.Errorf("%s: clock/wait aggregates differ: (%v, %v, %v) != (%v, %v, %v)",
			label, a.MaxClock, a.AvgWait, a.MaxWait, b.MaxClock, b.AvgWait, b.MaxWait)
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("%s: phase count %d != %d", label, len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		if a.Phases[i].Name != b.Phases[i].Name || a.Phases[i].Ranks != b.Phases[i].Ranks ||
			a.Phases[i].Sum != b.Phases[i].Sum || a.Phases[i].MaxWait != b.Phases[i].MaxWait {
			t.Errorf("%s: phase %q differs: %+v != %+v", label, a.Phases[i].Name, a.Phases[i], b.Phases[i])
		}
	}
}

// A full paper-scale functional run must be deterministic: repeated
// runs at thousands of ranks produce bit-identical fields, clocks and
// phase stats. (GOMAXPROCS variation is covered in the mpi package's
// high-rank determinism test; here the whole wrfsim stack runs.)
func TestFunctionalHighRankDeterminism(t *testing.T) {
	ranks := 2048
	if raceEnabled {
		ranks = 128 // the race detector multiplies per-goroutine cost
	}
	if testing.Short() {
		ranks = 128
	}
	opt := baseOpts(Concurrent)
	opt.Ranks = ranks
	opt.Steps = 1
	cfg := paperConfig()
	run := func() *Output {
		out, err := Run(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		return scaleSnapshot(out)
	}
	equalOutputs(t, "run-to-run", run(), run())
}

// Options.Metrics must publish the run's payload-pool snapshot, and
// the pool must actually serve steady-state coupling traffic.
func TestRunRecordsPoolMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	opt := baseOpts(Sequential)
	opt.Metrics = reg
	out, err := Run(testConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Pools.Hits == 0 || out.Pools.Frees == 0 {
		t.Fatalf("pool stats not populated: %+v", out.Pools)
	}
	if hr := reg.Gauge("mpi_payload_pool_hit_rate").Value(); hr <= 0 || hr > 1 {
		t.Errorf("recorded hit rate %v out of (0, 1]", hr)
	}
	if got := reg.Gauge("mpi_payload_pool_hits").Value(); got != float64(out.Pools.Hits) {
		t.Errorf("recorded hits %v != snapshot %d", got, out.Pools.Hits)
	}
}
