package nestwrf_test

// One benchmark per table and figure of the paper's evaluation: each
// bench re-runs the corresponding experiment of internal/experiments
// (the same code `go run ./cmd/experiments -run <id>` executes) and
// reports the headline simulated metric via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the entire evaluation.

import (
	"runtime"
	"strconv"
	"testing"

	"nestwrf"
	"nestwrf/internal/driver"
	"nestwrf/internal/experiments"
	"nestwrf/internal/model"
	"nestwrf/internal/nest"
)

// benchExperiment runs a registered experiment b.N times.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig2Scalability(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkPredictionModel(b *testing.B)     { benchExperiment(b, "predict") }
func BenchmarkFig3Partition(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4SplitDim(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig56Mappings(b *testing.B)       { benchExperiment(b, "fig56") }
func BenchmarkPerIteration85(b *testing.B)      { benchExperiment(b, "periter") }
func BenchmarkFig8IOImprovement(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkTable1Wait(b *testing.B)          { benchExperiment(b, "tab1") }
func BenchmarkTable2Fig9Siblings(b *testing.B)  { benchExperiment(b, "tab2fig9") }
func BenchmarkFig10LargeSiblings(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkVaryingSiblingCount(b *testing.B) { benchExperiment(b, "nsib") }
func BenchmarkTable3NestSizes(b *testing.B)     { benchExperiment(b, "tab3") }
func BenchmarkTable4Fig11BGL(b *testing.B)      { benchExperiment(b, "tab4fig11") }
func BenchmarkTable5Fig12BGP(b *testing.B)      { benchExperiment(b, "tab5fig12") }
func BenchmarkFig13IO(b *testing.B)             { benchExperiment(b, "fig1314") }
func BenchmarkAllocEfficiency(b *testing.B)     { benchExperiment(b, "alloceff") }
func BenchmarkFig15Speedup(b *testing.B)        { benchExperiment(b, "fig15") }

// Ablations of the design choices DESIGN.md calls out, plus the
// future-work 5D-torus mapping.
func BenchmarkAblationContention(b *testing.B) { benchExperiment(b, "abl-contention") }
func BenchmarkAblationShape(b *testing.B)      { benchExperiment(b, "abl-shape") }
func BenchmarkAblationExchanges(b *testing.B)  { benchExperiment(b, "abl-exchanges") }
func BenchmarkBGQ5DFold(b *testing.B)          { benchExperiment(b, "bgq") }
func BenchmarkCampaign(b *testing.B)           { benchExperiment(b, "campaign") }
func BenchmarkSEAsia(b *testing.B)             { benchExperiment(b, "seasia") }
func BenchmarkSteering(b *testing.B)           { benchExperiment(b, "steer") }

// benchAll regenerates the entire evaluation with the given fan-out
// (experiment-level and intra-experiment). Comparing the two
// benchmarks below shows the harness speedup on multi-core hardware;
// the rendered output is byte-identical either way.
func benchAll(b *testing.B, parallel int) {
	prev := experiments.Parallelism()
	experiments.SetParallelism(parallel)
	defer experiments.SetParallelism(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range experiments.RunAll(parallel) {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.Experiment.ID, o.Err)
			}
			if len(o.Table.Rows) == 0 {
				b.Fatalf("%s produced no rows", o.Experiment.ID)
			}
		}
	}
}

func BenchmarkAllExperimentsSequential(b *testing.B) { benchAll(b, 1) }

func BenchmarkAllExperimentsParallel(b *testing.B) {
	benchAll(b, runtime.GOMAXPROCS(0))
}

// Component micro-benchmarks: the costs of the paper's pipeline pieces.

func benchConfig() *nestwrf.Domain {
	cfg := nestwrf.NewDomain("pacific", 286, 307)
	cfg.AddChild("sibling1", 394, 418, 3, 5, 5)
	cfg.AddChild("sibling2", 232, 202, 3, 150, 10)
	cfg.AddChild("sibling3", 232, 256, 3, 10, 160)
	cfg.AddChild("sibling4", 313, 337, 3, 140, 150)
	return cfg
}

func BenchmarkTrainPredictor(b *testing.B) {
	m := nestwrf.BlueGeneL()
	for i := 0; i < b.N; i++ {
		if _, err := nestwrf.TrainPredictor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanPipeline(b *testing.B) {
	cfg := benchConfig()
	m := nestwrf.BlueGeneL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nestwrf.Plan(cfg, m, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// coldPlanJobs builds 32 distinct multi-sibling configurations (two
// typhoon nests, one carrying a finer inner nest) with jittered
// geometries, so every job is a distinct plan-cache key that must plan
// from scratch.
func coldPlanJobs() []driver.PlanJob {
	jobs := make([]driver.PlanJob, 32)
	for i := range jobs {
		cfg := nest.Root("pacific", 286, 307)
		t1 := cfg.AddChild("t1", 390-6*(i%8), 410+8*(i%4), 3, 5, 5)
		t1.AddChild("t1i", 150+10*(i%3), 140, 3, 20, 20)
		cfg.AddChild("t2", 310-10*(i%5), 330, 3, 140, 150)
		jobs[i] = driver.PlanJob{Config: cfg, Options: driver.Options{
			Machine:  nestwrf.BlueGeneL(),
			Ranks:    1024,
			Strategy: nestwrf.StrategyConcurrent,
			MapKind:  nestwrf.MapMultiLevel,
			Alloc:    nestwrf.AllocPredicted,
		}}
	}
	return jobs
}

// BenchmarkColdPlan measures the cold-planning path — a batch of 32
// distinct multi-sibling plans, as an ensemble generation or a churn
// of new regions of interest produces — through BuildPlans with one
// batch worker and with GOMAXPROCS workers. Either way each plan fans
// its own mapping analyses and cost run over the shared worker pool.
// The model-layer phase cache is dropped every iteration so each batch
// genuinely replans; the machine's predictor is trained once up front
// (training time is not what this benchmark tracks).
func BenchmarkColdPlan(b *testing.B) {
	jobs := coldPlanJobs()
	if _, err := driver.CachedPredictor(nestwrf.BlueGeneL()); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			model.ResetCache()
			plans, errs := driver.BuildPlans(jobs, workers)
			for j := range jobs {
				if errs[j] != nil {
					b.Fatal(errs[j])
				}
				if plans[j] == nil || plans[j].Cost.IterTime <= 0 {
					b.Fatalf("job %d: incomplete plan", j)
				}
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=GOMAXPROCS", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkSimulate measures one virtual-time iteration at several
// machine sizes; the reported metric is the simulated iteration time.
func BenchmarkSimulate(b *testing.B) {
	cfg := benchConfig()
	pred, err := nestwrf.TrainPredictor(nestwrf.BlueGeneP())
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{512, 1024, 2048, 4096, 8192} {
		b.Run(strconv.Itoa(ranks), func(b *testing.B) {
			opt := nestwrf.Options{
				Machine:   nestwrf.BlueGeneP(),
				Ranks:     ranks,
				Strategy:  nestwrf.StrategyConcurrent,
				MapKind:   nestwrf.MapMultiLevel,
				Alloc:     nestwrf.AllocPredicted,
				Predictor: pred,
			}
			var last nestwrf.Result
			for i := 0; i < b.N; i++ {
				res, err := nestwrf.Simulate(cfg, opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.IterTime, "sim-s/iter")
		})
	}
}

// BenchmarkFunctional runs the real mini-WRF on the goroutine MPI
// runtime under both strategies.
func BenchmarkFunctional(b *testing.B) {
	cfg := nestwrf.NewDomain("parent", 64, 64)
	cfg.AddChild("nest1", 60, 48, 3, 2, 2)
	cfg.AddChild("nest2", 48, 36, 3, 30, 30)
	for _, s := range []struct {
		name     string
		strategy nestwrf.FunctionalStrategy
	}{
		{"sequential", nestwrf.FunctionalSequential},
		{"concurrent", nestwrf.FunctionalConcurrent},
	} {
		b.Run(s.name, func(b *testing.B) {
			var clock float64
			for i := 0; i < b.N; i++ {
				out, err := nestwrf.RunFunctional(cfg, nestwrf.FunctionalOptions{
					Ranks:     32,
					Steps:     2,
					Strategy:  s.strategy,
					PointCost: 1e-6,
					TM:        nestwrf.AlphaBeta{Alpha: 5e-5, Beta: 1e-9},
				})
				if err != nil {
					b.Fatal(err)
				}
				clock = out.MaxClock
			}
			b.ReportMetric(clock*1e3, "sim-ms")
		})
	}
}

// BenchmarkFunctionalRanks sweeps the functional mini-WRF from 32 up
// to the paper's full 8192-rank BG/P scale on the paper's Table 2
// multi-sibling domain (the only fixture whose domains decompose at
// every size). Every size executes the real message-passing run — the
// sweep exists to prove the sharded mpi runtime sustains the paper's
// largest configuration end to end, and to pin its real-time cost.
func BenchmarkFunctionalRanks(b *testing.B) {
	cfg := benchConfig()
	for _, ranks := range []int{32, 128, 512, 2048, 8192} {
		b.Run(strconv.Itoa(ranks), func(b *testing.B) {
			var clock float64
			for i := 0; i < b.N; i++ {
				out, err := nestwrf.RunFunctional(cfg, nestwrf.FunctionalOptions{
					Ranks:     ranks,
					Steps:     1,
					Strategy:  nestwrf.FunctionalConcurrent,
					PointCost: 1e-6,
					TM:        nestwrf.AlphaBeta{Alpha: 5e-5, Beta: 1e-9},
				})
				if err != nil {
					b.Fatal(err)
				}
				clock = out.MaxClock
			}
			b.ReportMetric(clock*1e3, "sim-ms")
		})
	}
}
