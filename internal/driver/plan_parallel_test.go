package driver

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
)

// parallelOracleDomain is a three-level tree with two nested sibling
// subtrees plus a flat sibling, so both the sequential-strategy sibling
// fan and the concurrent-strategy nestedExtra fan have real work.
func parallelOracleDomain() *nest.Domain {
	cfg := nest.Root("p", 340, 360)
	a := cfg.AddChild("a", 600, 540, 3, 10, 10)
	a.AddChild("a1", 280, 240, 3, 40, 50)
	a.AddChild("a2", 260, 220, 3, 320, 280)
	b := cfg.AddChild("b", 330, 300, 3, 220, 220)
	b.AddChild("b1", 150, 150, 3, 30, 30)
	cfg.AddChild("c", 120, 150, 3, 215, 15)
	return cfg
}

// TestBuildPlanParallelMatchesReference recomputes, sequentially and on
// the test side, every part of each oracle-grid plan that BuildPlan fans
// out: mapping.Analyze for every feasible kind in builder order, and the
// cost run with Options.Parallel off. Both must DeepEqual what the
// fan-out merged. (Weights and partitions are never fanned.)
func TestBuildPlanParallelMatchesReference(t *testing.T) {
	cfg := parallelOracleDomain()
	forEachOracleCombo(func(name string, opt Options) {
		plan, err := BuildPlan(cfg, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := machine.GridFor(opt.Ranks)
		if err != nil {
			t.Fatal(err)
		}
		tor, err := machine.TorusFor(opt.Ranks)
		if err != nil {
			t.Fatal(err)
		}
		builders := []struct {
			kind  MapKind
			build func() (*mapping.Mapping, error)
		}{
			{MapSequential, func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) }},
			{MapTXYZ, func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, opt.Machine.CoresPerNode) }},
			{MapPartition, func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, plan.Rects) }},
			{MapMultiLevel, func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) }},
		}
		want := map[string]MappingQuality{}
		for _, b := range builders {
			mp, err := b.build()
			if err != nil {
				continue
			}
			rep, err := mapping.Analyze(mp, plan.Rects)
			if err != nil {
				t.Fatalf("%s: analyze %v: %v", name, b.kind, err)
			}
			want[b.kind.String()] = MappingQuality{
				ParentAvgHops:  rep.ParentAvg,
				SiblingAvgHops: rep.SiblingAvg,
				OverallAvgHops: rep.OverallAvg,
			}
		}
		if !reflect.DeepEqual(want, plan.Mapping) {
			t.Errorf("%s: mapping report differs from sequential analysis:\nwant %+v\ngot  %+v", name, want, plan.Mapping)
		}
		cost, err := Run(cfg, opt)
		if err != nil {
			t.Fatalf("%s: sequential cost run: %v", name, err)
		}
		if !reflect.DeepEqual(cost, plan.Cost) {
			t.Errorf("%s: plan cost differs from sequential Run:\nwant %+v\ngot  %+v", name, cost, plan.Cost)
		}
	})
}

// TestRunParallelSiblingsIdentity checks the journal-replay merge at
// the Run level: Options.Parallel must not change a single bit of the
// Result, including the accumulated wait and hop statistics.
func TestRunParallelSiblingsIdentity(t *testing.T) {
	cfg := parallelOracleDomain()
	for _, strat := range []Strategy{Sequential, Concurrent} {
		opt := Options{
			Machine: machine.BGP(), Ranks: 256,
			Strategy: strat, MapKind: MapMultiLevel,
			IOMode: 1, OutputEverySteps: 2,
		}
		want, err := Run(cfg, opt)
		if err != nil {
			t.Fatalf("%v: sequential run: %v", strat, err)
		}
		opt.Parallel = true
		for i := 0; i < 3; i++ { // repeat: scheduling must not matter
			got, err := Run(cfg, opt)
			if err != nil {
				t.Fatalf("%v: parallel run: %v", strat, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%v: parallel Result differs from sequential:\nwant %+v\ngot  %+v", strat, want, got)
			}
		}
	}
}

// TestBuildPlansMatchesReference: a batch through BuildPlans must equal
// a plain per-job BuildPlan loop, job for job, with errors (here a
// zero-rank job in the middle) surfacing in the matching slot.
func TestBuildPlansMatchesReference(t *testing.T) {
	var jobs []PlanJob
	for i := 0; i < 6; i++ {
		cfg := nest.Root("p", 286, 307)
		cfg.AddChild("t1", 394-6*i, 418, 3, 5+i, 5)
		cfg.AddChild("t2", 313, 337-4*i, 3, 140, 150)
		jobs = append(jobs, PlanJob{Config: cfg, Options: Options{
			Machine: machine.BGL(), Ranks: 64,
			Strategy: Concurrent, Alloc: AllocPredicted, MapKind: MapKind(i % 4),
		}})
	}
	jobs[3].Options.Ranks = 0 // must fail in place without harming neighbours

	want := make([]*Plan, len(jobs))
	wantErr := make([]error, len(jobs))
	for i, j := range jobs {
		want[i], wantErr[i] = BuildPlan(j.Config, j.Options)
	}
	got, gotErr := BuildPlans(jobs, 4)
	for i := range jobs {
		if (wantErr[i] == nil) != (gotErr[i] == nil) {
			t.Fatalf("job %d: BuildPlan err %v, batch err %v", i, wantErr[i], gotErr[i])
		}
		if wantErr[i] != nil {
			continue
		}
		wb, _ := json.Marshal(want[i])
		gb, _ := json.Marshal(got[i])
		if string(wb) != string(gb) {
			t.Errorf("job %d: batch plan differs from BuildPlan", i)
		}
	}
	if gotErr[3] == nil {
		t.Error("job 3 (zero ranks) should have failed")
	}
}

// TestCachedPredictorTrainsOnce is the thundering-herd guard: many
// concurrent first-touch cold planners for one machine must share a
// single training pass.
func TestCachedPredictorTrainsOnce(t *testing.T) {
	ResetPredictorCache()
	defer ResetPredictorCache()
	before := TrainCalls()
	const callers = 16
	models := make([]any, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := CachedPredictor(machine.BGL())
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			models[i] = p
		}(i)
	}
	close(start)
	wg.Wait()
	if got := TrainCalls() - before; got != 1 {
		t.Fatalf("%d concurrent first-touch callers trained %d times, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if models[i] != models[0] {
			t.Fatalf("caller %d got a different model instance", i)
		}
	}
}

// TestConcurrentBuildPlansDeterministic runs batches from several
// goroutines at once, so their intra-plan fan-outs contend for the
// shared worker pool: every plan must come out byte-identical to a lone
// BuildPlan. Run under -race in CI.
func TestConcurrentBuildPlansDeterministic(t *testing.T) {
	cfg := parallelOracleDomain()
	opt := Options{Machine: machine.BGL(), Ranks: 64, Strategy: Concurrent, MapKind: MapMultiLevel}
	want, err := BuildPlan(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)

	const workers, iters = 4, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				plans, errs := BuildPlans([]PlanJob{{Config: cfg, Options: opt}}, 2)
				if errs[0] != nil {
					t.Errorf("worker %d: %v", w, errs[0])
					return
				}
				gb, _ := json.Marshal(plans[0])
				if string(gb) != string(wb) {
					t.Errorf("worker %d: concurrent plan differs from a lone BuildPlan", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
