package driver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/predict"
)

// MappingQuality summarizes the communication locality of one mapping
// kind: the average torus hop distance between neighbouring ranks, for
// the parent's full-grid decomposition, per sibling partition, and
// overall.
type MappingQuality struct {
	ParentAvgHops  float64
	SiblingAvgHops []float64
	OverallAvgHops float64
}

// Plan is the immutable outcome of the paper's planning pipeline for
// one configuration under one set of options: the predicted sibling
// weights, the processor partitions of Algorithm 1 under the requested
// allocation policy, the mapping quality of every feasible mapping
// kind, and the predicted cost of running the configuration with the
// requested strategy/mapping. A Plan is built once by BuildPlan and
// never mutated afterwards, so a single value can safely be shared
// across concurrent readers (the plan server hands cached Plans to
// many requests at once).
type Plan struct {
	// Ranks is the total processor count; the virtual grid is Px x Py.
	Ranks, Px, Py int
	// Strategy, Alloc and MapKind echo the options the plan was built
	// for.
	Strategy Strategy
	Alloc    AllocPolicy
	MapKind  MapKind
	// Weights are the predicted relative execution times of the
	// first-level siblings (summing to 1), from the interpolation model
	// (or Options.FixedWeights when supplied).
	Weights []float64
	// Rects are the processor partitions, one per first-level sibling,
	// sized by the requested allocation policy.
	Rects []alloc.Rect
	// Mapping reports hop quality per feasible mapping kind, keyed by
	// the kind's String (infeasible kinds, e.g. non-foldable shapes for
	// the multi-level mapping, are absent).
	Mapping map[string]MappingQuality
	// Cost is the predicted per-iteration cost of executing the
	// configuration under the plan's options on the virtual-time
	// simulator.
	Cost Result
}

// Shared predictor cache. Predictors are deterministic functions of
// the machine's full identity (the paper's 13 profiling runs produce
// the same model every time), so one trained model is shared by every
// run, experiment and server request on the same machine. The key
// covers every field of the machine, not just its name: two machines
// that share a name but differ in any cost-model parameter must not
// share a predictor.
// predEntry is one machine's singleflight training slot: the first
// caller trains inside the Once, and every concurrent first-touch
// caller waits on the same slot instead of training a redundant copy
// (Delaunay training is the most expensive step of a cold plan).
type predEntry struct {
	once sync.Once
	p    *predict.Model
	err  error
}

var (
	predMu    sync.Mutex
	predCache = map[string]*predEntry{}

	// trainCount tallies TrainPredictor invocations; the thundering-herd
	// regression test asserts N concurrent first-touch CachedPredictor
	// calls add exactly one.
	trainCount atomic.Int64
)

// TrainCalls reports how many times TrainPredictor has run in this
// process. Diagnostic: tests use the delta to prove the predictor
// singleflight holds under concurrency.
func TrainCalls() int64 { return trainCount.Load() }

// MachineKey renders the machine's full identity for cache keying: any
// cost-model difference yields a distinct key.
func MachineKey(m machine.Machine) string { return fmt.Sprintf("%#v", m) }

// CachedPredictor returns the shared predictor for m, training it on
// first use. Training is deterministic, so the cached model is
// interchangeable with a freshly trained one; concurrent first-touch
// callers for the same machine share a single training pass.
func CachedPredictor(m machine.Machine) (*predict.Model, error) {
	key := MachineKey(m)
	predMu.Lock()
	e, ok := predCache[key]
	if !ok {
		e = &predEntry{}
		predCache[key] = e
	}
	predMu.Unlock()
	e.once.Do(func() { e.p, e.err = TrainPredictor(m) })
	if e.err != nil {
		// Failed trainings are not cached: drop the entry (unless a
		// reset already replaced it) so the next caller retries.
		predMu.Lock()
		if predCache[key] == e {
			delete(predCache, key)
		}
		predMu.Unlock()
		return nil, e.err
	}
	return e.p, nil
}

// ResetPredictorCache drops all cached predictors, forcing the next
// CachedPredictor call to retrain. Tests and benchmarks use it to start
// from a cold cache.
func ResetPredictorCache() {
	predMu.Lock()
	predCache = map[string]*predEntry{}
	predMu.Unlock()
}

// BuildPlan runs performance prediction, processor allocation, mapping
// analysis and cost prediction for cfg under the given options,
// returning the reusable Plan value. The caller's Options are never
// written to.
func BuildPlan(cfg *nest.Domain, opt Options) (*Plan, error) {
	if opt.Ranks <= 0 {
		return nil, ErrBadRanks
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := machine.GridFor(opt.Ranks)
	if err != nil {
		return nil, err
	}
	tor, err := machine.TorusFor(opt.Ranks)
	if err != nil {
		return nil, err
	}

	r := &run{opt: opt, pred: opt.Predictor}
	plan := &Plan{
		Ranks: opt.Ranks, Px: g.Px, Py: g.Py,
		Strategy: opt.Strategy, Alloc: opt.Alloc, MapKind: opt.MapKind,
		Mapping: map[string]MappingQuality{},
	}

	if len(cfg.Children) > 0 {
		if len(opt.FixedWeights) == len(cfg.Children) {
			plan.Weights = append([]float64(nil), opt.FixedWeights...)
		} else {
			pred, err := r.predictor()
			if err != nil {
				return nil, err
			}
			plan.Weights = pred.Weights(cfg.Children)
		}
		plan.Rects, err = r.allocate(cfg.Children, g.Px, g.Py)
		if err != nil {
			return nil, err
		}
	}

	// Mapping quality for every kind that is feasible at this grid and
	// torus shape (e.g. the multi-level mapping needs foldable shapes;
	// infeasible kinds are simply absent from the report).
	builders := []struct {
		kind  MapKind
		build func() (*mapping.Mapping, error)
	}{
		{MapSequential, func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) }},
		{MapTXYZ, func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, opt.Machine.CoresPerNode) }},
		{MapPartition, func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, plan.Rects) }},
		{MapMultiLevel, func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) }},
	}
	// The four mapping build+analyze units and the cost run are
	// independent once weights and partitions exist, so they fan over
	// spare worker-pool slots; the merge below visits slots in builder
	// order, so output and first-error choice match a sequential loop
	// byte for byte. The cost run itself may fan sibling subtrees
	// (Options.Parallel); its result is journal-merged to the identical
	// bits. Phase costs stay memoized across plans, so repeated
	// BuildPlan calls on warm caches remain cheap.
	type mapOut struct {
		ok  bool
		q   MappingQuality
		err error
	}
	outs := make([]mapOut, len(builders))
	var cost Result
	var costErr error
	fanOut(len(builders)+1, func(i int) {
		if i == len(builders) {
			runOpt := opt
			runOpt.Predictor = r.pred
			runOpt.Parallel = true
			cost, costErr = Run(cfg, runOpt)
			return
		}
		mp, err := builders[i].build()
		if err != nil {
			return // infeasible kind: absent from the report
		}
		rep, err := mapping.Analyze(mp, plan.Rects)
		if err != nil {
			outs[i].err = err
			return
		}
		outs[i] = mapOut{ok: true, q: MappingQuality{
			ParentAvgHops:  rep.ParentAvg,
			SiblingAvgHops: rep.SiblingAvg,
			OverallAvgHops: rep.OverallAvg,
		}}
	})
	for i, b := range builders {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if outs[i].ok {
			plan.Mapping[b.kind.String()] = outs[i].q
		}
	}
	if costErr != nil {
		return nil, costErr
	}
	plan.Cost = cost
	return plan, nil
}
