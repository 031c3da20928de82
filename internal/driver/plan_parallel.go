package driver

import (
	"runtime"
	"sync"
	"sync/atomic"

	"nestwrf/internal/model"
	"nestwrf/internal/nest"
	"nestwrf/internal/predict"
	"nestwrf/internal/vtopo"
)

// planPool bounds the goroutines that all parallel planning work in the
// process — intra-plan fan-out and per-sibling subtree evaluation — may
// add beyond their callers. BuildPlans batches bound their own cross-job
// workers separately.
var planPool = make(chan struct{}, runtime.GOMAXPROCS(0))

// fanOut runs fn(0..n-1), spilling onto spare planPool slots; indices
// that cannot get a slot run inline on the calling goroutine, so a
// saturated pool degrades to plain sequential execution instead of
// deadlocking under nested fan-out. Returns after every fn completed.
func fanOut(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case planPool <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() { <-planPool; wg.Done() }()
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
}

// acctOp is one deferred account/unaccount mutation. Per-sibling
// subtree evaluations run on journaling run clones that record these
// instead of touching shared accumulators; the parent replays the
// journals in sequential child order, so every float lands in
// waitAvg/waitMax/hopNum/hopDen through the exact operation sequence
// the sequential path performs (float addition is not associative —
// merging per-worker partial sums would drift in the last bits).
type acctOp struct {
	name  string
	sg    vtopo.Subgrid
	steps float64
	c     model.StepCost
	un    bool
}

// journalClone returns a run that shares r's immutable inputs (options,
// predictor, mapping) but records accounting into a private journal
// instead of mutating shared state. Clones never build reports or trace
// spans — fanSiblings gates on both.
func (r *run) journalClone() *run {
	return &run{opt: r.opt, pred: r.pred, mp: r.mp, journaling: true}
}

// replay applies a journal in recorded order through the real
// account/unaccount methods (or appends it, when r itself journals for
// a parent — nested fans compose).
func (r *run) replay(ops []acctOp) {
	for _, op := range ops {
		if op.un {
			r.unaccount(op.name, op.sg, op.steps, op.c)
		} else {
			r.account(op.name, op.sg, op.steps, op.c)
		}
	}
}

// fanSiblings reports whether n sibling subtree evaluations may run on
// journaling clones in parallel. Reports and recording tracers need the
// true sequential interleaving (per-phase congestion capture, span
// ordering), so either disables the fan.
func (r *run) fanSiblings(n int) bool {
	return n > 1 && r.opt.Parallel && r.rep == nil && !r.opt.Tracer.Recording()
}

// siblingEval carries one fanned sibling-subtree evaluation back to the
// deterministic merge: the subtree's step (or nested-extra) time, its
// accounting journal, and any error.
type siblingEval struct {
	step float64
	ops  []acctOp
	err  error
}

// PlanJob pairs one domain configuration with its planning options for
// BuildPlans.
type PlanJob struct {
	Config  *nest.Domain
	Options Options
}

// BuildPlans builds every job's plan in one batched pass: jobs fan out
// over at most `workers` goroutines (GOMAXPROCS when workers <= 0), and
// each distinct machine's predictor is resolved once up front so a
// cold batch shares one training per machine. Outputs keep input order:
// plans[i] and errs[i] belong to jobs[i], and each plan is byte-
// identical to what BuildPlan(jobs[i]...) returns on its own.
func BuildPlans(jobs []PlanJob, workers int) ([]*Plan, []error) {
	plans := make([]*Plan, len(jobs))
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return plans, errs
	}
	// Machines whose training fails are left to the per-job path, which
	// reports the error only if the job actually needs a predictor
	// (fixed-weight and equal-split jobs do not).
	shared := map[string]*predict.Model{}
	for _, j := range jobs {
		if j.Options.Predictor != nil {
			continue
		}
		key := MachineKey(j.Options.Machine)
		if _, seen := shared[key]; seen {
			continue
		}
		p, err := CachedPredictor(j.Options.Machine)
		if err != nil {
			p = nil
		}
		shared[key] = p
	}
	build := func(i int) {
		opt := jobs[i].Options
		if opt.Predictor == nil {
			if p := shared[MachineKey(opt.Machine)]; p != nil {
				opt.Predictor = p
			}
		}
		plans[i], errs[i] = BuildPlan(jobs[i].Config, opt)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				build(i)
			}
		}()
	}
	wg.Wait()
	return plans, errs
}
