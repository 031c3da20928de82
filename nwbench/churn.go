package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/model"
	"nestwrf/internal/nest"
)

// churnJob is one plan-churn input: a configuration and its options.
type churnJob struct {
	cfg *nest.Domain
	opt driver.Options
}

// churnGen deterministically yields distinct planning jobs: the same
// seed gives the same job sequence, and no (machine, ranks, strategy,
// alloc, mapping, geometry) combination is ever yielded twice.
type churnGen struct {
	r    *rng
	seen map[string]bool
	// Each cost-relevant factor is dealt from its own deck, so every
	// seed plans the same mix in every prefix of its stream (the p50 of
	// a mix of 1 ms and 30 ms plans moves with small shifts in that
	// mix); the seed varies the combinations and the geometry.
	machines, ranks, strategies, allocs, maps, siblings, inner deck
}

func newChurnGen(seed, stream uint64, exclude map[string]bool) *churnGen {
	g := &churnGen{r: newRNG(seed, stream), seen: map[string]bool{},
		machines: deck{n: len(churnMachines)}, ranks: deck{n: len(churnRanks)},
		strategies: deck{n: len(churnStrategies)}, allocs: deck{n: len(churnAllocs)},
		maps: deck{n: len(churnMaps)}, siblings: deck{n: 4}, inner: deck{n: 3}}
	for k := range exclude {
		g.seen[k] = true
	}
	return g
}

var (
	churnMachines   = []machine.Machine{machine.BGL(), machine.BGP()}
	churnStrategies = []driver.Strategy{driver.Sequential, driver.Concurrent}
	churnAllocs     = []driver.AllocPolicy{driver.AllocPredicted, driver.AllocNaivePoints, driver.AllocEqual, driver.AllocStripsPredicted}
	churnMaps       = []driver.MapKind{driver.MapSequential, driver.MapTXYZ, driver.MapPartition, driver.MapMultiLevel}
	// churnRanks spans 512-8192 ranks in nine torus shapes. Each shape
	// a process plans for keeps its all-pairs route cache for good, so
	// a stream over every multiple of 64 in that range (121 shapes)
	// grew the process past 0.5 GB in five seconds; nine shapes keep
	// the benchmark within a shared host's memory while every new key
	// still grows the phase memo.
	churnRanks = []int{512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192}
)

// next draws jobs until one is new. Every mapping kind is feasible at
// every rank count of churnRanks; 1-4 siblings sit in disjoint
// quadrants of the parent, and a third of the configurations carry an
// inner nest in the first sibling.
func (g *churnGen) next() churnJob {
	for {
		j, key := g.draw()
		if !g.seen[key] {
			g.seen[key] = true
			return j
		}
	}
}

func (g *churnGen) draw() (churnJob, string) {
	r := g.r
	const ratio = 3
	nx, ny := r.between(240, 360), r.between(240, 360)
	cfg := nest.Root("parent", nx, ny)
	qw, qh := nx/2, ny/2
	nsib := 1 + g.siblings.deal(r)
	inner := g.inner.deal(r) == 0
	for k := 0; k < nsib; k++ {
		fx, fy := r.between(24, qw-4), r.between(24, qh-4)
		ox := (k%2)*qw + r.intn(qw-fx)
		oy := (k/2)*qh + r.intn(qh-fy)
		c := cfg.AddChild(fmt.Sprintf("s%d", k+1), fx*ratio, fy*ratio, ratio, ox, oy)
		if k == 0 && inner {
			ix, iy := r.between(10, fx*ratio/2), r.between(10, fy*ratio/2)
			c.AddChild("inner", ix*ratio, iy*ratio, ratio, r.intn(fx*ratio-ix), r.intn(fy*ratio-iy))
		}
	}
	opt := driver.Options{
		Machine:  churnMachines[g.machines.deal(r)],
		Ranks:    churnRanks[g.ranks.deal(r)],
		Strategy: churnStrategies[g.strategies.deal(r)],
		Alloc:    churnAllocs[g.allocs.deal(r)],
		MapKind:  churnMaps[g.maps.deal(r)],
	}
	return churnJob{cfg, opt}, jobKey(cfg, opt)
}

// jobKey renders the job's identity (names excluded: planning ignores
// them).
func jobKey(cfg *nest.Domain, opt driver.Options) string {
	return fmt.Sprintf("%s|%d|%v|%v|%v|%s", opt.Machine.Name, opt.Ranks, opt.Strategy, opt.Alloc, opt.MapKind, domainKey(cfg))
}

func domainKey(d *nest.Domain) string {
	s := fmt.Sprintf("(%d,%d,%d,%d,%d", d.NX, d.NY, d.Ratio, d.OffX, d.OffY)
	for _, c := range d.Children {
		s += domainKey(c)
	}
	return s + ")"
}

// Golden plan check: the plans of the first canaryJobs jobs of the
// canary stream, marshalled to JSON and concatenated, hash to
// canaryPlanHash. The canary keys are excluded from every measured
// stream, so the check never warms a measured key.
const (
	canarySeed     = 0xca7a1e
	canaryJobs     = 24
	canaryPlanHash = "6363cb8b2a30c6297d6a5f77c1e6b0a52fc8e94bfd2a789e01b656e7817b30bc"
)

func canarySet() ([]churnJob, map[string]bool) {
	g := newChurnGen(canarySeed, 0, nil)
	jobs := make([]churnJob, canaryJobs)
	for i := range jobs {
		jobs[i] = g.next()
	}
	return jobs, g.seen
}

// planSetHash hashes the JSON of each plan in order.
func planSetHash(plans [][]byte) string {
	h := sha256.New()
	for _, p := range plans {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPlanHash is the plan-churn output check.
func checkPlanHash(plans [][]byte, want string) error {
	if got := planSetHash(plans); got != want {
		return fmt.Errorf("canary plan hash %s, want %s", got, want)
	}
	return nil
}

// checkPlan verifies the invariants every plan must hold.
func checkPlan(j churnJob, p *driver.Plan) error {
	n := len(j.cfg.Children)
	if p.Ranks != j.opt.Ranks || p.Px*p.Py != p.Ranks {
		return fmt.Errorf("plan grid %dx%d for %d ranks", p.Px, p.Py, j.opt.Ranks)
	}
	if len(p.Weights) != n || len(p.Rects) != n {
		return fmt.Errorf("plan has %d weights and %d rects for %d siblings", len(p.Weights), len(p.Rects), n)
	}
	var sum float64
	for _, w := range p.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("plan weights sum to %v", sum)
	}
	if err := alloc.Validate(p.Rects, p.Px, p.Py); err != nil {
		return err
	}
	if !(p.Cost.IterTime > 0) || math.IsInf(p.Cost.IterTime, 0) {
		return fmt.Errorf("plan iteration time %v", p.Cost.IterTime)
	}
	return nil
}

// churnClients is the closed-loop client count. BuildPlan already fans
// its mapping and cost units over every core, so one client keeps a
// 2-core host busy; two clients on that host spread p50 by about 15%
// from run to run of one seed, one client by about 3%.
const churnClients = 1

// churnRSSPlans is the plan count at which peak_rss_mb is read. The
// phase memo grows with every plan, so reading it at the end of the
// window would charge a faster planner for planning more keys.
const churnRSSPlans = 1000

// churnSetup trains both machines' predictors and generates the input
// stream from scratch (process-global predictor and phase caches
// dropped first), returning the jobs.
func churnSetup(seed uint64, n int, exclude map[string]bool) ([]churnJob, error) {
	driver.ResetPredictorCache()
	model.ResetCache()
	g := newChurnGen(seed, 1, exclude)
	jobs := make([]churnJob, n)
	for i := range jobs {
		jobs[i] = g.next()
	}
	for _, m := range churnMachines {
		if _, err := driver.CachedPredictor(m); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

func runChurn(e *env) (*outcome, error) {
	canary, canaryKeys := canarySet()
	// The pool is sized well past what two clients can plan in the
	// window (about 200 plans/s on the sizing host).
	n := int(e.seconds.Seconds()) * 1500
	var jobs []churnJob
	o := &outcome{}
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if jobs, err = churnSetup(e.seed, n, canaryKeys); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, since(t))
	}

	var (
		next     atomic.Int64
		failed   atomic.Int64
		mu       sync.Mutex
		lat      []float64
		firstBad error
		wg       sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(e.seconds)
	var rssAt atomic.Int64 // peak RSS in kB when plan churnRSSPlans completed
	for c := 0; c < churnClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			var bad error
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					break
				}
				t := time.Now()
				p, err := driver.BuildPlan(jobs[i].cfg, jobs[i].opt)
				d := since(t)
				if err != nil {
					failed.Add(1)
					continue
				}
				if i == churnRSSPlans-1 {
					if mb, err := peakRSSMB(0); err == nil {
						rssAt.Store(int64(mb * 1024))
					}
				}
				mine = append(mine, d)
				if err := checkPlan(jobs[i], p); err != nil && bad == nil {
					bad = fmt.Errorf("job %d: %v", i, err)
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			if bad != nil && firstBad == nil {
				firstBad = bad
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	o.wall = since(start)
	o.attempted = int64(len(lat)) + failed.Load()
	o.failed = failed.Load()
	o.lat = lat
	if int(next.Load()) > len(jobs) {
		return nil, errors.New("input pool exhausted; raise the pool size")
	}
	o.rssMB = float64(rssAt.Load()) / 1024
	if o.rssMB == 0 { // fewer than churnRSSPlans plans in the window
		rss, err := peakRSSMB(0)
		if err != nil {
			return nil, err
		}
		o.rssMB = rss
	}

	plans := make([][]byte, len(canary))
	for i, j := range canary {
		p, err := driver.BuildPlan(j.cfg, j.opt)
		if err != nil {
			return nil, fmt.Errorf("canary plan %d: %v", i, err)
		}
		if plans[i], err = json.Marshal(p); err != nil {
			return nil, err
		}
	}
	o.checkErr = firstBad
	if o.checkErr == nil {
		o.checkErr = checkPlanHash(plans, canaryPlanHash)
	}
	o.extra = []namedValue{{"plans_per_s", float64(len(lat)) / o.wall, "1/s"}}
	return o, nil
}
