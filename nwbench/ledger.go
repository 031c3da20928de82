package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/predict"
	"nestwrf/internal/solver"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/wrfsim"
)

// ledger collects the traced run's per-layer metrics, each tagged with
// the workload it was measured on.
type ledger struct {
	e                 *env
	metrics           map[string]metric
	rows              []string
	attempted, failed int64
	checkErr          error
}

func (l *ledger) add(workload, name string, value float64, unit string) {
	l.metrics[name] = metric{value, unit}
	l.rows = append(l.rows, fmt.Sprintf("# %-16s %-28s %14.6g %s", workload, name, value, unit))
}

func (l *ledger) fail(err error) {
	if err != nil && l.checkErr == nil {
		l.checkErr = err
	}
}

// runLedger is the traced run. Each section drives one workload's
// layers from outside: timed calls into their public functions, the
// driver tracer, the plan server's stats, metrics and span dump, and
// the functional run's phase accounting. Every section runs whichever
// workload is named, so each traced run reports the full ledger; the
// named workload only goes first. The timed sections measure for a
// third of the window each, so a traced run takes about as long as an
// untraced one.
func runLedger(e *env, first string) (*result, error) {
	defer os.RemoveAll(e.tmp)
	section := *e
	section.seconds = e.seconds / 3
	l := &ledger{e: &section, metrics: map[string]metric{}}
	sections := []struct {
		name string
		run  func(*ledger) error
	}{
		{"plan-churn", churnLedger},
		{"serve-zipf", serveLedger},
		{"functional-2048", functionalLedger},
		{"paper-eval", paperLedger},
	}
	sort.SliceStable(sections, func(i, j int) bool { return sections[i].name == first && sections[j].name != first })
	for _, s := range sections {
		if err := s.run(l); err != nil {
			return nil, fmt.Errorf("%s ledger: %v", s.name, err)
		}
	}
	fmt.Fprintf(e.out, "# %-16s %-28s %14s %s\n", "workload", "metric", "value", "unit")
	for _, r := range l.rows {
		fmt.Fprintln(e.out, r)
	}
	if l.checkErr != nil {
		fmt.Fprintf(e.out, "# OUTPUT CHECK FAILED: %v\n", l.checkErr)
	}
	return &result{Correct: l.checkErr == nil, Attempted: l.attempted, Failed: l.failed, Metrics: l.metrics}, nil
}

// stageTimes is one traced plan's stage split, in seconds.
type stageTimes struct {
	predict, alloc, build, analyze float64
	run, runSelf, phase            float64
	phaseCalls                     int
	total                          float64
}

// allocate mirrors the driver's allocation-policy dispatch through the
// alloc package's public entry points.
func allocate(policy driver.AllocPolicy, pred *predict.Model, children []*nest.Domain, w []float64, px, py int) ([]alloc.Rect, error) {
	switch policy {
	case driver.AllocEqual:
		return alloc.EqualSplit(len(children), px, py)
	case driver.AllocNaivePoints:
		pts := make([]float64, len(children))
		for i, c := range children {
			pts[i] = float64(c.Points())
		}
		return alloc.NaiveStrips(pts, px, py)
	case driver.AllocStripsPredicted:
		return alloc.NaiveStrips(pred.Weights(children), px, py)
	default:
		return alloc.Partition(w, px, py)
	}
}

// tracedPlan runs the planning pipeline for j one public stage call at
// a time (the calls BuildPlan makes), timing each, and the cost run
// under a driver tracer for the driver.run and phase spans.
func tracedPlan(j churnJob) (stageTimes, error) {
	var st stageTimes
	g, err := machine.GridFor(j.opt.Ranks)
	if err != nil {
		return st, err
	}
	tor, err := machine.TorusFor(j.opt.Ranks)
	if err != nil {
		return st, err
	}
	pred, err := driver.CachedPredictor(j.opt.Machine)
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	w := pred.Weights(j.cfg.Children)
	t1 := time.Now()
	rects, err := allocate(j.opt.Alloc, pred, j.cfg.Children, w, g.Px, g.Py)
	if err != nil {
		return st, err
	}
	t2 := time.Now()
	var mps []*mapping.Mapping
	for _, build := range []func() (*mapping.Mapping, error){
		func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) },
		func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, j.opt.Machine.CoresPerNode) },
		func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, rects) },
		func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) },
	} {
		if mp, err := build(); err == nil {
			mps = append(mps, mp)
		}
	}
	t3 := time.Now()
	for _, mp := range mps {
		if _, err := mapping.Analyze(mp, rects); err != nil {
			return st, err
		}
	}
	t4 := time.Now()
	tr := telemetry.New(telemetry.Config{})
	opt := j.opt
	opt.Predictor = pred
	opt.Tracer = tr
	if _, err := driver.Run(j.cfg, opt); err != nil {
		return st, err
	}
	t5 := time.Now()
	st.predict = t1.Sub(t0).Seconds()
	st.alloc = t2.Sub(t1).Seconds()
	st.build = t3.Sub(t2).Seconds()
	st.analyze = t4.Sub(t3).Seconds()
	st.total = t5.Sub(t0).Seconds()
	self := selfTimes(tr.Dump().Spans)
	for _, s := range tr.Dump().Spans {
		switch s.Layer {
		case telemetry.LayerDriver:
			st.run += s.End - s.Start
			st.runSelf += self[s.ID]
		case telemetry.LayerPhase:
			st.phase += s.End - s.Start
			st.phaseCalls++
		}
	}
	return st, nil
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []telemetry.Span) map[telemetry.SpanID]float64 {
	kids := map[telemetry.SpanID][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[telemetry.SpanID]float64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := 0.0, s.Start
		for _, c := range iv {
			lo, hi := math.Max(c[0], cur), math.Min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// churnLedger alternates untraced BuildPlan calls and traced stage-by-
// stage plans on fresh keys of two disjoint streams, single-threaded,
// so both see the same phase-memo warmth. trace.coverage compares the
// traced stage sum with the untraced plan time.
func churnLedger(l *ledger) error {
	const w = "plan-churn"
	_, exclude := canarySet()
	untracedGen := newChurnGen(l.e.seed, 1, exclude)
	tracedGen := newChurnGen(l.e.seed^0x7ace, 4, untracedGen.seen)
	for _, m := range churnMachines {
		if _, err := driver.CachedPredictor(m); err != nil {
			return err
		}
	}
	var untraced []float64
	var st []stageTimes
	start := time.Now()
	for time.Since(start) < l.e.seconds || len(st) < 20 {
		a := untracedGen.next()
		b := tracedGen.next()
		l.attempted += 2
		t := time.Now()
		if _, err := driver.BuildPlan(a.cfg, a.opt); err != nil {
			l.failed++
		} else {
			untraced = append(untraced, since(t))
		}
		s, err := tracedPlan(b)
		if err != nil {
			l.failed++
			continue
		}
		st = append(st, s)
	}
	col := func(f func(stageTimes) float64) []float64 {
		v := make([]float64, len(st))
		for i, s := range st {
			v[i] = f(s)
		}
		return v
	}
	ms := func(f func(stageTimes) float64) float64 { return mean(col(f)) * 1e3 }
	l.add(w, "predict.weights_ms", ms(func(s stageTimes) float64 { return s.predict }), "ms")
	l.add(w, "alloc.partition_ms", ms(func(s stageTimes) float64 { return s.alloc }), "ms")
	l.add(w, "mapping.build_ms", ms(func(s stageTimes) float64 { return s.build }), "ms")
	l.add(w, "mapping.analyze_ms", ms(func(s stageTimes) float64 { return s.analyze }), "ms")
	l.add(w, "driver.run_ms", ms(func(s stageTimes) float64 { return s.run }), "ms")
	l.add(w, "driver.self_ms", ms(func(s stageTimes) float64 { return s.runSelf }), "ms")
	l.add(w, "model.phase_ms", ms(func(s stageTimes) float64 { return s.phase }), "ms")
	l.add(w, "model.phase_calls", mean(col(func(s stageTimes) float64 { return float64(s.phaseCalls) })), "count")
	stages := mean(col(func(s stageTimes) float64 { return s.predict + s.alloc + s.build + s.analyze + s.run }))
	l.add(w, "trace.coverage", stages/mean(untraced), "ratio")
	tp50, up50 := median(col(func(s stageTimes) float64 { return s.total })), median(untraced)
	l.add(w, "trace.p50_ms", tp50*1e3, "ms")
	l.add(w, "trace.untraced_p50_ms", up50*1e3, "ms")
	l.add(w, "trace.overhead", tp50/up50, "ratio")

	// Share of a cold plan, over the traced stage sum.
	fmt.Fprintf(l.e.out, "# share of a cold plan (%d traced plans, mean %.3f ms)\n", len(st), stages*1e3)
	for _, p := range []struct {
		name string
		f    func(stageTimes) float64
	}{
		{"predict", func(s stageTimes) float64 { return s.predict }},
		{"alloc", func(s stageTimes) float64 { return s.alloc }},
		{"mapping.build", func(s stageTimes) float64 { return s.build }},
		{"mapping.analyze", func(s stageTimes) float64 { return s.analyze }},
		{"driver (self)", func(s stageTimes) float64 { return s.runSelf }},
		{"model (phase)", func(s stageTimes) float64 { return s.phase }},
	} {
		fmt.Fprintf(l.e.out, "#   %-16s %6.1f%%\n", p.name, 100*mean(col(p.f))/stages)
	}
	return nil
}

// serveLedger replays a section of serve-zipf traffic against a server
// that records spans, then reads its stats, metrics and span dump.
func serveLedger(l *ledger) error {
	const w = "serve-zipf"
	client := newServeClient()
	defer client.CloseIdleConnections()
	spans := filepath.Join(l.e.tmp, "spans.json")
	bodies, sched, s, err := serveSetup(l.e, client, "-spans-out", spans)
	if err != nil {
		return err
	}
	res, _ := drive(client, s.base, bodies, sched)
	var stats struct {
		Hits, Misses, Evictions, Joins uint64
		Batches                        uint64 `json:"batches"`
		BatchedPlans                   uint64 `json:"batched_plans"`
	}
	statsErr := getJSON(client, s.base+"/v1/stats", &stats)
	serverMean, metricsErr := serverMeanSeconds(client, s.base+"/metrics")
	if err := s.stop(); err != nil {
		return err
	}
	if statsErr != nil {
		return statsErr
	}
	if metricsErr != nil {
		return metricsErr
	}
	l.fail(checkServeBodies(sched, res))
	var hitLat, missLat, late []float64
	for _, r := range res {
		l.attempted++
		if !r.ok {
			l.failed++
			continue
		}
		late = append(late, r.late)
		if r.hit {
			hitLat = append(hitLat, r.lat)
		} else {
			missLat = append(missLat, r.lat)
		}
	}
	f, err := os.Open(spans)
	if err != nil {
		return err
	}
	dump, err := telemetry.DecodeDump(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	self := selfTimes(dump.Spans)
	var serveSelf, cacheSelf []float64
	for _, sp := range dump.Spans {
		switch sp.Layer {
		case telemetry.LayerServe:
			serveSelf = append(serveSelf, self[sp.ID])
		case telemetry.LayerCache:
			cacheSelf = append(cacheSelf, self[sp.ID])
		}
	}
	if dump.Dropped > 0 {
		fmt.Fprintf(l.e.out, "# serve-zipf: span dump dropped %d spans; self times cover the kept prefix\n", dump.Dropped)
	}
	l.add(w, "planserve.hit_ratio", float64(stats.Hits)/float64(stats.Hits+stats.Misses), "ratio")
	l.add(w, "planserve.evictions", float64(stats.Evictions), "count")
	l.add(w, "planserve.joins", float64(stats.Joins), "count")
	l.add(w, "planserve.plans_per_batch", float64(stats.BatchedPlans)/math.Max(1, float64(stats.Batches)), "count")
	l.add(w, "planserve.hit_p50_ms", median(hitLat)*1e3, "ms")
	l.add(w, "planserve.miss_p50_ms", median(missLat)*1e3, "ms")
	l.add(w, "planserve.miss_p99_ms", quantile(missLat, 0.99)*1e3, "ms")
	l.add(w, "planserve.server_mean_ms", serverMean*1e3, "ms")
	l.add(w, "planserve.self_ms", mean(serveSelf)*1e3, "ms")
	l.add(w, "cache.self_ms", mean(cacheSelf)*1e3, "ms")
	l.add(w, "loadgen.late_p99_ms", quantile(late, 0.99)*1e3, "ms")
	return nil
}

// serverMeanSeconds reads the server-side mean request duration from
// the planserve_request_seconds histogram on /metrics.
func serverMeanSeconds(client *http.Client, url string) (float64, error) {
	r, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	var sum, count float64
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		name, rest, _ := strings.Cut(line, "{")
		_, val, _ := strings.Cut(rest, "} ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "planserve_request_seconds_sum":
			sum += v
		case "planserve_request_seconds_count":
			count += v
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, fmt.Errorf("%s: no planserve_request_seconds samples", url)
	}
	return sum / count, nil
}

// functionalLedger repeats the functional-2048 run, splitting its wall
// time by phase from Output.Phases, and probes the mpi world set-up
// and the serial solver kernel on their own.
func functionalLedger(l *ledger) error {
	const w = "functional-2048"
	cfg := functionalConfig()
	phase := map[string]float64{}
	var msgs, bytes, hitRate float64
	runs := 0
	start := time.Now()
	for time.Since(start) < l.e.seconds || runs < 3 {
		l.attempted++
		out, err := wrfsim.Run(cfg, functionalOptions())
		if err != nil {
			l.failed++
			continue
		}
		l.fail(checkFunctional(out.MaxClock, out.AvgWait, fieldChecksum(out)))
		runs++
		for _, ph := range out.Phases {
			name := ph.Name
			if strings.HasPrefix(name, "nest:") {
				name = "nest"
			}
			phase[name] += ph.Sum.Wall
			msgs += float64(ph.Sum.SendCount)
			bytes += float64(ph.Sum.SendBytes)
		}
		hitRate += out.Pools.HitRate()
	}
	n := float64(runs)
	var total float64
	for _, v := range phase {
		total += v
	}
	// The collect phase is left out: its wall time is never accrued
	// (the mpi accounting closes a phase's wall clock at the next
	// BeginPhase, and collect is the last one), so it reads 0.
	for _, p := range []string{"init", "parent", "nest", "coupling"} {
		l.add(w, "wrfsim."+p+"_s", phase[p]/n, "s")
	}
	l.add(w, "mpi.msgs", msgs/n, "count")
	l.add(w, "mpi.bytes", bytes/n, "bytes")
	l.add(w, "mpi.pool_hit_rate", hitRate/n, "ratio")

	var setup []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := mpi.Run(2048, mpi.AlphaBeta{Alpha: 5e-5, Beta: 1e-9}, func(*mpi.Proc) error { return nil }); err != nil {
			return err
		}
		setup = append(setup, since(t))
	}
	l.add(w, "mpi.world_setup_ms", median(setup)*1e3, "ms")

	const steps = 20
	var perCell []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		init := solver.GaussianHill(cfg.NX, cfg.NY, float64(cfg.NX)/2, float64(cfg.NY)/2, 0.4, float64(cfg.NX)/8)
		if _, err := solver.RunSerial(cfg.NX, cfg.NY, steps, solver.DefaultParams(), init); err != nil {
			return err
		}
		perCell = append(perCell, since(t)/float64(cfg.NX*cfg.NY*steps))
	}
	l.add(w, "solver.ns_per_cell_step", median(perCell)*1e9, "ns")

	fmt.Fprintf(l.e.out, "# share of a functional step (%d runs, wall summed over 2048 ranks, mean %.3f s)\n", runs, total/n)
	for _, p := range []string{"init", "parent", "nest", "coupling"} {
		fmt.Fprintf(l.e.out, "#   %-16s %6.1f%%\n", p, 100*phase[p]/total)
	}
	return nil
}

// paperLedger times every experiment in registry order in one fresh
// child process.
func paperLedger(l *ledger) error {
	const w = "paper-eval"
	out, _, _, err := childRun(l.e.root, l.e.self, "-child", "experiments-ledger")
	l.attempted++
	if err != nil {
		l.failed++
		return err
	}
	var rep ledgerReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return err
	}
	for i, id := range rep.IDs {
		l.add(w, "experiments."+id+"_s", rep.Seconds[i], "s")
	}
	l.add(w, "driver.train_calls", float64(rep.TrainCalls), "count")
	return nil
}
