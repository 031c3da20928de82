package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"nestwrf/internal/driver"
	"nestwrf/internal/experiments"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/wrfsim"
)

func streamKeys(seed uint64, n int) []string {
	g := newChurnGen(seed, 1, nil)
	keys := make([]string, n)
	for i := range keys {
		j := g.next()
		keys[i] = jobKey(j.cfg, j.opt)
	}
	return keys
}

func TestChurnStreamDeterministicAndDistinct(t *testing.T) {
	a, b := streamKeys(7, 2000), streamKeys(7, 2000)
	seen := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 job %d differs between two generators", i)
		}
		if seen[a[i]] {
			t.Fatalf("job %d repeats an earlier configuration", i)
		}
		seen[a[i]] = true
	}
	if c := streamKeys(8, 1); c[0] == a[0] {
		t.Error("seeds 7 and 8 start with the same job")
	}
	// Excluded keys are never dealt, even by the canary's own stream.
	_, canary := canarySet()
	g := newChurnGen(canarySeed, 0, canary)
	for i := 0; i < 100; i++ {
		if j := g.next(); canary[jobKey(j.cfg, j.opt)] {
			t.Fatalf("stream job %d is a canary job", i)
		}
	}
}

// The deck keeps every factor balanced in every full round: the first
// 36 jobs hold each rank count exactly 4 times, whatever the seed.
func TestChurnMixBalanced(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := newChurnGen(seed, 1, nil)
		count := map[int]int{}
		for i := 0; i < 4*len(churnRanks); i++ {
			count[g.next().opt.Ranks]++
		}
		for _, r := range churnRanks {
			if count[r] != 4 {
				t.Errorf("seed %d: %d ranks drawn %d times in 36 jobs, want 4", seed, r, count[r])
			}
		}
	}
}

func TestChurnJobsPlan(t *testing.T) {
	g := newChurnGen(3, 1, nil)
	for i := 0; i < 40; i++ {
		j := g.next()
		p, err := driver.BuildPlan(j.cfg, j.opt)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, jobKey(j.cfg, j.opt), err)
		}
		if err := checkPlan(j, p); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// flip returns a copy of b with one byte changed.
func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 1
	return c
}

func TestCheckPlanHash(t *testing.T) {
	jobs, _ := canarySet()
	plans := make([][]byte, len(jobs))
	for i, j := range jobs {
		p, err := driver.BuildPlan(j.cfg, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = json.Marshal(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkPlanHash(plans, canaryPlanHash); err != nil {
		t.Fatalf("canary plans differ from the recorded hash: %v", err)
	}
	plans[5] = flip(plans[5], len(plans[5])/2)
	if checkPlanHash(plans, canaryPlanHash) == nil {
		t.Fatal("check passed a plan with one byte changed")
	}
}

func TestServeInputsDeterministic(t *testing.T) {
	digest := func(seed uint64) [32]byte {
		h := sha256.New()
		for _, b := range serveBodies(seed) {
			h.Write(b)
		}
		for _, q := range serveSchedule(seed, 3*time.Second) {
			fmt.Fprintf(h, "%d %d %v\n", q.due, q.key, q.compare)
		}
		var d [32]byte
		copy(d[:], h.Sum(nil))
		return d
	}
	if digest(5) != digest(5) {
		t.Fatal("seed 5 gave two different request streams")
	}
	if digest(5) == digest(6) {
		t.Fatal("seeds 5 and 6 gave the same request stream")
	}
	sched := serveSchedule(5, 10*time.Second)
	if n := float64(len(sched)); math.Abs(n-10*serveRate) > 5*math.Sqrt(10*serveRate) {
		t.Errorf("%v arrivals in 10 s at %v/s", n, serveRate)
	}
	var cmp int
	for _, q := range sched {
		if q.compare {
			cmp++
		}
	}
	if share := float64(cmp) / float64(len(sched)); math.Abs(share-serveCompare) > 0.03 {
		t.Errorf("compare share %.3f, want about %.2f", share, serveCompare)
	}
}

func TestCheckServeBodies(t *testing.T) {
	sched := []serveReq{{key: 1}, {key: 1}, {key: 2, compare: true}, {key: 2, compare: true}}
	miss, other := []byte(`{"plan":1}`), []byte(`{"cmp":2}`)
	res := []serveResult{
		{ok: true, sum: sha256.Sum256(miss)},
		{ok: true, hit: true, sum: sha256.Sum256(miss)},
		{ok: true, sum: sha256.Sum256(other)},
		{ok: true, hit: true, sum: sha256.Sum256(other)},
	}
	if err := checkServeBodies(sched, res); err != nil {
		t.Fatalf("identical bodies rejected: %v", err)
	}
	res[1].sum = sha256.Sum256(flip(miss, 3))
	if checkServeBodies(sched, res) == nil {
		t.Fatal("check passed a hit body with one byte changed")
	}
	res[1].ok = false // a failed request carries no body to compare
	if err := checkServeBodies(sched, res); err != nil {
		t.Fatalf("failed request compared: %v", err)
	}
}

func TestCheckFunctional(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-rank functional run")
	}
	out, err := wrfsim.Run(functionalConfig(), functionalOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := fieldChecksum(out)
	if err := checkFunctional(out.MaxClock, out.AvgWait, sum); err != nil {
		t.Fatalf("functional run differs from the recorded values: %v", err)
	}
	if checkFunctional(math.Nextafter(out.MaxClock, 1), out.AvgWait, sum) == nil {
		t.Error("check passed a MaxClock one ulp off")
	}
	if checkFunctional(out.MaxClock, math.Nextafter(out.AvgWait, 0), sum) == nil {
		t.Error("check passed an AvgWait one ulp off")
	}
	b := math.Float64bits(out.Nests[2].HU[100]) ^ 1
	out.Nests[2].HU[100] = math.Float64frombits(b)
	if checkFunctional(out.MaxClock, out.AvgWait, fieldChecksum(out)) == nil {
		t.Error("check passed a field with one bit changed")
	}
}

func TestCheckPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	doc, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want, err := paperTail(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Render the evaluation the way cmd/experiments -all -md prints it.
	var got bytes.Buffer
	for _, o := range experiments.RunAll(2) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Experiment.ID, o.Err)
		}
		got.WriteString(o.Table.Markdown() + "\n")
	}
	if err := checkPaper(got.Bytes(), want); err != nil {
		t.Fatalf("evaluation output differs from EXPERIMENTS.md: %v", err)
	}
	b := got.Bytes()
	if checkPaper(flip(b, len(b)-10), want) == nil {
		t.Fatal("check passed an evaluation output with one byte changed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []telemetry.Span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6}, // overlaps span 2
		{ID: 4, Parent: 3, Start: 3, End: 5},
	}
	self := selfTimes(spans)
	for id, want := range map[telemetry.SpanID]float64{1: 5, 2: 3, 3: 1, 4: 2} {
		if self[id] != want {
			t.Errorf("span %d self %v, want %v", id, self[id], want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 5, 1: 5} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if v[0] != 5 {
		t.Error("quantile reordered its input")
	}
}
