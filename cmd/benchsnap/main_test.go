package main

import (
	"reflect"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		in   string
		name string
		want Result
		ok   bool
	}{
		{
			// Classic -benchmem line.
			in:   "BenchmarkPerIteration85-8   \t       1\t 166000000 ns/op\t   12345 B/op\t     678 allocs/op",
			name: "BenchmarkPerIteration85",
			want: Result{Iterations: 1, NsPerOp: 166000000, BytesPerOp: 12345, AllocsPerOp: 678},
			ok:   true,
		},
		{
			// Custom metric between ns/op and the -benchmem columns (the
			// wrfsim functional benchmarks report sim-ms).
			in:   "BenchmarkFunctional/concurrent-8         \t       1\t   2700000 ns/op\t         15.30 sim-ms\t 4640000 B/op\t    4640 allocs/op",
			name: "BenchmarkFunctional/concurrent",
			want: Result{Iterations: 1, NsPerOp: 2700000, BytesPerOp: 4640000, AllocsPerOp: 4640,
				Metrics: map[string]float64{"sim-ms": 15.30}},
			ok: true,
		},
		{
			// Custom metrics without -benchmem: every column must still
			// land on the right field.
			in:   "BenchmarkPlanServerCacheHot-16   \t   10000\t     45120 ns/op\t     22163 qps",
			name: "BenchmarkPlanServerCacheHot",
			want: Result{Iterations: 10000, NsPerOp: 45120,
				Metrics: map[string]float64{"qps": 22163}},
			ok: true,
		},
		{
			// -benchmem with a zero-allocation benchmark.
			in:   "BenchmarkTileExchange-8  \t 1000000\t      1052 ns/op\t       0 B/op\t       0 allocs/op",
			name: "BenchmarkTileExchange",
			want: Result{Iterations: 1000000, NsPerOp: 1052},
			ok:   true,
		},
		{
			// Throughput column.
			in:   "BenchmarkEncode-4  \t    5000\t    250000 ns/op\t 400.00 MB/s\t    1024 B/op\t       2 allocs/op",
			name: "BenchmarkEncode",
			want: Result{Iterations: 5000, NsPerOp: 250000, BytesPerOp: 1024, AllocsPerOp: 2,
				Metrics: map[string]float64{"MB/s": 400}},
			ok: true,
		},
		{
			// Scientific-notation value.
			in:   "BenchmarkBig-8  \t       2\t 1.5e+09 ns/op",
			name: "BenchmarkBig",
			want: Result{Iterations: 2, NsPerOp: 1.5e9},
			ok:   true,
		},
		{
			// No GOMAXPROCS suffix (GOMAXPROCS=1 omits it).
			in:   "BenchmarkSolo  \t     100\t    9999 ns/op",
			name: "BenchmarkSolo",
			want: Result{Iterations: 100, NsPerOp: 9999},
			ok:   true,
		},
		// Non-benchmark lines from real go test output.
		{in: "goos: linux", ok: false},
		{in: "goarch: amd64", ok: false},
		{in: "pkg: nestwrf", ok: false},
		{in: "cpu: Intel(R) Xeon(R) CPU", ok: false},
		{in: "PASS", ok: false},
		{in: "ok  \tnestwrf\t1.305s", ok: false},
		{in: "", ok: false},
		{in: "BenchmarkBroken-8", ok: false},                   // no columns at all
		{in: "BenchmarkNaN-8  \t  abc\t  12 ns/op", ok: false}, // bad iteration count
	}
	for _, c := range cases {
		name, got, ok := parseLine(c.in)
		if ok != c.ok {
			t.Errorf("parseLine(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if name != c.name {
			t.Errorf("parseLine(%q) name = %q, want %q", c.in, name, c.name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseLine(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseFullOutput(t *testing.T) {
	raw := []byte(`goos: linux
goarch: amd64
pkg: nestwrf
cpu: Intel(R) Xeon(R) Platinum
BenchmarkPerIteration85-8   	       1	 190000000 ns/op	 5000000 B/op	   50000 allocs/op
BenchmarkFunctional/sequential-8 	       1	   3050000 ns/op	        16.10 sim-ms	  475000 B/op	    4750 allocs/op
BenchmarkPlanServerCacheHot-8    	   20000	     48000 ns/op	     20833 qps
PASS
ok  	nestwrf	1.305s
`)
	snap, err := parse(raw, ".", "1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(snap.Results), snap.Results)
	}
	r := snap.Results["BenchmarkFunctional/sequential"]
	if r.NsPerOp != 3050000 || r.AllocsPerOp != 4750 || r.Metrics["sim-ms"] != 16.10 {
		t.Errorf("functional line misparsed: %+v", r)
	}
	hot := snap.Results["BenchmarkPlanServerCacheHot"]
	if hot.NsPerOp != 48000 || hot.BytesPerOp != 0 || hot.AllocsPerOp != 0 || hot.Metrics["qps"] != 20833 {
		t.Errorf("cache-hot line misparsed: %+v", hot)
	}
}

func TestParseNoResults(t *testing.T) {
	if _, err := parse([]byte("PASS\nok \tnestwrf\t0.1s\n"), ".", "1x"); err == nil {
		t.Error("parse of benchmark-free output should error")
	}
}

// A benchmark missing from the baseline (a per-layer bench added to the
// default set after the snapshot was taken) or missing from the current
// run is reported but never counted as a regression; a slower one is.
func TestCompareSnapshotsMissingBenchmarks(t *testing.T) {
	old := &Snapshot{Results: map[string]Result{
		"BenchmarkTable1Wait": {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkRetired":    {NsPerOp: 5},
	}}
	cur := &Snapshot{Results: map[string]Result{
		"BenchmarkTable1Wait":  {NsPerOp: 105, AllocsPerOp: 10},
		"BenchmarkAnalyze1024": {NsPerOp: 40000, AllocsPerOp: 2},
	}}
	rows, regressions := compareSnapshots(old, cur, 15)
	if regressions != 0 {
		t.Errorf("regressions = %d, want 0: %v", regressions, rows)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v, want one per benchmark on either side", rows)
	}
	cur.Results["BenchmarkTable1Wait"] = Result{NsPerOp: 200, AllocsPerOp: 10}
	if _, regressions := compareSnapshots(old, cur, 15); regressions != 1 {
		t.Errorf("a 2x slowdown counted %d regressions, want 1", regressions)
	}
}
