// Command benchsnap runs the repository benchmarks and writes a JSON
// snapshot of ns/op, B/op and allocs/op per benchmark. Snapshots are
// committed alongside performance PRs (BENCH_<pr>.json) so regressions
// are visible in review without re-running the suite.
//
// Usage:
//
//	go run ./cmd/benchsnap -bench 'PerIteration85|Table1Wait|AllExperimentsSequential' -o BENCH_4.json
//
// With -compare it re-runs the suite and diffs against a committed
// snapshot, printing per-benchmark deltas and exiting non-zero when
// any benchmark's ns/op or allocs/op regressed by more than -threshold
// percent (default 15):
//
//	go run ./cmd/benchsnap -bench 'PerIteration85$' -compare BENCH_4.json
//
// -pkg takes a space-separated package list (default "."), so a
// snapshot can mix end-to-end and per-layer benchmarks:
//
//	go run ./cmd/benchsnap -pkg '. ./internal/mapping' -bench 'ColdPlan$|Analyze1024$'
//
// By default it runs each benchmark for a single iteration
// (-benchtime 1x), which is what the committed snapshots use: the
// experiment benchmarks are long enough that one iteration is a stable
// signal, and the snapshot is about orders of magnitude, not
// nanosecond precision.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds any further unit -> value columns: custom metrics
	// reported with b.ReportMetric (e.g. sim-ms, qps) and throughput
	// (MB/s).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the file format: benchmark name -> result, plus the
// settings used to take it.
type Snapshot struct {
	BenchTime string            `json:"benchtime"`
	Pattern   string            `json:"pattern"`
	GoVersion string            `json:"go_version"`
	Results   map[string]Result `json:"results"`
}

func main() {
	var (
		bench     = flag.String("bench", ".", "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "1x", "value passed to go test -benchtime")
		pkg       = flag.String("pkg", ".", "space-separated packages to benchmark")
		out       = flag.String("o", "", "output JSON file (default stdout)")
		compare   = flag.String("compare", "", "baseline snapshot JSON; report deltas and exit 1 on regressions")
		threshold = flag.Float64("threshold", 15, "regression threshold in percent for -compare")
	)
	flag.Parse()

	raw, err := runBench(*pkg, *bench, *benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	snap, err := parse(raw, *bench, *benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" && *compare == "" {
		os.Stdout.Write(data)
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsnap: wrote %d results to %s\n", len(snap.Results), *out)
	}
	if *compare != "" {
		old, err := loadSnapshot(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		rows, regressions := compareSnapshots(old, snap, *threshold)
		for _, row := range rows {
			fmt.Println(row)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchsnap: %d regression(s) beyond %.0f%% vs %s\n",
				regressions, *threshold, *compare)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsnap: no regressions beyond %.0f%% vs %s\n", *threshold, *compare)
	}
}

// loadSnapshot reads a committed benchmark snapshot.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSnapshots diffs cur against old, one row per benchmark, and
// counts regressions: benchmarks whose ns/op or allocs/op grew by more
// than threshold percent. Benchmarks present on only one side are
// reported but never counted — a renamed or new benchmark is not a
// regression. Single-iteration snapshots are noisy, so the threshold
// should stay coarse (the default 15% flags order-of-magnitude slips,
// not jitter).
func compareSnapshots(old, cur *Snapshot, threshold float64) (rows []string, regressions int) {
	names := make([]string, 0, len(cur.Results))
	for n := range cur.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	pct := func(was, now float64) float64 {
		if was == 0 {
			return 0
		}
		return 100 * (now - was) / was
	}
	for _, n := range names {
		now := cur.Results[n]
		was, ok := old.Results[n]
		if !ok {
			rows = append(rows, fmt.Sprintf("%-40s %12.0f ns/op  (new benchmark, no baseline)", n, now.NsPerOp))
			continue
		}
		dns := pct(was.NsPerOp, now.NsPerOp)
		dalloc := pct(float64(was.AllocsPerOp), float64(now.AllocsPerOp))
		mark := ""
		if dns > threshold || dalloc > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		rows = append(rows, fmt.Sprintf("%-40s %12.0f -> %12.0f ns/op (%+6.1f%%)  %6d -> %6d allocs/op (%+6.1f%%)%s",
			n, was.NsPerOp, now.NsPerOp, dns, was.AllocsPerOp, now.AllocsPerOp, dalloc, mark))
	}
	for n := range old.Results {
		if _, ok := cur.Results[n]; !ok {
			rows = append(rows, fmt.Sprintf("%-40s (baseline only; not run)", n))
		}
	}
	return rows, regressions
}

// runBench shells out to go test with run disabled so only benchmarks
// execute, and returns the combined output. pkgs is a space-separated
// package list, so one snapshot can hold the end-to-end benchmarks of
// the root package and the per-layer ones of internal packages.
func runBench(pkgs, bench, benchtime string) ([]byte, error) {
	args := append([]string{"test", "-run", "^$",
		"-bench", bench, "-benchtime", benchtime, "-benchmem"}, strings.Fields(pkgs)...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return buf.Bytes(), fmt.Errorf("go test -bench: %w", err)
	}
	return buf.Bytes(), nil
}

// isNumber reports whether a token is a plain numeric value (the value
// half of a benchmark measurement column).
func isNumber(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// parseLine parses one `go test -bench` output line of the form
//
//	BenchmarkName-8   1   166000000 ns/op   4.2 sim-ms   12345 B/op   67 allocs/op
//
// into its benchmark name (GOMAXPROCS suffix stripped) and Result, or
// ok=false for any non-benchmark line. Measurement columns are matched
// by unit name, never by position: the known units fill the typed
// fields wherever they appear, unknown units (custom b.ReportMetric
// columns, MB/s) land in Metrics, and a stray token that is not part
// of a value/unit pair resynchronizes the scan instead of shifting
// every later column onto the wrong field. This keeps lines with
// custom metrics but no -benchmem columns — and vice versa — correct.
func parseLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	name := fields[0]
	// Strip the -N GOMAXPROCS suffix go test appends to the name.
	if i := strings.LastIndexByte(name, '-'); i > 0 && isNumber(name[i+1:]) {
		name = name[:i]
	}
	r := Result{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); {
		value, unit := fields[i], fields[i+1]
		if !isNumber(value) || isNumber(unit) {
			// Not a value/unit pair at this position; resynchronize on
			// the next token rather than misattributing what follows.
			i++
			continue
		}
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(value, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(value, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(value, 10, 64)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit], _ = strconv.ParseFloat(value, 64)
		}
		seen = true
		i += 2
	}
	if !seen {
		return "", Result{}, false
	}
	return name, r, true
}

// parse extracts benchmark lines from go test output into a Snapshot.
func parse(raw []byte, pattern, benchtime string) (*Snapshot, error) {
	snap := &Snapshot{
		BenchTime: benchtime,
		Pattern:   pattern,
		GoVersion: runtime.Version(),
		Results:   map[string]Result{},
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			snap.Results[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in go test output")
	}
	// Echo a sorted summary so a terminal run reads like benchstat.
	names := make([]string, 0, len(snap.Results))
	for n := range snap.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := snap.Results[n]
		fmt.Fprintf(os.Stderr, "%-40s %12.0f ns/op %12d B/op %10d allocs/op\n",
			n, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return snap, nil
}
