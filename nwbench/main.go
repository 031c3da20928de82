// Command nwbench is the repository benchmark. It runs one named
// workload against the planning pipeline (predict -> allocate -> map),
// the plan service, the functional mini-WRF or the evaluation harness,
// checks the workload's outputs, prints a human-readable report with
// host metadata, and ends with one JSON result line.
//
// Run it through run.sh from the repository root, which builds this
// binary and the CLIs it drives first:
//
//	bash nwbench/run.sh --workload plan-churn --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of the named
// workload. With --trace 1 it holds the per-layer ledger: every layer
// metric, each measured on the workload it belongs to (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final, machine-readable stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs to know about its run.
type env struct {
	root    string        // repository checkout (the working directory)
	bin     string        // directory holding the built planserve and experiments
	self    string        // this binary, for child processes
	tmp     string        // scratch directory inside the checkout
	seed    uint64        // workload seed
	seconds time.Duration // measurement window
	out     io.Writer     // human-readable report
}

// outcome is what an untraced workload run measured.
type outcome struct {
	attempted, failed int64
	checkErr          error     // first failed output check, nil when correct
	lat               []float64 // per-op latency, seconds
	wall              float64   // measured window, seconds
	setups            []float64 // repeated set-up times, seconds
	rssMB             float64   // peak resident memory of the process under test
	extra             []namedValue
}

// namedValue is a report-only figure (printed, not in the JSON line).
type namedValue struct {
	name  string
	value float64
	unit  string
}

// workload is one benchmark input set; README.md says why each exists.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"plan-churn", runChurn},
	{"serve-zipf", runServe},
	{"functional-2048", runFunctional},
	{"paper-eval", runPaper},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: plan-churn, serve-zipf, functional-2048 or paper-eval")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measurement window in seconds")
	traced := fs.Int("trace", 0, "1 runs the per-layer ledger instead of the end-to-end measurement")
	root := fs.String("root", ".", "repository checkout")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the built planserve and experiments binaries")
	child := fs.String("child", "", "internal: run a child-process role (experiments-ledger)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child == "experiments-ledger" {
		return experimentsLedgerChild(stdout, stderr)
	}
	e, err := newEnv(*root, *bin, *seed, *seconds, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "nwbench: %v\n", err)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "nwbench: unknown workload %q\n", *name)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "nwbench: -trace must be 0 or 1\n")
		return 2
	}

	printHost(e, w, *traced == 1)
	var res *result
	if *traced == 1 {
		res, err = runLedger(e, w.name)
	} else {
		res, err = measure(e, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "nwbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "nwbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func newEnv(root, bin string, seed uint64, seconds int, out io.Writer) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"go.mod", "EXPERIMENTS.md", "internal/driver", "cmd/planserve"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, fmt.Errorf("%s is not the repository root: %v", root, err)
		}
	}
	if seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if !filepath.IsAbs(bin) {
		bin = filepath.Join(root, bin)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, self: self, tmp: tmp, seed: seed,
		seconds: time.Duration(seconds) * time.Second, out: out}, nil
}

// measure runs one workload untraced and derives its end-to-end
// metrics. Every workload reports every metric; what one op is differs
// per workload (README.md).
func measure(e *env, w *workload) (*result, error) {
	defer os.RemoveAll(e.tmp)
	o, err := w.run(e)
	if err != nil {
		return nil, err
	}
	done := int64(len(o.lat))
	if done == 0 || o.attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	p50, p90, p99 := quantile(o.lat, 0.50), quantile(o.lat, 0.90), quantile(o.lat, 0.99)
	m := map[string]metric{
		"setup_s":     {median(o.setups), "s"},
		"peak_rss_mb": {o.rssMB, "MB"},
		"ok_ratio":    {float64(o.attempted-o.failed) / float64(o.attempted), "ratio"},
		"p50_ms":      {p50 * 1e3, "ms"},
		"ops_per_s":   {float64(done) / o.wall, "1/s"},
	}
	fmt.Fprintf(e.out, "# %s: state=%s ops=%d attempted=%d failed=%d fail_ratio=%g window=%.3fs setups=%s\n",
		w.name, workloadState[w.name], done, o.attempted, o.failed, float64(o.failed)/float64(o.attempted), o.wall, fmtSeconds(o.setups))
	fmt.Fprintf(e.out, "# %s: %d samples; nearest-rank p90 has %d beyond it, p99 %d\n",
		w.name, done, int(math.Floor(float64(done)*0.10)), int(math.Floor(float64(done)*0.01)))
	fmt.Fprintf(e.out, "# %s: latency ms min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g\n", w.name,
		quantile(o.lat, 0)*1e3, quantile(o.lat, 0.25)*1e3, p50*1e3, quantile(o.lat, 0.75)*1e3, quantile(o.lat, 1)*1e3)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(e.out, "# %-16s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	o.extra = append(o.extra, namedValue{"p90_ms", p90 * 1e3, "ms"}, namedValue{"p99_ms", p99 * 1e3, "ms"})
	for _, x := range o.extra {
		fmt.Fprintf(e.out, "# %-16s %14.6g %s (report only)\n", x.name, x.value, x.unit)
	}
	correct := o.checkErr == nil
	if !correct {
		fmt.Fprintf(e.out, "# %s: OUTPUT CHECK FAILED: %v\n", w.name, o.checkErr)
	}
	return &result{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

func fmtSeconds(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// setupReps is how many times each workload sets up per run; setup_s
// is the median.
const setupReps = 7
