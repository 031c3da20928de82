package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"nestwrf/internal/driver"
	"nestwrf/internal/experiments"
)

// paperMarker starts the part of the -md output that EXPERIMENTS.md
// records verbatim.
const paperMarker = "### fig2:"

// paperTail returns b from the paper marker on.
func paperTail(b []byte) ([]byte, error) {
	i := bytes.Index(b, []byte(paperMarker))
	if i < 0 {
		return nil, fmt.Errorf("no %q section", paperMarker)
	}
	return b[i:], nil
}

// checkPaper is the paper-eval output check: the evaluation's -md
// output from the fig2 section on equals EXPERIMENTS.md from there on.
func checkPaper(got, want []byte) error {
	g, err := paperTail(got)
	if err != nil {
		return fmt.Errorf("experiments output: %v", err)
	}
	if !bytes.Equal(g, want) {
		n := 0
		for n < len(g) && n < len(want) && g[n] == want[n] {
			n++
		}
		return fmt.Errorf("experiments output differs from EXPERIMENTS.md at byte %d of the %s section", n, paperMarker)
	}
	return nil
}

// childRun runs one child process to completion, returning its stdout,
// wall time and peak resident memory.
func childRun(dir string, name string, args ...string) (out []byte, wall, rssMB float64, err error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	err = cmd.Run()
	wall = since(t)
	if err != nil {
		return nil, wall, 0, fmt.Errorf("%s %v: %v: %s", filepath.Base(name), args, err, stderr.Bytes())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	return stdout.Bytes(), wall, rssMB, nil
}

// paperSetup reads the expected tables and starts the harness once to
// list its experiments, returning the expected bytes.
func paperSetup(e *env) ([]byte, error) {
	doc, err := os.ReadFile(filepath.Join(e.root, "EXPERIMENTS.md"))
	if err != nil {
		return nil, err
	}
	want, err := paperTail(doc)
	if err != nil {
		return nil, fmt.Errorf("EXPERIMENTS.md: %v", err)
	}
	list, _, _, err := childRun(e.root, filepath.Join(e.bin, "experiments"), "-list")
	if err != nil {
		return nil, err
	}
	if bytes.Count(list, []byte("\n")) < 2 {
		return nil, errors.New("experiments -list printed no experiments")
	}
	return want, nil
}

func runPaper(e *env) (*outcome, error) {
	o := &outcome{}
	var want []byte
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if want, err = paperSetup(e); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, since(t))
	}
	var rss []float64
	args := []string{"-all", "-md", "-parallel", strconv.Itoa(runtime.GOMAXPROCS(0))}
	start := time.Now()
	for time.Since(start) < e.seconds || len(o.lat) < 3 {
		o.attempted++
		out, wall, mb, err := childRun(e.root, filepath.Join(e.bin, "experiments"), args...)
		if err != nil {
			fmt.Fprintf(e.out, "# paper-eval: %v\n", err)
			o.failed++
			continue
		}
		o.lat = append(o.lat, wall)
		rss = append(rss, mb)
		if err := checkPaper(out, want); err != nil && o.checkErr == nil {
			o.checkErr = err
		}
	}
	o.wall = since(start)
	o.rssMB = median(rss)
	o.extra = []namedValue{{"eval_s", median(o.lat), "s"}}
	return o, nil
}

// ledgerReport is what the experiments-ledger child prints.
type ledgerReport struct {
	IDs        []string  `json:"ids"`
	Seconds    []float64 `json:"seconds"`
	TrainCalls int64     `json:"train_calls"`
}

// experimentsLedgerChild runs every registered experiment once, one at
// a time in registry order, in this fresh process, timing each.
func experimentsLedgerChild(stdout, stderr io.Writer) int {
	var rep ledgerReport
	for _, x := range experiments.All() {
		t := time.Now()
		if _, err := x.Run(); err != nil {
			fmt.Fprintf(stderr, "nwbench: experiment %s: %v\n", x.ID, err)
			return 1
		}
		rep.IDs = append(rep.IDs, x.ID)
		rep.Seconds = append(rep.Seconds, since(t))
	}
	rep.TrainCalls = driver.TrainCalls()
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "nwbench: %v\n", err)
		return 1
	}
	return 0
}
