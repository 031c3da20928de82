package main

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nestwrf/internal/experiments"
)

// capture runs fn with stdout and stderr redirected and returns what it
// printed to each.
func capture(t *testing.T, fn func()) (stdout, stderr string) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	re, we, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = wo, we
	// Drain both pipes while fn runs so output larger than a pipe
	// buffer cannot block it.
	var bo, be bytes.Buffer
	var drained sync.WaitGroup
	drained.Add(2)
	go func() { defer drained.Done(); bo.ReadFrom(ro) }()
	go func() { defer drained.Done(); be.ReadFrom(re) }()
	fn()
	wo.Close()
	we.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	drained.Wait()
	return bo.String(), be.String()
}

// runIDs executes the named registered experiments sequentially.
func runIDs(t *testing.T, ids ...string) []experiments.Outcome {
	t.Helper()
	exps, err := selectExperiments(strings.Join(ids, ","))
	if err != nil {
		t.Fatal(err)
	}
	return experiments.RunConcurrent(exps, 1)
}

func TestEmitText(t *testing.T) {
	out, _ := capture(t, func() {
		if code := emitAll(runIDs(t, "fig3"), false); code != 0 {
			t.Errorf("exit code = %d", code)
		}
	})
	if !strings.Contains(out, "== fig3:") {
		t.Errorf("text output missing header:\n%s", out)
	}
}

func TestEmitMarkdown(t *testing.T) {
	out, _ := capture(t, func() {
		if code := emitAll(runIDs(t, "fig4"), true); code != 0 {
			t.Errorf("exit code = %d", code)
		}
	})
	if !strings.Contains(out, "### fig4:") {
		t.Errorf("markdown output missing header:\n%s", out)
	}
}

func TestSelectExperimentsList(t *testing.T) {
	exps, err := selectExperiments("fig4, fig3,fig56")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(exps))
	for i, e := range exps {
		got[i] = e.ID
	}
	want := []string{"fig4", "fig3", "fig56"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selected %v, want %v (order preserved)", got, want)
		}
	}
}

func TestSelectExperimentsUnknown(t *testing.T) {
	if _, err := selectExperiments("fig3,nope"); err == nil {
		t.Error("unknown id should fail")
	}
	if _, err := selectExperiments(",,"); err == nil {
		t.Error("empty list should fail")
	}
}

// emitAll must keep going past a failing experiment, print the
// surviving tables, summarize the failures, and return non-zero.
func TestEmitAllContinuesPastFailure(t *testing.T) {
	broken := experiments.Experiment{
		ID:    "broken",
		Title: "always fails",
		Run: func() (*experiments.Table, error) {
			return nil, os.ErrInvalid
		},
	}
	fig3, ok := experiments.ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	outcomes := experiments.RunConcurrent([]experiments.Experiment{broken, fig3}, 1)
	out, errOut := capture(t, func() {
		if code := emitAll(outcomes, false); code != 1 {
			t.Errorf("exit code = %d, want 1", code)
		}
	})
	if !strings.Contains(out, "== fig3:") {
		t.Errorf("fig3 should still be printed after the failure:\n%s", out)
	}
	if !strings.Contains(errOut, "broken") || !strings.Contains(errOut, "1 of 2 experiments failed") {
		t.Errorf("failure summary missing:\n%s", errOut)
	}
}

// TestAllMarkdownMatchesExperimentsDoc is the golden for the whole
// evaluation: `-all -md` output from the fig2 section on must equal
// EXPERIMENTS.md from there on, byte for byte. Every modeled timing
// (phase costs, link contention, predictor fits, mapping hop metrics)
// feeds some table, so any drift in the cost model shows up here.
func TestAllMarkdownMatchesExperimentsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is slow; skipped with -short")
	}
	const marker = "### fig2:"
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(doc), marker)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", marker)
	}
	want := string(doc[i:])

	out, errOut := capture(t, func() {
		if code := realMain(false, "", true, true, runtime.GOMAXPROCS(0), "", ""); code != 0 {
			t.Errorf("exit code = %d", code)
		}
	})
	if errOut != "" {
		t.Errorf("unexpected stderr:\n%s", errOut)
	}
	j := strings.Index(out, marker)
	if j < 0 {
		t.Fatalf("-all -md output has no %q section", marker)
	}
	got := out[j:]
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for k := 0; k < len(gotLines) && k < len(wantLines); k++ {
		if gotLines[k] != wantLines[k] {
			t.Fatalf("output diverges from EXPERIMENTS.md at line %d of the %s section:\n got: %q\nwant: %q",
				k+1, marker, gotLines[k], wantLines[k])
		}
	}
	t.Fatalf("output has %d lines from %s on, EXPERIMENTS.md has %d", len(gotLines), marker, len(wantLines))
}
