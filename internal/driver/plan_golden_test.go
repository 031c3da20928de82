package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
)

// planGoldenPath pins BuildPlan's output on parallelOracleDomain: one
// line per strategy x alloc policy x map kind, "<sha256 of
// json.Marshal(plan)>  <strategy>/<alloc>/<kind>".
const planGoldenPath = "testdata/plan_sha256.txt"

// forEachOracleCombo calls fn with the planning options of every
// strategy x alloc policy x map kind combination of the plan golden:
// BG/L, 64 ranks, split (file-per-process) output every 4 steps.
func forEachOracleCombo(fn func(name string, opt Options)) {
	for _, strat := range []Strategy{Sequential, Concurrent} {
		for _, pol := range []AllocPolicy{AllocPredicted, AllocNaivePoints, AllocEqual, AllocStripsPredicted} {
			for _, kind := range []MapKind{MapSequential, MapTXYZ, MapPartition, MapMultiLevel} {
				fn(fmt.Sprintf("%v/%v/%v", strat, pol, kind), Options{
					Machine: machine.BGL(), Ranks: 64,
					Strategy: strat, Alloc: pol, MapKind: kind,
					IOMode: iosim.Split, OutputEverySteps: 4,
				})
			}
		}
	}
}

// TestBuildPlanGolden checks every plan of the oracle grid against the
// digests recorded in testdata. A mismatch means a plan's bytes — and
// so every /v1/plan body and experiments table built from it — changed.
func TestBuildPlanGolden(t *testing.T) {
	raw, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", planGoldenPath, line)
		}
		want[name] = sum
	}
	cfg := parallelOracleDomain()
	var got []string
	n := 0
	forEachOracleCombo(func(name string, opt Options) {
		n++
		plan, err := BuildPlan(cfg, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(b))
		got = append(got, sum+"  "+name)
		if sum != want[name] {
			t.Errorf("%s: plan digest %s, want %s", name, sum, want[name])
		}
	})
	if len(want) != n {
		t.Errorf("%s has %d entries, want %d", planGoldenPath, len(want), n)
	}
	if t.Failed() {
		t.Logf("digests of this build:\n%s", strings.Join(got, "\n"))
	}
}
