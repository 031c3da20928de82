package wrfsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
)

// runGoldenPath records the observables of the golden functional runs,
// keyed by run name. Floats are stored as their exact float64 bits.
const runGoldenPath = "testdata/run_golden.json"

// goldenRun is every deterministic observable of one functional run:
// a SHA-256 per final field ("<domain>.<H|HU|HV>"), the makespan and
// wait aggregates, and the per-phase virtual-time totals. Phase Wall
// is real time and is left out, as scaleSnapshot zeroes it.
type goldenRun struct {
	Fields                     map[string]string
	MaxClock, AvgWait, MaxWait string
	Phases                     []goldenPhase
}

type goldenPhase struct {
	Name                                       string
	Ranks                                      int
	Compute, Wait, Transfer, MaxWait           string
	SendCount, RecvCount, SendBytes, RecvBytes int
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func fieldSum(f []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range f {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func goldenOf(cfg *nest.Domain, out *Output) goldenRun {
	g := goldenRun{
		Fields:   map[string]string{},
		MaxClock: floatBits(out.MaxClock),
		AvgWait:  floatBits(out.AvgWait),
		MaxWait:  floatBits(out.MaxWait),
	}
	states := append([]*solver.State{out.Parent}, out.Nests...)
	names := []string{cfg.Name}
	for _, c := range cfg.Children {
		names = append(names, c.Name)
	}
	for i, s := range states {
		g.Fields[names[i]+".H"] = fieldSum(s.H)
		g.Fields[names[i]+".HU"] = fieldSum(s.HU)
		g.Fields[names[i]+".HV"] = fieldSum(s.HV)
	}
	for _, ph := range out.Phases {
		g.Phases = append(g.Phases, goldenPhase{
			Name: ph.Name, Ranks: ph.Ranks,
			Compute: floatBits(ph.Sum.Compute), Wait: floatBits(ph.Sum.Wait),
			Transfer: floatBits(ph.Sum.Transfer), MaxWait: floatBits(ph.MaxWait),
			SendCount: ph.Sum.SendCount, RecvCount: ph.Sum.RecvCount,
			SendBytes: ph.Sum.SendBytes, RecvBytes: ph.Sum.RecvBytes,
		})
	}
	return g
}

// TestRunGolden pins the functional runs' fields, clocks, waits and
// phase totals to the values recorded in testdata: the Table 2 paper
// domain at 32 and 512 ranks under both strategies, one concurrent
// step at 2048 ranks (skipped under -short and the race detector, like
// TestFunctionalHighRankDeterminism), and the small two-nest run under
// both strategies.
func TestRunGolden(t *testing.T) {
	raw, err := os.ReadFile(runGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", runGoldenPath, err)
	}
	paper := func(ranks int, s Strategy) Options {
		opt := baseOpts(s)
		opt.Ranks = ranks
		return opt
	}
	highRank := paper(2048, Concurrent)
	highRank.Steps = 1
	runs := []struct {
		name string
		cfg  *nest.Domain
		opt  Options
		big  bool
	}{
		{"paper/32/sequential", paperConfig(), paper(32, Sequential), false},
		{"paper/32/concurrent", paperConfig(), paper(32, Concurrent), false},
		{"paper/512/sequential", paperConfig(), paper(512, Sequential), false},
		{"paper/512/concurrent", paperConfig(), paper(512, Concurrent), false},
		{"paper/2048/concurrent/1step", paperConfig(), highRank, true},
		{"test/32/sequential", testConfig(), baseOpts(Sequential), false},
		{"test/32/concurrent", testConfig(), baseOpts(Concurrent), false},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			if r.big && (testing.Short() || raceEnabled) {
				t.Skip("2048-rank run skipped under -short and -race")
			}
			w, ok := want[r.name]
			if !ok {
				t.Fatalf("%s has no entry %q", runGoldenPath, r.name)
			}
			out, err := Run(r.cfg, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenOf(r.cfg, out); !reflect.DeepEqual(got, w) {
				b, _ := json.MarshalIndent(got, "", "  ")
				t.Errorf("observables differ from %s; this build:\n%s", runGoldenPath, b)
			}
		})
	}
}
