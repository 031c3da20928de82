package mpi

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

// runtimeGoldenPath records every virtual-time observable of
// mixedProgram at two world sizes, keyed by run name. Floats are stored
// as their exact float64 bits.
const runtimeGoldenPath = "testdata/runtime_golden.json"

// goldenRank is one rank's clock, wait and per-phase stats. Phase Wall
// is real time and is left out.
type goldenRank struct {
	Clock, Wait string
	Phases      []goldenPhase
}

type goldenPhase struct {
	Name                                       string
	Compute, Wait, Transfer                    string
	SendCount, RecvCount, SendBytes, RecvBytes int
}

// goldenRuntime is one run's record: the SHA-256 of the JSON encoding
// of every rank's goldenRank, a few readable aggregates, and (for
// small worlds) the per-rank records themselves.
type goldenRuntime struct {
	SHA256            string
	MaxClock, MaxWait string
	Sends, SendBytes  int
	Ranks             []goldenRank `json:",omitempty"`
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func goldenOf(t *testing.T, s runSnapshot, perRank bool) goldenRuntime {
	t.Helper()
	ranks := make([]goldenRank, len(s.clocks))
	var g goldenRuntime
	var maxClock, maxWait float64
	for r := range ranks {
		ranks[r] = goldenRank{Clock: floatBits(s.clocks[r]), Wait: floatBits(s.waits[r])}
		maxClock = math.Max(maxClock, s.clocks[r])
		maxWait = math.Max(maxWait, s.waits[r])
		for _, ph := range s.phases[r] {
			st := ph.Stats
			ranks[r].Phases = append(ranks[r].Phases, goldenPhase{
				Name:    ph.Name,
				Compute: floatBits(st.Compute), Wait: floatBits(st.Wait), Transfer: floatBits(st.Transfer),
				SendCount: st.SendCount, RecvCount: st.RecvCount,
				SendBytes: st.SendBytes, RecvBytes: st.RecvBytes,
			})
			g.Sends += st.SendCount
			g.SendBytes += st.SendBytes
		}
	}
	raw, err := json.Marshal(ranks)
	if err != nil {
		t.Fatal(err)
	}
	g.SHA256 = fmt.Sprintf("%x", sha256.Sum256(raw))
	g.MaxClock, g.MaxWait = floatBits(maxClock), floatBits(maxWait)
	if perRank {
		g.Ranks = ranks
	}
	return g
}

// TestRuntimeGolden pins every rank's clock, wait time and per-phase
// stats of mixedProgram to the bits recorded in testdata, at 24 ranks
// (stored rank by rank) and 256 ranks (stored as a digest).
func TestRuntimeGolden(t *testing.T) {
	raw, err := os.ReadFile(runtimeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRuntime
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", runtimeGoldenPath, err)
	}
	for _, n := range []int{24, 256} {
		name := fmt.Sprintf("mixed/%d", n)
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("%s has no entry %q", runtimeGoldenPath, name)
			}
			if got := goldenOf(t, snapshotRun(t, n, mixedProgram(n)), n <= 32); !reflect.DeepEqual(got, w) {
				b, _ := json.MarshalIndent(got, "", "  ")
				t.Errorf("observables differ from %s; this build:\n%s", runtimeGoldenPath, b)
			}
		})
	}
}

// ringWait is a program in which every rank of an n-rank world
// receives from its right neighbour and nobody sends.
func ringWait(n, tag int) func(p *Proc) error {
	return func(p *Proc) error {
		_, err := p.World().Recv((p.Rank()+1)%n, tag)
		return err
	}
}

// Deadlock reports must say exactly how many ranks were stuck and what
// the lowest-ranked of them were waiting on, stay bounded on big
// worlds, and remain errors.Is-compatible with ErrDeadlock. Every
// deadlocked rank returns the same report; Run returns the error of
// the lowest rank that failed, which need not be the deadlock.
func TestDeadlockErrorDetail(t *testing.T) {
	ring64 := "mpi: deadlock: 64 of 64 live ranks blocked in Recv with empty queues; waiting on"
	var ring64Sample []RankWait
	for r := 0; r < deadlockSampleCap; r++ {
		ring64Sample = append(ring64Sample, RankWait{Rank: r, Src: r + 1, Tag: 5})
		if r > 0 {
			ring64 += ","
		}
		ring64 += fmt.Sprintf(" rank %d<-(src %d, tag 5, comm 0)", r, r+1)
	}
	ring64 += ", ... (56 more)"
	cases := []struct {
		name string
		n    int
		prog func(p *Proc) error
		want DeadlockError
		msg  string
		// runErr is Run's error when it is not the deadlock report.
		runErr string
	}{
		{
			name: "ring3", n: 3, prog: ringWait(3, 99),
			want: DeadlockError{Blocked: 3, Alive: 3, Sample: []RankWait{
				{Rank: 0, Src: 1, Tag: 99}, {Rank: 1, Src: 2, Tag: 99}, {Rank: 2, Src: 0, Tag: 99}}},
			msg: "mpi: deadlock: 3 of 3 live ranks blocked in Recv with empty queues; waiting on " +
				"rank 0<-(src 1, tag 99, comm 0), rank 1<-(src 2, tag 99, comm 0), rank 2<-(src 0, tag 99, comm 0)",
		},
		{
			name: "ring64", n: 64, prog: ringWait(64, 5),
			want: DeadlockError{Blocked: 64, Alive: 64, Sample: ring64Sample},
			msg:  ring64,
		},
		{
			name: "peer-exits", n: 3,
			prog: func(p *Proc) error {
				if p.Rank() == 0 {
					return nil // exits without sending
				}
				_, err := p.World().Recv(0, 4)
				return err
			},
			want: DeadlockError{Blocked: 2, Alive: 2, Sample: []RankWait{
				{Rank: 1, Src: 0, Tag: 4}, {Rank: 2, Src: 0, Tag: 4}}},
			msg: "mpi: deadlock: 2 of 2 live ranks blocked in Recv with empty queues; waiting on " +
				"rank 1<-(src 0, tag 4, comm 0), rank 2<-(src 0, tag 4, comm 0)",
		},
		{
			name: "split", n: 6,
			prog: func(p *Proc) error {
				sub, err := p.World().Split(p.Rank()%2, p.Rank())
				if err != nil {
					return err
				}
				_, err = sub.Recv((sub.Rank()+1)%sub.Size(), 7)
				return err
			},
			want: DeadlockError{Blocked: 6, Alive: 6, Sample: []RankWait{
				{Rank: 0, Src: 2, Tag: 7, Comm: 1}, {Rank: 1, Src: 3, Tag: 7, Comm: 2},
				{Rank: 2, Src: 4, Tag: 7, Comm: 1}, {Rank: 3, Src: 5, Tag: 7, Comm: 2},
				{Rank: 4, Src: 0, Tag: 7, Comm: 1}, {Rank: 5, Src: 1, Tag: 7, Comm: 2}}},
			msg: "mpi: deadlock: 6 of 6 live ranks blocked in Recv with empty queues; waiting on " +
				"rank 0<-(src 2, tag 7, comm 1), rank 1<-(src 3, tag 7, comm 2), " +
				"rank 2<-(src 4, tag 7, comm 1), rank 3<-(src 5, tag 7, comm 2), " +
				"rank 4<-(src 0, tag 7, comm 1), rank 5<-(src 1, tag 7, comm 2)",
		},
		{
			name: "peer-fails", n: 3,
			prog: func(p *Proc) error {
				if p.Rank() == 0 {
					return errors.New("rank 0: bad input")
				}
				_, err := p.World().Recv(0, 3)
				return err
			},
			want: DeadlockError{Blocked: 2, Alive: 2, Sample: []RankWait{
				{Rank: 1, Src: 0, Tag: 3}, {Rank: 2, Src: 0, Tag: 3}}},
			msg: "mpi: deadlock: 2 of 2 live ranks blocked in Recv with empty queues; waiting on " +
				"rank 1<-(src 0, tag 3, comm 0), rank 2<-(src 0, tag 3, comm 0)",
			runErr: "rank 0: bad input",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errs := make([]error, c.n)
			_, err := Run(c.n, tm(), func(p *Proc) error {
				errs[p.Rank()] = c.prog(p)
				return errs[p.Rank()]
			})
			var de *DeadlockError
			for r, rerr := range errs {
				var d *DeadlockError
				if !errors.As(rerr, &d) {
					continue
				}
				if de == nil {
					de = d
				} else if !reflect.DeepEqual(d, de) {
					t.Errorf("rank %d saw %+v, an earlier rank %+v", r, d, de)
				}
			}
			if de == nil {
				t.Fatalf("no rank returned a *DeadlockError; Run returned %v", err)
			}
			if !errors.Is(de, ErrDeadlock) {
				t.Errorf("errors.Is(%v, ErrDeadlock) = false", de)
			}
			if !reflect.DeepEqual(*de, c.want) {
				t.Errorf("report = %+v, want %+v", *de, c.want)
			}
			if got := de.Error(); got != c.msg {
				t.Errorf("Error() =\n%s\nwant\n%s", got, c.msg)
			}
			wantRun := c.runErr
			if wantRun == "" {
				wantRun = c.msg
			}
			if err == nil || err.Error() != wantRun {
				t.Errorf("Run error = %v, want %s", err, wantRun)
			}
		})
	}
}
