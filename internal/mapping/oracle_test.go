package mapping

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/vtopo"
)

// AvgHops returns the mean torus hop distance over the given rank
// pairs. It returns 0 for an empty pair list.
func AvgHops(m *Mapping, pairs [][2]int) float64 {
	if len(pairs) == 0 {
		return 0
	}
	total := 0
	for _, p := range pairs {
		total += m.Hops(p[0], p[1])
	}
	return float64(total) / float64(len(pairs))
}

// MaxHops returns the maximum torus hop distance over the given rank
// pairs.
func MaxHops(m *Mapping, pairs [][2]int) int {
	max := 0
	for _, p := range pairs {
		if h := m.Hops(p[0], p[1]); h > max {
			max = h
		}
	}
	return max
}

// analyzeOracle is the three-pass Analyze: it materialises the parent's
// and every sibling's neighbour pairs (siblings translated to global
// ranks) and walks each list for the mean, the maximum and the total.
func analyzeOracle(m *Mapping, rects []alloc.Rect) (Report, error) {
	rep := Report{Name: m.Name}
	parentPairs := m.Grid.NeighborPairs()
	rep.ParentAvg = AvgHops(m, parentPairs)
	rep.ParentMax = MaxHops(m, parentPairs)
	total := 0
	count := 0
	for _, p := range parentPairs {
		total += m.Hops(p[0], p[1])
	}
	count += len(parentPairs)

	for _, rect := range rects {
		sg, err := vtopo.NewSubgrid(m.Grid, rect)
		if err != nil {
			return Report{}, err
		}
		local := sg.Grid()
		pairs := local.NeighborPairs()
		global := make([][2]int, len(pairs))
		for i, p := range pairs {
			global[i] = [2]int{sg.GlobalRank(p[0]), sg.GlobalRank(p[1])}
		}
		rep.SiblingAvg = append(rep.SiblingAvg, AvgHops(m, global))
		rep.SiblingMax = append(rep.SiblingMax, MaxHops(m, global))
		for _, p := range global {
			total += m.Hops(p[0], p[1])
		}
		count += len(global)
	}
	if count > 0 {
		rep.OverallAvg = float64(total) / float64(count)
	}
	rep.OverallPairs = count
	return rep, nil
}

// churnRanks are the machine sizes a plan-churn stream draws from.
var churnRanks = []int{512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192}

// TestAnalyzeMatchesOracle checks the one-pass Analyze against the
// three-pass oracle, Report for Report, for every mapping kind a plan
// analyses, at every plan-churn machine size, with 1-4 partitions of
// seeded random weights (and with none).
func TestAnalyzeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cores := machine.BGL().CoresPerNode
	for _, ranks := range churnRanks {
		g, err := machine.GridFor(ranks)
		if err != nil {
			t.Fatal(err)
		}
		tor, err := machine.TorusFor(ranks)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 4; k++ {
			var rects []alloc.Rect
			if k > 0 {
				weights := make([]float64, k)
				for i := range weights {
					weights[i] = 0.1 + rng.Float64()
				}
				if rects, err = alloc.Partition(weights, g.Px, g.Py); err != nil {
					t.Fatal(err)
				}
			}
			builders := map[string]func() (*Mapping, error){
				"sequential": func() (*Mapping, error) { return Sequential(g, tor) },
				"txyz":       func() (*Mapping, error) { return TXYZ(g, tor, cores) },
				"partition":  func() (*Mapping, error) { return PartitionMapping(g, tor, rects) },
				"multilevel": func() (*Mapping, error) { return MultiLevel(g, tor) },
			}
			for kind, build := range builders {
				m, err := build()
				if err != nil {
					continue // infeasible at this shape, as in a plan
				}
				got, err := Analyze(m, rects)
				if err != nil {
					t.Fatal(err)
				}
				want, err := analyzeOracle(m, rects)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d ranks %d partitions %v:\nAnalyze %+v\noracle  %+v", kind, ranks, k, rects, got, want)
				}
			}
		}
	}
}

// TestAnalyzeRejectsBadRect keeps Analyze's error contract: a partition
// outside the grid fails the same way as in the oracle.
func TestAnalyzeRejectsBadRect(t *testing.T) {
	g, tor, _ := paperExample(t)
	m, err := Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	bad := []alloc.Rect{{X: 0, Y: 0, W: 4, H: 4}, {X: 6, Y: 0, W: 4, H: 4}}
	_, got := Analyze(m, bad)
	_, want := analyzeOracle(m, bad)
	if got == nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Analyze error %v, oracle %v", got, want)
	}
}

// TestAnalyzeAllocations pins Analyze to its two report slices: the
// walk itself allocates nothing.
func TestAnalyzeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	g, err := machine.GridFor(1024)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(1024)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MultiLevel(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	rects, err := alloc.Partition([]float64{0.4, 0.3, 0.3}, g.Px, g.Py)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := Analyze(m, rects); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Errorf("Analyze allocates %v times per call, want at most 2", avg)
	}
}
