package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/vtopo"
)

// The pair-list cost model the package used before its halo walks read
// the mapping's rectangle directly. It is kept here as the oracle the
// production walks must match bit for bit.

// refHaloPairs returns the global-rank neighbour pairs of a placement.
func refHaloPairs(p Placement) [][2]int {
	local := p.SG.Grid()
	pairs := local.NeighborPairs()
	out := make([][2]int, len(pairs))
	for i, pr := range pairs {
		out[i] = [2]int{p.SG.GlobalRank(pr[0]), p.SG.GlobalRank(pr[1])}
	}
	return out
}

// refAddPhaseFlows loads every placement's halo pairs, both ways.
func refAddPhaseFlows(net *netsim.Network, mp *mapping.Mapping, placements []Placement) {
	for _, p := range placements {
		for _, pr := range refHaloPairs(p) {
			net.AddFlow(mp.NodeOf(pr[0]), mp.NodeOf(pr[1]))
			net.AddFlow(mp.NodeOf(pr[1]), mp.NodeOf(pr[0]))
		}
	}
}

// refStepCost evaluates one placement rank by rank through the local
// grid's Neighbor and the subgrid's GlobalRank.
func refStepCost(m machine.Machine, mp *mapping.Mapping, net *netsim.Network, p Placement) StepCost {
	local := p.SG.Grid()
	w, h := local.Px, local.Py
	lx := ceilDiv(p.D.NX, w)
	ly := ceilDiv(p.D.NY, h)

	cost := StepCost{
		Compute: m.PointCost*float64(lx)*float64(ly) + m.StepOverhead,
		Ranks:   local.Size(),
	}

	msgs := float64(m.ExchangesPerStep)
	var commSum float64
	var hopSum, hopCnt float64
	for r := 0; r < local.Size(); r++ {
		var commR float64
		src := mp.NodeOf(p.SG.GlobalRank(r))
		for d := vtopo.West; d <= vtopo.North; d++ {
			nb := local.Neighbor(r, d)
			if nb < 0 {
				continue
			}
			dst := mp.NodeOf(p.SG.GlobalRank(nb))
			edge := ly // east/west messages carry a column of the tile
			if d == vtopo.South || d == vtopo.North {
				edge = lx
			}
			bytes := float64(edge) * m.BytesPerPoint
			perMsg := bytes / msgs
			commR += msgs * net.TransferTime(src, dst, int(perMsg))
			hopSum += float64(mp.Torus.Hops(src, dst))
			hopCnt++
		}
		commSum += commR
		if commR > cost.CommMax {
			cost.CommMax = commR
		}
	}
	cost.CommAvg = commSum / float64(local.Size())
	if hopCnt > 0 {
		cost.HopsAvg = hopSum / hopCnt
	}
	return cost
}

// refPhase evaluates a phase with the oracle walks on a fresh network
// and returns its costs and congestion summary.
func refPhase(m machine.Machine, mp *mapping.Mapping, placements []Placement, contention bool) ([]StepCost, netsim.Congestion) {
	net, err := netsim.New(mp.Torus, m.Net)
	if err != nil {
		panic(err)
	}
	if contention {
		refAddPhaseFlows(net, mp, placements)
	}
	out := make([]StepCost, len(placements))
	for i, p := range placements {
		out[i] = refStepCost(m, mp, net, p)
	}
	return out, net.Stats()
}

// TestPhaseMatchesOracle compares evalPhase and PhaseCostsCongestion
// with the pair-list oracle, bit for bit, on both machines, every
// mapping kind, 1-4 concurrent siblings of seeded random weights and
// domain sizes, and the full-grid parent phase.
func TestPhaseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, m := range []machine.Machine{machine.BGL(), machine.BGP()} {
		for _, ranks := range []int{64, 512, 1024, 2048} {
			g, err := machine.GridFor(ranks)
			if err != nil {
				t.Fatal(err)
			}
			tor, err := machine.TorusFor(ranks)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= 4; k++ {
				var placements []Placement
				var rects []alloc.Rect
				if k == 0 {
					placements = []Placement{{D: nest.Root("parent", 286+rng.Intn(300), 307+rng.Intn(300)),
						SG: vtopo.Subgrid{Parent: g, Rect: alloc.Rect{W: g.Px, H: g.Py}}}}
				} else {
					weights := make([]float64, k)
					for i := range weights {
						weights[i] = 0.1 + rng.Float64()
					}
					if rects, err = alloc.Partition(weights, g.Px, g.Py); err != nil {
						t.Fatal(err)
					}
					for i, r := range rects {
						placements = append(placements, Placement{
							D:  nest.Root(fmt.Sprintf("s%d", i), 100+rng.Intn(400), 100+rng.Intn(400)),
							SG: vtopo.Subgrid{Parent: g, Rect: r},
						})
					}
				}
				mappings := []func() (*mapping.Mapping, error){
					func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) },
					func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, m.CoresPerNode) },
					func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, rects) },
					func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) },
				}
				for _, build := range mappings {
					mp, err := build()
					if err != nil {
						continue // infeasible at this shape
					}
					for _, contention := range []bool{true, false} {
						want, wantStats := refPhase(m, mp, placements, contention)
						if got := evalPhase(m, mp, placements, contention); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s %d ranks %d siblings contention=%v:\nevalPhase %+v\noracle    %+v",
								m.Name, mp.Name, ranks, k, contention, got, want)
						}
						if !contention {
							continue
						}
						got, gotStats := PhaseCostsCongestion(m, mp, placements)
						if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
							t.Fatalf("%s %s %d ranks %d siblings: PhaseCostsCongestion differs from oracle\n%+v %+v\n%+v %+v",
								m.Name, mp.Name, ranks, k, got, gotStats, want, wantStats)
						}
					}
				}
			}
		}
	}
}
