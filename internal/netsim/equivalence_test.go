package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"nestwrf/internal/torus"
)

// refNetwork is the map-based oracle for Network: link loads keyed by
// torus.Link and every route built from scratch with torus.Route. It is
// the original implementation, kept here so the dense production path
// is checked against an independent one.
type refNetwork struct {
	tor  torus.Torus
	p    Params
	load map[torus.Link]int
}

func newRef(tor torus.Torus, p Params) *refNetwork {
	return &refNetwork{tor: tor, p: p, load: map[torus.Link]int{}}
}

func (n *refNetwork) Reset() { n.load = map[torus.Link]int{} }

func (n *refNetwork) AddFlows(pairs [][2]torus.Coord) {
	for _, pr := range pairs {
		for _, l := range n.tor.Route(pr[0], pr[1]) {
			n.load[l]++
		}
		for _, l := range n.tor.Route(pr[1], pr[0]) {
			n.load[l]++
		}
	}
}

func (n *refNetwork) PathLoad(a, b torus.Coord) int {
	max := 0
	for _, l := range n.tor.Route(a, b) {
		c := n.load[l]
		if c == 0 {
			c = 1 // count the message under consideration
		}
		if c > max {
			max = c
		}
	}
	return max
}

func (n *refNetwork) MaxLinkLoad() int { return n.Stats().MaxLoad }

func (n *refNetwork) TotalHops() int { return n.Stats().TotalHops }

func (n *refNetwork) Stats() Congestion {
	c := Congestion{Links: len(n.load)}
	counts := map[int]int{}
	for _, load := range n.load {
		c.TotalHops += load
		if load > c.MaxLoad {
			c.MaxLoad = load
		}
		counts[load]++
	}
	for load := 1; load <= c.MaxLoad; load++ {
		if counts[load] > 0 {
			c.Histogram = append(c.Histogram, LoadBucket{Load: load, Links: counts[load]})
		}
	}
	return c
}

func (n *refNetwork) TransferTime(a, b torus.Coord, bytes int) float64 {
	hops := n.tor.Hops(a, b)
	if hops == 0 {
		return n.p.Overhead
	}
	return n.p.Overhead +
		float64(hops)*n.p.LatencyPerHop +
		float64(bytes)*float64(n.PathLoad(a, b))/n.p.Bandwidth
}

func (n *refNetwork) UncontendedTime(a, b torus.Coord, bytes int) float64 {
	hops := n.tor.Hops(a, b)
	if hops == 0 {
		return n.p.Overhead
	}
	return n.p.Overhead +
		float64(hops)*n.p.LatencyPerHop +
		float64(bytes)/n.p.Bandwidth
}

// TestDenseMatchesReference drives random flow patterns through the
// dense Network and the map-based refNetwork oracle and asserts every
// observable — path loads, transfer times, congestion stats — is
// identical, including across Reset.
func TestDenseMatchesReference(t *testing.T) {
	p := Params{LatencyPerHop: 9e-7, Overhead: 8e-4, Bandwidth: 175e6}
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{2, 2, 2}, {4, 2, 4}, {8, 8, 8}, {3, 5, 2}} {
		tor, err := torus.New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		fast, err := New(tor, p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(tor, p)
		randCoord := func() torus.Coord {
			return torus.Coord{X: rng.Intn(tor.X), Y: rng.Intn(tor.Y), Z: rng.Intn(tor.Z)}
		}
		for phase := 0; phase < 3; phase++ {
			var pairs [][2]torus.Coord
			for i := 0; i < 40; i++ {
				pairs = append(pairs, [2]torus.Coord{randCoord(), randCoord()})
			}
			fast.AddFlows(pairs)
			ref.AddFlows(pairs)

			if got, want := fast.MaxLinkLoad(), ref.MaxLinkLoad(); got != want {
				t.Fatalf("%v phase %d: MaxLinkLoad = %d, reference %d", dims, phase, got, want)
			}
			if got, want := fast.TotalHops(), ref.TotalHops(); got != want {
				t.Fatalf("%v phase %d: TotalHops = %d, reference %d", dims, phase, got, want)
			}
			if got, want := fast.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v phase %d: Stats = %+v, reference %+v", dims, phase, got, want)
			}
			for i := 0; i < 100; i++ {
				a, b := randCoord(), randCoord()
				if got, want := fast.PathLoad(a, b), ref.PathLoad(a, b); got != want {
					t.Fatalf("%v phase %d: PathLoad(%v,%v) = %d, reference %d", dims, phase, a, b, got, want)
				}
				bytes := rng.Intn(1 << 20)
				if got, want := fast.TransferTime(a, b, bytes), ref.TransferTime(a, b, bytes); got != want {
					t.Fatalf("%v phase %d: TransferTime(%v,%v,%d) = %v, reference %v", dims, phase, a, b, bytes, got, want)
				}
				if got, want := fast.UncontendedTime(a, b, bytes), ref.UncontendedTime(a, b, bytes); got != want {
					t.Fatalf("%v phase %d: UncontendedTime(%v,%v,%d) = %v, reference %v", dims, phase, a, b, bytes, got, want)
				}
			}
			fast.Reset()
			ref.Reset()
			if got := fast.MaxLinkLoad(); got != 0 {
				t.Fatalf("%v phase %d: MaxLinkLoad after Reset = %d", dims, phase, got)
			}
			if got := fast.Stats(); got.Links != 0 || got.TotalHops != 0 {
				t.Fatalf("%v phase %d: Stats after Reset = %+v", dims, phase, got)
			}
		}
	}
}

// TestSelfMessage preserves the self-message contract on the fast path.
func TestSelfMessage(t *testing.T) {
	tor, _ := torus.New(4, 4, 4)
	p := Params{LatencyPerHop: 1e-6, Overhead: 1e-4, Bandwidth: 1e8}
	n, err := New(tor, p)
	if err != nil {
		t.Fatal(err)
	}
	c := torus.Coord{X: 1, Y: 1, Z: 1}
	n.AddFlow(c, c)
	if got := n.TotalHops(); got != 0 {
		t.Fatalf("self flow added load: TotalHops = %d", got)
	}
	if got := n.TransferTime(c, c, 1000); got != p.Overhead {
		t.Fatalf("self TransferTime = %v, want overhead %v", got, p.Overhead)
	}
	if got := n.PathLoad(c, c); got != 0 {
		t.Fatalf("self PathLoad = %d, want 0", got)
	}
}
