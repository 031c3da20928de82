// Package netsim models message transfer times on a 3D torus with
// static link contention. During a communication phase (e.g. one halo
// exchange of all ranks), every message's dimension-ordered route is
// accumulated onto the directed links it traverses; a message's
// effective bandwidth is the raw link bandwidth divided by the maximum
// link multiplicity along its route. This reproduces the paper's
// observation that placing siblings on small, compact torus regions
// "leads to lesser congestion and smaller delay for point-to-point
// message transfer between neighbouring processes" (Section 4.3.2).
//
// Hot-path engineering (DESIGN.md Section 8): link loads live in a
// dense []int32 indexed by torus.LinkIndex rather than a map keyed by
// Link structs, each route is computed when it is needed into a
// per-Network scratch buffer (XYZ routes are pure arithmetic, so the
// package keeps no route state between Networks), and Reset clears
// only the links touched since the previous phase. AddFlow, PathLoad
// and TransferTime are allocation-free in the steady state.
package netsim

import (
	"errors"
	"fmt"
	"sort"

	"nestwrf/internal/torus"
)

// Params are the link-level parameters of the network. Times are in
// seconds, sizes in bytes.
type Params struct {
	// LatencyPerHop is the per-hop propagation/router delay.
	LatencyPerHop float64
	// Overhead is the fixed per-message software (MPI stack) overhead.
	Overhead float64
	// Bandwidth is the raw bandwidth of one directed link, bytes/s.
	Bandwidth float64
}

// ErrBadParams is returned for non-positive network parameters.
var ErrBadParams = errors.New("netsim: parameters must be positive")

// Validate checks p.
func (p Params) Validate() error {
	if p.LatencyPerHop <= 0 || p.Overhead < 0 || p.Bandwidth <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

// Network accumulates per-link loads for a communication phase and
// computes message transfer times under the resulting contention. A
// Network is not safe for concurrent use.
type Network struct {
	Torus  torus.Torus
	Params Params

	// load holds the per-link loads indexed by torus.LinkIndex, and
	// touched lists the links with load > 0 for O(touched) Reset and
	// stats. route is scratch space for the route being walked.
	load    []int32
	touched []torus.LinkIndex
	route   []torus.LinkIndex
}

// New returns a Network for the given torus and parameters.
func New(t torus.Torus, p Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Network{Torus: t, Params: p, load: make([]int32, t.LinkIndexCount())}, nil
}

// routeTo returns the dense-index dimension-ordered route from a to b.
// The slice is n's scratch buffer, valid until the next call;
// len(route) equals the hop count.
func (n *Network) routeTo(a, b torus.Coord) []torus.LinkIndex {
	n.route = n.Torus.RouteIndicesInto(a, b, n.route[:0])
	return n.route
}

// Reset clears the accumulated link loads, starting a new phase. Only
// links touched since the previous Reset are cleared.
func (n *Network) Reset() {
	for _, li := range n.touched {
		n.load[li] = 0
	}
	n.touched = n.touched[:0]
}

// AddFlow registers one message from a to b for the current phase,
// loading every directed link along its dimension-ordered route.
// Self-messages add no load.
func (n *Network) AddFlow(a, b torus.Coord) {
	for _, li := range n.routeTo(a, b) {
		if n.load[li] == 0 {
			n.touched = append(n.touched, li)
		}
		n.load[li]++
	}
}

// AddFlows registers all messages of a phase given as coordinate pairs;
// each pair is counted in both directions, as halo exchanges are.
func (n *Network) AddFlows(pairs [][2]torus.Coord) {
	for _, p := range pairs {
		n.AddFlow(p[0], p[1])
		n.AddFlow(p[1], p[0])
	}
}

// PathLoad returns the maximum link multiplicity along the route from a
// to b under the current phase's loads. The returned value is at least
// 1 for distinct endpoints (the message itself always uses its links)
// and 0 for a == b.
func (n *Network) PathLoad(a, b torus.Coord) int {
	max := 0
	for _, li := range n.routeTo(a, b) {
		c := int(n.load[li])
		if c == 0 {
			c = 1 // count the message under consideration
		}
		if c > max {
			max = c
		}
	}
	return max
}

// MaxLinkLoad returns the highest load on any link in the current
// phase.
func (n *Network) MaxLinkLoad() int {
	max := 0
	for _, li := range n.touched {
		if c := int(n.load[li]); c > max {
			max = c
		}
	}
	return max
}

// TotalHops returns the total number of link traversals registered in
// the current phase — the hop-byte style congestion metric of the
// paper's Section 2.3 (with unit message size).
func (n *Network) TotalHops() int {
	sum := 0
	for _, li := range n.touched {
		sum += int(n.load[li])
	}
	return sum
}

// LoadBucket is one entry of a link-load histogram: Links links carry
// exactly Load concurrent messages.
type LoadBucket struct {
	Load  int `json:"load"`
	Links int `json:"links"`
}

// Congestion summarizes the link loads of one communication phase.
type Congestion struct {
	// Links is the number of distinct directed links carrying traffic.
	Links int `json:"links"`
	// TotalHops is the total number of link traversals (hop-byte style
	// congestion with unit message size).
	TotalHops int `json:"total_hops"`
	// MaxLoad is the highest multiplicity on any link — the kappa that
	// divides the bandwidth of the worst message.
	MaxLoad int `json:"max_load"`
	// Histogram counts links by exact multiplicity, ascending by load.
	Histogram []LoadBucket `json:"histogram"`
}

// Stats summarizes the current phase's accumulated link loads. The
// histogram makes visible *why* compact mappings cut MPI_Wait: better
// placements shift links toward lower multiplicities.
func (n *Network) Stats() Congestion {
	var c Congestion
	counts := map[int]int{}
	c.Links = len(n.touched)
	for _, li := range n.touched {
		load := int(n.load[li])
		c.TotalHops += load
		if load > c.MaxLoad {
			c.MaxLoad = load
		}
		counts[load]++
	}
	loads := make([]int, 0, len(counts))
	for l := range counts {
		loads = append(loads, l)
	}
	sort.Ints(loads)
	for _, l := range loads {
		c.Histogram = append(c.Histogram, LoadBucket{Load: l, Links: counts[l]})
	}
	return c
}

// TransferTime returns the modeled time for one message of the given
// size from a to b under the current phase's contention:
//
//	overhead + hops·latency + bytes / (bandwidth / pathLoad)
//
// A self-message costs only the software overhead.
func (n *Network) TransferTime(a, b torus.Coord, bytes int) float64 {
	route := n.routeTo(a, b)
	if len(route) == 0 {
		return n.Params.Overhead
	}
	max := int32(1)
	for _, li := range route {
		if c := n.load[li]; c > max {
			max = c
		}
	}
	return n.Params.Overhead +
		float64(len(route))*n.Params.LatencyPerHop +
		float64(bytes)*float64(max)/n.Params.Bandwidth
}

// UncontendedTime is TransferTime with an empty network (path load 1).
func (n *Network) UncontendedTime(a, b torus.Coord, bytes int) float64 {
	hops := n.Torus.Hops(a, b)
	if hops == 0 {
		return n.Params.Overhead
	}
	return n.Params.Overhead +
		float64(hops)*n.Params.LatencyPerHop +
		float64(bytes)/n.Params.Bandwidth
}
