// Package torus models the 3D torus interconnect of IBM Blue Gene/L
// and Blue Gene/P systems (paper Section 3.3): node coordinates,
// minimal wraparound hop distances, and the dimension-ordered routes
// used to account per-link traffic in the network simulator.
//
// The model treats each core as a torus endpoint; virtual-node mode
// (multiple cores per node) is represented by folding the intra-node
// "T" dimension into Z, which slightly overestimates intra-node hop
// cost (one cheap hop instead of zero) and is noted in DESIGN.md.
package torus

import (
	"errors"
	"fmt"
)

// Torus describes a 3D torus with the given dimensions.
type Torus struct {
	X, Y, Z int
}

// Coord is the coordinate of a node in the torus.
type Coord struct {
	X, Y, Z int
}

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// ErrBadDims is returned for non-positive torus dimensions.
var ErrBadDims = errors.New("torus: dimensions must be positive")

// New returns a torus with the given dimensions.
func New(x, y, z int) (Torus, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return Torus{}, fmt.Errorf("%w: %dx%dx%d", ErrBadDims, x, y, z)
	}
	return Torus{x, y, z}, nil
}

// Nodes returns the number of nodes in the torus.
func (t Torus) Nodes() int { return t.X * t.Y * t.Z }

// Valid reports whether c is a coordinate inside t.
func (t Torus) Valid(c Coord) bool {
	return c.X >= 0 && c.X < t.X && c.Y >= 0 && c.Y < t.Y && c.Z >= 0 && c.Z < t.Z
}

// Index returns the linear index of c with x varying fastest.
func (t Torus) Index(c Coord) int {
	return c.X + t.X*(c.Y+t.Y*c.Z)
}

// CoordOf returns the coordinate of linear index i (x fastest).
func (t Torus) CoordOf(i int) Coord {
	return Coord{X: i % t.X, Y: (i / t.X) % t.Y, Z: i / (t.X * t.Y)}
}

// wrapDelta returns the signed minimal step count from a to b along a
// dimension of the given size, preferring the positive direction on
// ties.
func wrapDelta(a, b, size int) int {
	d := ((b-a)%size + size) % size
	if d*2 > size {
		return d - size
	}
	return d
}

// dimDist returns the minimal hop count between positions a and b on a
// ring of the given size.
func dimDist(a, b, size int) int {
	d := wrapDelta(a, b, size)
	if d < 0 {
		return -d
	}
	return d
}

// Hops returns the minimal number of network hops between two nodes,
// i.e. the wraparound Manhattan distance.
func (t Torus) Hops(a, b Coord) int {
	return dimDist(a.X, b.X, t.X) + dimDist(a.Y, b.Y, t.Y) + dimDist(a.Z, b.Z, t.Z)
}

// Dim identifies a torus dimension.
type Dim uint8

// The three torus dimensions.
const (
	DimX Dim = iota
	DimY
	DimZ
)

// String implements fmt.Stringer.
func (d Dim) String() string {
	switch d {
	case DimX:
		return "X"
	case DimY:
		return "Y"
	case DimZ:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// Link identifies a directed link: the cable leaving node From in
// dimension Dim towards direction Dir (+1 or -1). Each physical torus
// cable appears as two Links, one per direction, matching the
// independent send/receive channels of Blue Gene hardware.
type Link struct {
	From Coord
	Dim  Dim
	Dir  int8
}

// Route returns the sequence of directed links of the dimension-ordered
// (X, then Y, then Z) minimal route from a to b, the deterministic
// routing used by Blue Gene. An empty route means a == b.
func (t Torus) Route(a, b Coord) []Link {
	n := t.Hops(a, b)
	if n == 0 {
		return nil
	}
	buf := make([]Link, 0, n)
	cur := a
	for dim := DimX; dim <= DimZ; dim++ {
		pos, target, size := routeAxis(cur, b, t, dim)
		delta := wrapDelta(pos, target, size)
		dir := int8(1)
		if delta < 0 {
			dir = -1
			delta = -delta
		}
		for i := 0; i < delta; i++ {
			buf = append(buf, Link{From: cur, Dim: dim, Dir: dir})
			cur = t.Neighbor(cur, dim, dir)
		}
	}
	return buf
}

// routeAxis extracts the current position, target position and ring
// size of one routing dimension.
func routeAxis(cur, b Coord, t Torus, d Dim) (pos, target, size int) {
	switch d {
	case DimX:
		return cur.X, b.X, t.X
	case DimY:
		return cur.Y, b.Y, t.Y
	default:
		return cur.Z, b.Z, t.Z
	}
}

// LinkIndex is the dense linear index of a directed link: every node
// owns six outgoing slots (three dimensions x two directions), so all
// per-link state fits in a flat array of 6*Nodes() entries. It exists
// so the network simulator can accumulate link loads without hashing
// Link structs.
type LinkIndex int32

// LinkIndexCount returns the size of the dense link-index space,
// 6*Nodes(). Slots for links that do not physically exist (rings of
// length <= 1) are simply never produced by routes.
func (t Torus) LinkIndexCount() int { return 6 * t.Nodes() }

// LinkIndexOf returns the dense index of l.
func (t Torus) LinkIndexOf(l Link) LinkIndex {
	slot := 2 * int(l.Dim)
	if l.Dir < 0 {
		slot++
	}
	return LinkIndex(6*t.Index(l.From) + slot)
}

// LinkAt is the inverse of LinkIndexOf.
func (t Torus) LinkAt(i LinkIndex) Link {
	node, slot := int(i)/6, int(i)%6
	dir := int8(1)
	if slot%2 == 1 {
		dir = -1
	}
	return Link{From: t.CoordOf(node), Dim: Dim(slot / 2), Dir: dir}
}

// RouteIndicesInto appends the dense link indices of the
// dimension-ordered route from a to b onto buf and returns the
// extended slice. The network simulator routes every message through
// it, reusing one buffer, so routing allocates nothing.
func (t Torus) RouteIndicesInto(a, b Coord, buf []LinkIndex) []LinkIndex {
	cur := a
	curIdx := t.Index(cur)
	for dim := DimX; dim <= DimZ; dim++ {
		pos, target, size := routeAxis(cur, b, t, dim)
		delta := wrapDelta(pos, target, size)
		dir := int8(1)
		slot := 2 * int(dim)
		if delta < 0 {
			dir = -1
			delta = -delta
			slot++
		}
		for i := 0; i < delta; i++ {
			buf = append(buf, LinkIndex(6*curIdx+slot))
			cur = t.Neighbor(cur, dim, dir)
			curIdx = t.Index(cur)
		}
	}
	return buf
}

// Neighbor returns the coordinate one hop from c in dimension d,
// direction dir (with wraparound).
func (t Torus) Neighbor(c Coord, d Dim, dir int8) Coord {
	switch d {
	case DimX:
		c.X = ((c.X+int(dir))%t.X + t.X) % t.X
	case DimY:
		c.Y = ((c.Y+int(dir))%t.Y + t.Y) % t.Y
	case DimZ:
		c.Z = ((c.Z+int(dir))%t.Z + t.Z) % t.Z
	}
	return c
}

// LinkCount returns the total number of directed links in the torus.
// Rings of length 1 have no links; rings of length 2 have a single
// physical cable per node pair, modeled as two directed links.
func (t Torus) LinkCount() int {
	count := 0
	per := func(size int) int {
		switch {
		case size <= 1:
			return 0
		default:
			return 2 // both directions
		}
	}
	count += t.Nodes() * per(t.X)
	count += t.Nodes() * per(t.Y)
	count += t.Nodes() * per(t.Z)
	return count
}

// Bisection returns the bisection width (number of directed links
// crossing a bisecting plane of the torus along its longest dimension).
func (t Torus) Bisection() int {
	long, area := t.X, t.Y*t.Z
	if t.Y > long {
		long, area = t.Y, t.X*t.Z
	}
	if t.Z > long {
		long, area = t.Z, t.X*t.Y
	}
	if long == 1 {
		return 0
	}
	wrap := 2
	if long == 2 {
		wrap = 1
	}
	return area * 2 * wrap // both directions x both cut planes (wraparound)
}
