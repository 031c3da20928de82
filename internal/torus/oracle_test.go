package torus

import (
	"fmt"
	"testing"
)

// The modular torus arithmetic the package used before its hop and
// route code became branch-only. It is kept here as the oracle the
// production code must match on every in-range input.

// refWrapDelta is the modular wrapDelta: two modulos per call, valid
// for any integer coordinates.
func refWrapDelta(a, b, size int) int {
	d := ((b-a)%size + size) % size
	if d*2 > size {
		return d - size
	}
	return d
}

// refDimDist is the modular ring distance.
func refDimDist(a, b, size int) int {
	d := refWrapDelta(a, b, size)
	if d < 0 {
		return -d
	}
	return d
}

// refHops is the modular wraparound Manhattan distance.
func refHops(t Torus, a, b Coord) int {
	return refDimDist(a.X, b.X, t.X) + refDimDist(a.Y, b.Y, t.Y) + refDimDist(a.Z, b.Z, t.Z)
}

// refNeighbor is the modular single-hop step.
func refNeighbor(t Torus, c Coord, d Dim, dir int8) Coord {
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

// refRouteIndicesInto walks the route hop by hop, re-deriving the
// neighbour coordinate and its dense index after every step.
func refRouteIndicesInto(t Torus, a, b Coord, buf []LinkIndex) []LinkIndex {
	cur := a
	curIdx := t.Index(cur)
	for dim := DimX; dim <= DimZ; dim++ {
		pos, target, size := routeAxis(cur, b, t, dim)
		delta := refWrapDelta(pos, target, size)
		dir := int8(1)
		slot := 2 * int(dim)
		if delta < 0 {
			dir = -1
			delta = -delta
			slot++
		}
		for i := 0; i < delta; i++ {
			buf = append(buf, LinkIndex(6*curIdx+slot))
			cur = refNeighbor(t, cur, dim, dir)
			curIdx = t.Index(cur)
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

// oracleRingSizes are the ring sizes the scalar oracles sweep: every
// small size (odd and even ties alike) and the Blue Gene extents.
func oracleRingSizes() []int {
	sizes := make([]int, 0, 20)
	for s := 1; s <= 17; s++ {
		sizes = append(sizes, s)
	}
	return append(sizes, 32, 64, 128)
}

// TestWrapDeltaMatchesOracle compares wrapDelta, dimDist and Neighbor
// with their modular forms on every in-range input.
func TestWrapDeltaMatchesOracle(t *testing.T) {
	for _, size := range oracleRingSizes() {
		for a := 0; a < size; a++ {
			for b := 0; b < size; b++ {
				if got, want := wrapDelta(a, b, size), refWrapDelta(a, b, size); got != want {
					t.Fatalf("wrapDelta(%d,%d,%d) = %d, oracle %d", a, b, size, got, want)
				}
				if got, want := dimDist(a, b, size), refDimDist(a, b, size); got != want {
					t.Fatalf("dimDist(%d,%d,%d) = %d, oracle %d", a, b, size, got, want)
				}
			}
			for _, dir := range []int8{1, -1} {
				tor := Torus{X: size, Y: 1, Z: 1}
				c := Coord{X: a}
				if got, want := tor.Neighbor(c, DimX, dir), refNeighbor(tor, c, DimX, dir); got != want {
					t.Fatalf("Neighbor(%v, X, %d) on ring %d = %v, oracle %v", c, dir, size, got, want)
				}
			}
		}
	}
}

// TestRouteMatchesOracle compares RouteIndicesInto, Hops and Neighbor
// with the modular hop-by-hop oracle on every ordered node pair of
// several torus shapes, including rings of length 1 and 2 and the
// 1024-node Blue Gene/L partition.
func TestRouteMatchesOracle(t *testing.T) {
	for _, dims := range [][3]int{{1, 2, 3}, {2, 2, 2}, {3, 5, 7}, {8, 8, 16}} {
		tor, err := New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%dx%dx%d", dims[0], dims[1], dims[2]), func(t *testing.T) {
			got := make([]LinkIndex, 0, 32)
			want := make([]LinkIndex, 0, 32)
			n := tor.Nodes()
			for i := 0; i < n; i++ {
				a := tor.CoordOf(i)
				for d := DimX; d <= DimZ; d++ {
					for _, dir := range []int8{1, -1} {
						if g, w := tor.Neighbor(a, d, dir), refNeighbor(tor, a, d, dir); g != w {
							t.Fatalf("Neighbor(%v, %v, %d) = %v, oracle %v", a, d, dir, g, w)
						}
					}
				}
				for j := 0; j < n; j++ {
					b := tor.CoordOf(j)
					if g, w := tor.Hops(a, b), refHops(tor, a, b); g != w {
						t.Fatalf("Hops(%v, %v) = %d, oracle %d", a, b, g, w)
					}
					got = tor.RouteIndicesInto(a, b, got[:0])
					want = refRouteIndicesInto(tor, a, b, want[:0])
					if len(got) != len(want) {
						t.Fatalf("RouteIndicesInto(%v, %v) has %d links, oracle %d", a, b, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("RouteIndicesInto(%v, %v)[%d] = %v, oracle %v", a, b, k, tor.LinkAt(got[k]), tor.LinkAt(want[k]))
						}
					}
				}
			}
		})
	}
}
