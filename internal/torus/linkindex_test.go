package torus

import (
	"math/rand"
	"testing"
)

// TestLinkIndexRoundTrip checks LinkIndexOf and LinkAt are inverses
// over every slot of several torus shapes.
func TestLinkIndexRoundTrip(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 2, 2}, {4, 2, 4}, {8, 8, 16}, {3, 5, 7}} {
		tor, err := New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tor.LinkIndexCount(), 6*tor.Nodes(); got != want {
			t.Fatalf("%v: LinkIndexCount = %d, want %d", dims, got, want)
		}
		for i := 0; i < tor.LinkIndexCount(); i++ {
			l := tor.LinkAt(LinkIndex(i))
			if back := tor.LinkIndexOf(l); back != LinkIndex(i) {
				t.Fatalf("%v: LinkIndexOf(LinkAt(%d)) = %d", dims, i, back)
			}
		}
	}
}

// TestRouteVariantsAgree checks that Route and RouteIndicesInto
// produce the same link sequence for random pairs, and that the route
// length always equals the hop distance.
func TestRouteVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 2, 2}, {4, 2, 4}, {8, 8, 8}, {3, 5, 7}, {1, 6, 2}} {
		tor, err := New(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		idxBuf := make([]LinkIndex, 0, 32)
		for trial := 0; trial < 200; trial++ {
			a := Coord{rng.Intn(tor.X), rng.Intn(tor.Y), rng.Intn(tor.Z)}
			b := Coord{rng.Intn(tor.X), rng.Intn(tor.Y), rng.Intn(tor.Z)}
			route := tor.Route(a, b)
			if len(route) != tor.Hops(a, b) {
				t.Fatalf("%v: Route(%v,%v) has %d links, Hops = %d", dims, a, b, len(route), tor.Hops(a, b))
			}
			idx := tor.RouteIndicesInto(a, b, idxBuf[:0])
			if len(idx) != len(route) {
				t.Fatalf("%v: RouteIndicesInto length %d != Route length %d", dims, len(idx), len(route))
			}
			for i := range route {
				if got := tor.LinkAt(idx[i]); got != route[i] {
					t.Fatalf("%v: LinkAt(RouteIndices[%d]) = %v, Route[%d] = %v", dims, i, got, i, route[i])
				}
			}
		}
	}
}

// TestRouteSelfEmpty preserves the original contract: a == b routes are
// empty, and Route returns nil.
func TestRouteSelfEmpty(t *testing.T) {
	tor, _ := New(4, 4, 4)
	c := Coord{1, 2, 3}
	if r := tor.Route(c, c); r != nil {
		t.Fatalf("Route(c,c) = %v, want nil", r)
	}
	if r := tor.RouteIndicesInto(c, c, nil); len(r) != 0 {
		t.Fatalf("RouteIndicesInto(c,c,nil) = %v, want empty", r)
	}
}
