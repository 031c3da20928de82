package netsim

import (
	"testing"

	"nestwrf/internal/torus"
)

// TestHotPathAllocationFree asserts the netsim inner loops allocate
// nothing in the steady state (once the Network's route scratch buffer
// and touched-links list have grown to size). A regression here
// silently undoes the dense hot-path design, so it is enforced, not
// just benchmarked.
func TestHotPathAllocationFree(t *testing.T) {
	tor, err := torus.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{LatencyPerHop: 9e-7, Overhead: 8e-4, Bandwidth: 175e6}
	n, err := New(tor, p)
	if err != nil {
		t.Fatal(err)
	}
	a := torus.Coord{X: 0, Y: 0, Z: 0}
	b := torus.Coord{X: 5, Y: 3, Z: 6}
	c := torus.Coord{X: 2, Y: 7, Z: 1}
	// Grow the route scratch buffer and the touched-links list.
	n.AddFlow(a, b)
	n.AddFlow(b, c)
	n.AddFlow(c, a)
	n.Reset()
	n.AddFlow(a, b)

	if avg := testing.AllocsPerRun(100, func() {
		n.Reset()
		n.AddFlow(a, b)
		n.AddFlow(b, c)
		n.AddFlow(c, a)
	}); avg != 0 {
		t.Errorf("Reset+AddFlow allocates %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if n.PathLoad(a, b) < 1 {
			t.Fatal("unexpected path load")
		}
	}); avg != 0 {
		t.Errorf("PathLoad allocates %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if n.TransferTime(a, b, 4096) <= 0 {
			t.Fatal("unexpected transfer time")
		}
	}); avg != 0 {
		t.Errorf("TransferTime allocates %v allocs/op, want 0", avg)
	}
}
