package solver

import (
	"math"
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

func tm() mpi.AlphaBeta { return mpi.AlphaBeta{Alpha: 1e-6, Beta: 1e-9} }

func TestNewTileValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := NewTile(10, 10, 8, 0, 4, 4, p); err == nil {
		t.Error("overflowing tile should fail")
	}
	if _, err := NewTile(10, 10, 0, 0, 0, 4, p); err == nil {
		t.Error("empty tile should fail")
	}
	if _, err := NewTile(10, 10, -1, 0, 4, 4, p); err == nil {
		t.Error("negative origin should fail")
	}
}

func TestMassConservation(t *testing.T) {
	nx, ny := 40, 30
	init := GaussianHill(nx, ny, 20, 15, 0.5, 4)
	tile, err := NewTile(nx, ny, 0, 0, nx, ny, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile.Fill(init)
	m0 := tile.Mass()
	for s := 0; s < 200; s++ {
		tile.SetReflective()
		tile.Step()
	}
	m1 := tile.Mass()
	if math.Abs(m1-m0)/m0 > 1e-9 {
		t.Errorf("mass drifted: %v -> %v", m0, m1)
	}
}

func TestStability(t *testing.T) {
	// The hill should disperse, not blow up: heights stay within a sane
	// band around the rest depth.
	st, err := RunSerial(50, 50, 500, DefaultParams(), GaussianHill(50, 50, 25, 25, 0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range st.H {
		if math.IsNaN(h) || h < 0.2 || h > 2.0 {
			t.Fatalf("cell %d: height %v unstable", i, h)
		}
	}
}

func TestSymmetryPreserved(t *testing.T) {
	// A centred hill on a square domain must stay 4-fold symmetric.
	n := 31
	st, err := RunSerial(n, n, 100, DefaultParams(), GaussianHill(n, n, 15, 15, 0.4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			hx := st.H[st.At(n-1-x, y)]
			hy := st.H[st.At(x, n-1-y)]
			h := st.H[st.At(x, y)]
			if math.Abs(h-hx) > 1e-12 || math.Abs(h-hy) > 1e-12 {
				t.Fatalf("symmetry broken at (%d,%d): %v vs %v vs %v", x, y, h, hx, hy)
			}
		}
	}
}

func TestWaveSpreads(t *testing.T) {
	n := 41
	init := GaussianHill(n, n, 20, 20, 0.5, 3)
	st0 := NewState(n, n)
	tile, _ := NewTile(n, n, 0, 0, n, n, DefaultParams())
	tile.Fill(init)
	tile.Interior(st0)
	st, err := RunSerial(n, n, 150, DefaultParams(), init)
	if err != nil {
		t.Fatal(err)
	}
	// The central peak must decay as the wave propagates outward.
	if st.H[st.At(20, 20)] >= st0.H[st0.At(20, 20)] {
		t.Errorf("central peak did not decay: %v -> %v",
			st0.H[st0.At(20, 20)], st.H[st.At(20, 20)])
	}
	// And the far corner must have been perturbed.
	if math.Abs(st.H[st.At(1, 1)]-1.0) < 1e-9 {
		t.Error("wave never reached the corner")
	}
}

func TestDecomposeCoversDomain(t *testing.T) {
	for _, tc := range []struct{ nx, ny, px, py int }{
		{40, 30, 4, 3}, {41, 31, 4, 3}, {7, 5, 3, 2}, {100, 1, 8, 1},
	} {
		grid := vtopo.Grid{Px: tc.px, Py: tc.py}
		covered := make([]bool, tc.nx*tc.ny)
		for r := 0; r < grid.Size(); r++ {
			x0, y0, w, h := Decompose(tc.nx, tc.ny, grid, r)
			if w <= 0 || h <= 0 {
				t.Fatalf("%+v rank %d: empty tile %dx%d", tc, r, w, h)
			}
			for y := y0; y < y0+h; y++ {
				for x := x0; x < x0+w; x++ {
					i := y*tc.nx + x
					if covered[i] {
						t.Fatalf("%+v: cell (%d,%d) covered twice", tc, x, y)
					}
					covered[i] = true
				}
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("%+v: cell %d not covered", tc, i)
			}
		}
	}
}

// The core correctness property: the parallel solution over any process
// grid equals the serial solution bit for bit.
func TestParallelMatchesSerial(t *testing.T) {
	nx, ny := 37, 29
	p := DefaultParams()
	init := GaussianHill(nx, ny, 18, 14, 0.4, 4)
	for _, tc := range []struct{ px, py, steps int }{
		{2, 2, 60}, {4, 3, 60}, {1, 4, 60}, {6, 1, 60}, {3, 2, 40},
	} {
		steps := tc.steps
		ref, err := RunSerial(nx, ny, steps, p, init)
		if err != nil {
			t.Fatal(err)
		}
		grid := vtopo.Grid{Px: tc.px, Py: tc.py}
		var got *State
		_, err = mpi.Run(grid.Size(), tm(), func(proc *mpi.Proc) error {
			c := proc.World()
			x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
			tile, err := NewTile(nx, ny, x0, y0, w, h, p)
			if err != nil {
				return err
			}
			tile.Fill(init)
			for s := 0; s < steps; s++ {
				if err := tile.Exchange(c, grid); err != nil {
					return err
				}
				tile.Step()
			}
			st, err := Gather(c, tile)
			if err != nil {
				return err
			}
			if st != nil {
				got = st
			}
			return nil
		})
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		if got == nil {
			t.Fatalf("grid %v: no gathered state", grid)
		}
		if d := ref.MaxDiff(got); d != 0 {
			t.Errorf("grid %v: parallel differs from serial by %v", grid, d)
		}
	}
}

// Parallel mass conservation across ranks via Allreduce.
func TestParallelMassConservation(t *testing.T) {
	nx, ny := 32, 32
	grid := vtopo.Grid{Px: 4, Py: 2}
	p := DefaultParams()
	init := GaussianHill(nx, ny, 16, 16, 0.5, 4)
	_, err := mpi.Run(grid.Size(), tm(), func(proc *mpi.Proc) error {
		c := proc.World()
		x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
		tile, err := NewTile(nx, ny, x0, y0, w, h, p)
		if err != nil {
			return err
		}
		tile.Fill(init)
		m0, err := c.Allreduce(mpi.OpSum, []float64{tile.Mass()})
		if err != nil {
			return err
		}
		for s := 0; s < 50; s++ {
			if err := tile.Exchange(c, grid); err != nil {
				return err
			}
			tile.Step()
		}
		m1, err := c.Allreduce(mpi.OpSum, []float64{tile.Mass()})
		if err != nil {
			return err
		}
		if math.Abs(m1[0]-m0[0])/m0[0] > 1e-9 {
			t.Errorf("rank %d: mass %v -> %v", c.Rank(), m0[0], m1[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCellAndSetHaloCell(t *testing.T) {
	tile, err := NewTile(10, 10, 0, 0, 5, 5, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile.SetHaloCell(-1, 2, 1.5, 0.1, -0.2)
	h, hu, hv := tile.Cell(-1, 2)
	if h != 1.5 || hu != 0.1 || hv != -0.2 {
		t.Errorf("halo cell = %v %v %v", h, hu, hv)
	}
}

func TestGatherPayloadValidation(t *testing.T) {
	// Gather on a single rank round-trips the tile.
	nx, ny := 8, 6
	_, err := mpi.Run(1, tm(), func(proc *mpi.Proc) error {
		tile, err := NewTile(nx, ny, 0, 0, nx, ny, DefaultParams())
		if err != nil {
			return err
		}
		tile.Fill(GaussianHill(nx, ny, 4, 3, 0.2, 2))
		st, err := Gather(proc.World(), tile)
		if err != nil {
			return err
		}
		want := NewState(nx, ny)
		tile.Interior(want)
		if st.MaxDiff(want) != 0 {
			t.Error("gathered state differs from tile interior")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSerialStep100x100(b *testing.B) {
	tile, err := NewTile(100, 100, 0, 0, 100, 100, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	tile.Fill(GaussianHill(100, 100, 50, 50, 0.3, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.SetReflective()
		tile.Step()
	}
}
