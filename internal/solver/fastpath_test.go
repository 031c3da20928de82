package solver

import (
	"testing"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// The fast flux-once kernel must reproduce the reference closure-based
// kernel bit for bit: same arithmetic, same evaluation order.
func TestFastKernelMatchesReference(t *testing.T) {
	nx, ny, steps := 41, 33, 80
	p := DefaultParams()
	p.F = 0.1
	p.Drag = 0.01
	init := GaussianHill(nx, ny, 20, 16, 0.4, 5)

	fast, err := RunSerial(nx, ny, steps, p, init)
	if err != nil {
		t.Fatal(err)
	}
	// RunSerial's loop with the reference kernel in place of Step.
	tile, err := NewTile(nx, ny, 0, 0, nx, ny, p)
	if err != nil {
		t.Fatal(err)
	}
	tile.Fill(init)
	for s := 0; s < steps; s++ {
		tile.SetReflective()
		tile.stepLFReference()
	}
	slow := NewState(nx, ny)
	tile.Interior(slow)
	if d := fast.MaxDiff(slow); d != 0 {
		t.Errorf("fast kernel differs from reference by %v (want exactly 0)", d)
	}
}

// stepLFReference is the original Lax-Friedrichs kernel: a 6-return
// flux closure evaluated at all four neighbours of every cell, i.e.
// each cell's flux computed four times. It is the oracle the flux-once
// kernel is tested against.
func (t *Tile) stepLFReference() {
	lx := t.P.Dt / (2 * t.P.Dx)
	g := t.P.G
	flux := func(i int) (fh, fhu, fhv, gh, ghu, ghv float64) {
		h, hu, hv := t.h[i], t.hu[i], t.hv[i]
		if h <= 0 {
			return 0, 0, 0, 0, 0, 0
		}
		u, v := hu/h, hv/h
		p := 0.5 * g * h * h
		return hu, hu*u + p, hu * v, hv, hv * u, hv*v + p
	}
	fcor := t.P.F * t.P.Dt
	drag := t.P.Drag * t.P.Dt
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			c := t.idx(x, y)
			e, w := t.idx(x+1, y), t.idx(x-1, y)
			n, s := t.idx(x, y+1), t.idx(x, y-1)

			feh, fehu, fehv, _, _, _ := flux(e)
			fwh, fwhu, fwhv, _, _, _ := flux(w)
			_, _, _, gnh, gnhu, gnhv := flux(n)
			_, _, _, gsh, gshu, gshv := flux(s)

			nh := 0.25*(t.h[e]+t.h[w]+t.h[n]+t.h[s]) - lx*((feh-fwh)+(gnh-gsh))
			nhu := 0.25*(t.hu[e]+t.hu[w]+t.hu[n]+t.hu[s]) - lx*((fehu-fwhu)+(gnhu-gshu))
			nhv := 0.25*(t.hv[e]+t.hv[w]+t.hv[n]+t.hv[s]) - lx*((fehv-fwhv)+(gnhv-gshv))
			if fcor != 0 {
				nhu, nhv = nhu+fcor*nhv, nhv-fcor*nhu
			}
			if drag != 0 {
				nhu -= drag * nhu
				nhv -= drag * nhv
			}
			t.nh[c] = nh
			t.nhu[c] = nhu
			t.nhv[c] = nhv
		}
	}
	t.h, t.nh = t.nh, t.h
	t.hu, t.nhu = t.nhu, t.hu
	t.hv, t.nhv = t.nhv, t.hv
}

// Steady-state halo exchange must be allocation-free: pack buffers are
// persistent, sends are pooled owned buffers, and received payloads are
// returned to the pool. The allocation counter is process-global, so
// rank 0 measures while the other ranks run the identical iteration
// sequence bare: their exchanges overlap rank 0's window (message
// dependencies keep the ranks in lockstep), so any allocation on any
// rank is caught, without testing machinery polluting the count.
func TestExchangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	nx, ny := 32, 24
	grid := vtopo.Grid{Px: 2, Py: 2}
	p := DefaultParams()
	init := GaussianHill(nx, ny, 16, 12, 0.4, 4)
	const runs = 10
	var avg float64
	_, err := mpi.Run(grid.Size(), tm(), func(proc *mpi.Proc) error {
		c := proc.World()
		x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
		tile, err := NewTile(nx, ny, x0, y0, w, h, p)
		if err != nil {
			return err
		}
		tile.Fill(init)
		iter := func() {
			if err := tile.Exchange(c, grid); err != nil {
				t.Error(err)
			}
			tile.Step()
		}
		for i := 0; i < 3; i++ {
			iter()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, iter)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun runs 1 warmup + runs
				iter()
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("%v allocs per exchange+step, want 0", avg)
	}
}
