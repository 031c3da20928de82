// Package solver is the numerical dynamical core of the functional
// weather-simulation substrate: the 2D shallow-water equations
// integrated with a Lax-Friedrichs scheme over a halo-decomposed grid.
// It plays the role WRF's dynamics play in the paper — a real stencil
// computation whose parallel execution requires the 4-neighbour halo
// exchanges that the mapping and allocation strategies optimize.
//
// The parallel solution is bit-identical to the serial solution: each
// cell's update reads the same values in the same order regardless of
// the decomposition, so integration tests can verify halo exchange and
// nesting logic exactly.
package solver

import (
	"errors"
	"fmt"
	"math"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

// Params are the integration parameters.
type Params struct {
	Dt float64 // time step
	Dx float64 // grid spacing (same in x and y)
	G  float64 // gravitational acceleration
	// F is the Coriolis parameter (positive in the northern
	// hemisphere): momentum rotates clockwise-of-motion when F > 0,
	// which is what turns a pressure anomaly into a cyclone. Zero
	// disables rotation.
	F float64
	// Drag is a linear bottom-friction coefficient applied to momentum
	// (1/s). Zero disables friction.
	Drag float64
	// Scheme selects the integrator (default LaxFriedrichs).
	Scheme Scheme
}

// DefaultParams returns stable parameters for O(1) initial heights
// (no rotation, no friction).
func DefaultParams() Params {
	return Params{Dt: 0.01, Dx: 1.0, G: 9.81}
}

// GeophysicalParams returns parameters with rotation and weak friction,
// for cyclone-like demonstrations.
func GeophysicalParams() Params {
	return Params{Dt: 0.01, Dx: 1.0, G: 9.81, F: 0.5, Drag: 0.01}
}

// State is a full-domain snapshot (no halo), row-major with x fastest.
type State struct {
	NX, NY    int
	H, HU, HV []float64
}

// NewState allocates a zero state.
func NewState(nx, ny int) *State {
	n := nx * ny
	return &State{NX: nx, NY: ny, H: make([]float64, n), HU: make([]float64, n), HV: make([]float64, n)}
}

// At returns the linear index of (x, y).
func (s *State) At(x, y int) int { return y*s.NX + x }

// Mass returns the total water volume, conserved by the scheme under
// reflective boundaries.
func (s *State) Mass() float64 {
	var m float64
	for _, h := range s.H {
		m += h
	}
	return m
}

// MaxDiff returns the maximum absolute difference of all fields
// between two states.
func (s *State) MaxDiff(o *State) float64 {
	var d float64
	for i := range s.H {
		d = math.Max(d, math.Abs(s.H[i]-o.H[i]))
		d = math.Max(d, math.Abs(s.HU[i]-o.HU[i]))
		d = math.Max(d, math.Abs(s.HV[i]-o.HV[i]))
	}
	return d
}

// InitFunc provides the initial condition at a global cell.
type InitFunc func(gx, gy int) (h, hu, hv float64)

// GaussianHill returns an initial condition with a Gaussian water bump
// centred at (cx, cy) on a unit-depth lake — the classic dam-break-like
// test case (and a stand-in for a tropical depression).
func GaussianHill(nx, ny int, cx, cy, amp, sigma float64) InitFunc {
	return func(gx, gy int) (float64, float64, float64) {
		dx := float64(gx) - cx
		dy := float64(gy) - cy
		return 1.0 + amp*math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma)), 0, 0
	}
}

// Tile is one rank's rectangular portion of a domain, stored with a
// one-cell halo ring.
type Tile struct {
	GNX, GNY int // global domain dims
	X0, Y0   int // global origin of the owned region
	W, H     int // owned region dims
	P        Params

	// Double-buffered fields, (W+2)*(H+2) with halo.
	h, hu, hv    []float64
	nh, nhu, nhv []float64

	// Rolling per-row flux scratch for the flux-once kernel (DESIGN §9):
	// lines for rows y-1, y and y+1 of the sweep. Each cell's six flux
	// components are computed exactly once per step instead of four
	// times, with bit-identical results (same expressions, same inputs).
	flm, flc, flp *fluxLine
}

// fluxLine holds the six flux components of one halo-extended row
// (x = -1 .. W), indexed by x+1: F = (fh, fhu, fhv) is the x-direction
// flux, G = (gh, ghu, ghv) the y-direction flux.
type fluxLine struct {
	fh, fhu, fhv []float64
	gh, ghu, ghv []float64
}

// newFluxLine allocates a flux line for n cells in one backing slab.
func newFluxLine(n int) *fluxLine {
	b := make([]float64, 6*n)
	return &fluxLine{
		fh: b[0:n], fhu: b[n : 2*n], fhv: b[2*n : 3*n],
		gh: b[3*n : 4*n], ghu: b[4*n : 5*n], ghv: b[5*n : 6*n],
	}
}

// Errors returned by the tile operations.
var (
	ErrBadTile   = errors.New("solver: tile outside global domain")
	ErrBadDecomp = errors.New("solver: decomposition mismatch")
)

// NewTile creates a tile for the owned region [x0, x0+w) x [y0, y0+h).
func NewTile(gnx, gny, x0, y0, w, h int, p Params) (*Tile, error) {
	if w <= 0 || h <= 0 || x0 < 0 || y0 < 0 || x0+w > gnx || y0+h > gny {
		return nil, fmt.Errorf("%w: [%d,%d)+%dx%d in %dx%d", ErrBadTile, x0, y0, w, h, gnx, gny)
	}
	n := (w + 2) * (h + 2)
	return &Tile{
		GNX: gnx, GNY: gny, X0: x0, Y0: y0, W: w, H: h, P: p,
		h: make([]float64, n), hu: make([]float64, n), hv: make([]float64, n),
		nh: make([]float64, n), nhu: make([]float64, n), nhv: make([]float64, n),
		flm: newFluxLine(w + 2), flc: newFluxLine(w + 2), flp: newFluxLine(w + 2),
	}, nil
}

// idx returns the buffer index of local cell (x, y), where (0,0) is the
// first owned cell and -1/W..H are halo positions.
func (t *Tile) idx(x, y int) int { return (y+1)*(t.W+2) + (x + 1) }

// Fill sets the owned region from the initial condition.
func (t *Tile) Fill(f InitFunc) {
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			i := t.idx(x, y)
			t.h[i], t.hu[i], t.hv[i] = f(t.X0+x, t.Y0+y)
		}
	}
}

// Interior copies the owned region into a state fragment at its global
// position within dst (dst must be the full-domain size).
func (t *Tile) Interior(dst *State) {
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			i := t.idx(x, y)
			j := dst.At(t.X0+x, t.Y0+y)
			dst.H[j], dst.HU[j], dst.HV[j] = t.h[i], t.hu[i], t.hv[i]
		}
	}
}

// Mass returns the owned region's water volume.
func (t *Tile) Mass() float64 {
	var m float64
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			m += t.h[t.idx(x, y)]
		}
	}
	return m
}

// SetReflective fills halo cells on global domain edges with reflective
// (free-slip wall) boundary values: height mirrored, normal momentum
// negated.
func (t *Tile) SetReflective() {
	if t.X0 == 0 {
		for y := -1; y <= t.H; y++ {
			src, dst := t.idx(0, y), t.idx(-1, y)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], -t.hu[src], t.hv[src]
		}
	}
	if t.X0+t.W == t.GNX {
		for y := -1; y <= t.H; y++ {
			src, dst := t.idx(t.W-1, y), t.idx(t.W, y)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], -t.hu[src], t.hv[src]
		}
	}
	if t.Y0 == 0 {
		for x := -1; x <= t.W; x++ {
			src, dst := t.idx(x, 0), t.idx(x, -1)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], t.hu[src], -t.hv[src]
		}
	}
	if t.Y0+t.H == t.GNY {
		for x := -1; x <= t.W; x++ {
			src, dst := t.idx(x, t.H-1), t.idx(x, t.H)
			t.h[dst], t.hu[dst], t.hv[dst] = t.h[src], t.hu[src], -t.hv[src]
		}
	}
}

// SetHaloCell sets one halo (or interior) cell by local coordinates;
// used by the nesting coupler to impose parent-interpolated boundary
// conditions.
func (t *Tile) SetHaloCell(x, y int, h, hu, hv float64) {
	i := t.idx(x, y)
	t.h[i], t.hu[i], t.hv[i] = h, hu, hv
}

// Cell returns the values of a local cell (halo positions allowed).
func (t *Tile) Cell(x, y int) (h, hu, hv float64) {
	i := t.idx(x, y)
	return t.h[i], t.hu[i], t.hv[i]
}

// Step advances the owned region one time step with the configured
// scheme, assuming halos are current.
func (t *Tile) Step() {
	if t.P.Scheme == Richtmyer {
		t.stepRichtmyer()
		return
	}
	t.stepLF()
}

// fillFluxLine evaluates the six flux components of every cell of the
// halo-extended row y into ln. The expressions are exactly those of the
// closure-based reference kernel's flux function, so the stored values
// are bit-for-bit the values it recomputes at each of a cell's four uses.
func (t *Tile) fillFluxLine(y int, ln *fluxLine) {
	g := t.P.G
	base := (y + 1) * (t.W + 2) // == t.idx(-1, y)
	for j := 0; j <= t.W+1; j++ {
		i := base + j
		h := t.h[i]
		if h <= 0 {
			ln.fh[j], ln.fhu[j], ln.fhv[j] = 0, 0, 0
			ln.gh[j], ln.ghu[j], ln.ghv[j] = 0, 0, 0
			continue
		}
		hu, hv := t.hu[i], t.hv[i]
		u, v := hu/h, hv/h
		p := 0.5 * g * h * h
		ln.fh[j], ln.fhu[j], ln.fhv[j] = hu, hu*u+p, hu*v
		ln.gh[j], ln.ghu[j], ln.ghv[j] = hv, hv*u, hv*v+p
	}
}

// stepLF is the flux-once Lax-Friedrichs kernel: a rolling window of
// three per-row flux lines replaces the reference kernel's four flux
// recomputations per cell. Output is bit-identical to stepLFReference
// (fastpath_test.go) by construction; TestFastKernelMatchesReference
// enforces MaxDiff == 0.
func (t *Tile) stepLF() {
	lx := t.P.Dt / (2 * t.P.Dx)
	fcor := t.P.F * t.P.Dt
	drag := t.P.Drag * t.P.Dt
	stride := t.W + 2
	lm, lc, lp := t.flm, t.flc, t.flp
	t.fillFluxLine(-1, lm)
	t.fillFluxLine(0, lc)
	t.fillFluxLine(1, lp)
	for y := 0; y < t.H; y++ {
		row := (y + 1) * stride
		for x := 0; x < t.W; x++ {
			c := row + x + 1
			e, w := c+1, c-1
			n, s := c+stride, c-stride
			j := x + 1

			feh, fehu, fehv := lc.fh[j+1], lc.fhu[j+1], lc.fhv[j+1]
			fwh, fwhu, fwhv := lc.fh[j-1], lc.fhu[j-1], lc.fhv[j-1]
			gnh, gnhu, gnhv := lp.gh[j], lp.ghu[j], lp.ghv[j]
			gsh, gshu, gshv := lm.gh[j], lm.ghu[j], lm.ghv[j]

			nh := 0.25*(t.h[e]+t.h[w]+t.h[n]+t.h[s]) - lx*((feh-fwh)+(gnh-gsh))
			nhu := 0.25*(t.hu[e]+t.hu[w]+t.hu[n]+t.hu[s]) - lx*((fehu-fwhu)+(gnhu-gshu))
			nhv := 0.25*(t.hv[e]+t.hv[w]+t.hv[n]+t.hv[s]) - lx*((fehv-fwhv)+(gnhv-gshv))
			if fcor != 0 {
				// Coriolis source terms: du/dt = +f v, dv/dt = -f u, applied
				// to the provisional momenta (point-local, so parallel runs
				// stay bit-identical to serial).
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
		if y+1 < t.H {
			// Row y+2 <= H is always a valid halo-extended row.
			lm, lc, lp = lc, lp, lm
			t.fillFluxLine(y+2, lp)
		}
	}
	t.h, t.nh = t.nh, t.h
	t.hu, t.nhu = t.nhu, t.hu
	t.hv, t.nhv = t.nhv, t.hv
}

// Halo-exchange tags: one per direction so concurrent exchanges match
// deterministically.
const (
	tagEast = iota + 100
	tagWest
	tagNorth
	tagSouth
)

// dirTag maps a direction to its halo tag (indexed by vtopo.Direction).
var dirTag = [4]int{
	vtopo.West:  tagWest,
	vtopo.East:  tagEast,
	vtopo.South: tagSouth,
	vtopo.North: tagNorth,
}

// edgeCells returns the number of boundary cells on the given edge.
func (t *Tile) edgeCells(dir vtopo.Direction) int {
	if dir == vtopo.West || dir == vtopo.East {
		return t.H
	}
	return t.W
}

// packEdge writes the owned boundary row/column facing dir into buf
// (3 values per cell).
func (t *Tile) packEdge(dir vtopo.Direction, buf []float64) {
	switch dir {
	case vtopo.West:
		for y := 0; y < t.H; y++ {
			i := t.idx(0, y)
			buf[3*y], buf[3*y+1], buf[3*y+2] = t.h[i], t.hu[i], t.hv[i]
		}
	case vtopo.East:
		for y := 0; y < t.H; y++ {
			i := t.idx(t.W-1, y)
			buf[3*y], buf[3*y+1], buf[3*y+2] = t.h[i], t.hu[i], t.hv[i]
		}
	case vtopo.South:
		for x := 0; x < t.W; x++ {
			i := t.idx(x, 0)
			buf[3*x], buf[3*x+1], buf[3*x+2] = t.h[i], t.hu[i], t.hv[i]
		}
	default: // North
		for x := 0; x < t.W; x++ {
			i := t.idx(x, t.H-1)
			buf[3*x], buf[3*x+1], buf[3*x+2] = t.h[i], t.hu[i], t.hv[i]
		}
	}
}

// unpackEdge writes a neighbour's boundary data into the halo cells
// facing dir.
func (t *Tile) unpackEdge(dir vtopo.Direction, data []float64) {
	switch dir {
	case vtopo.West:
		for y := 0; y < t.H; y++ {
			i := t.idx(-1, y)
			t.h[i], t.hu[i], t.hv[i] = data[3*y], data[3*y+1], data[3*y+2]
		}
	case vtopo.East:
		for y := 0; y < t.H; y++ {
			i := t.idx(t.W, y)
			t.h[i], t.hu[i], t.hv[i] = data[3*y], data[3*y+1], data[3*y+2]
		}
	case vtopo.South:
		for x := 0; x < t.W; x++ {
			i := t.idx(x, -1)
			t.h[i], t.hu[i], t.hv[i] = data[3*x], data[3*x+1], data[3*x+2]
		}
	default: // North
		for x := 0; x < t.W; x++ {
			i := t.idx(x, t.H)
			t.h[i], t.hu[i], t.hv[i] = data[3*x], data[3*x+1], data[3*x+2]
		}
	}
}

// Exchange performs the 4-neighbour halo exchange over the
// communicator, whose ranks form the given process grid (local rank i
// at grid position (i%Px, i/Px)). Ranks on domain edges fill reflective
// boundaries instead.
//
// It is allocation-free in steady state: edges are packed into pooled
// payloads sent with ownership transfer, and received payloads are
// recycled after unpacking. Because sends are eager in this runtime,
// posting all sends first and then receiving in fixed direction order
// yields the virtual times of any receive order (total wait telescopes
// to the latest arrival).
func (t *Tile) Exchange(c *mpi.Comm, grid vtopo.Grid) error {
	me := c.Rank()
	for d := vtopo.West; d <= vtopo.North; d++ {
		nb := grid.Neighbor(me, d)
		if nb < 0 {
			continue
		}
		buf := c.AllocPayload(3 * t.edgeCells(d))
		t.packEdge(d, buf)
		c.SendOwned(nb, dirTag[d], buf)
	}
	for d := vtopo.West; d <= vtopo.North; d++ {
		nb := grid.Neighbor(me, d)
		if nb < 0 {
			continue
		}
		// The neighbour's message towards us carries the tag of the
		// direction it sent (its d.Opposite() is our d).
		data, err := c.Recv(nb, dirTag[d.Opposite()])
		if err != nil {
			return err
		}
		t.unpackEdge(d, data)
		c.FreePayload(data)
	}
	t.SetReflective()
	return nil
}

// Decompose returns the owned rectangle of local rank r in a Px x Py
// block decomposition of an nx x ny domain: start/size with remainders
// spread over the leading ranks.
func Decompose(nx, ny int, grid vtopo.Grid, r int) (x0, y0, w, h int) {
	px, py := grid.Px, grid.Py
	cx, cy := grid.Coord(r)
	w, x0 = share(nx, px, cx)
	h, y0 = share(ny, py, cy)
	return x0, y0, w, h
}

func share(n, parts, i int) (size, start int) {
	base := n / parts
	rem := n % parts
	size = base
	if i < rem {
		size++
	}
	start = i*base + min(i, rem)
	return size, start
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RunSerial integrates the full domain on a single tile for the given
// number of steps and returns the final state — the reference solution
// for parallel-equivalence tests.
func RunSerial(nx, ny, steps int, p Params, init InitFunc) (*State, error) {
	t, err := NewTile(nx, ny, 0, 0, nx, ny, p)
	if err != nil {
		return nil, err
	}
	t.Fill(init)
	for s := 0; s < steps; s++ {
		t.SetReflective()
		t.Step()
	}
	out := NewState(nx, ny)
	t.Interior(out)
	return out, nil
}

// Gather assembles the full state from every rank's tile at local rank
// 0 of the communicator; other ranks receive nil. Payloads travel as
// pooled owned buffers and are recycled at the root after decoding.
func Gather(c *mpi.Comm, t *Tile) (*State, error) {
	// Payload: x0, y0, w, h, then fields.
	payload := c.AllocPayload(4 + 3*t.W*t.H)
	payload[0], payload[1] = float64(t.X0), float64(t.Y0)
	payload[2], payload[3] = float64(t.W), float64(t.H)
	k := 4
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			i := t.idx(x, y)
			payload[k], payload[k+1], payload[k+2] = t.h[i], t.hu[i], t.hv[i]
			k += 3
		}
	}
	all, err := c.Gather(payload)
	if err != nil {
		return nil, err
	}
	if all == nil {
		return nil, nil
	}
	out := NewState(t.GNX, t.GNY)
	for _, d := range all {
		x0, y0 := int(d[0]), int(d[1])
		w, h := int(d[2]), int(d[3])
		if len(d) != 4+3*w*h {
			return nil, fmt.Errorf("%w: payload %d for %dx%d tile", ErrBadDecomp, len(d), w, h)
		}
		k := 4
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				j := out.At(x0+x, y0+y)
				out.H[j], out.HU[j], out.HV[j] = d[k], d[k+1], d[k+2]
				k += 3
			}
		}
		c.FreePayload(d)
	}
	return out, nil
}
