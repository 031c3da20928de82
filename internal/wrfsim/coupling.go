package wrfsim

import (
	"fmt"
	"sort"

	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/solver"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/vtopo"
)

// floorDiv is integer division rounding toward negative infinity, used
// to map child halo coordinates (which can be -1) to parent cells.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ownerOf returns the rank (in the given process grid) owning global
// cell (gx, gy) of an nx x ny domain under the block decomposition of
// solver.Decompose.
func ownerOf(nx, ny int, grid vtopo.Grid, gx, gy int) int {
	return grid.Rank(ownerIdx(nx, grid.Px, gx), ownerIdx(ny, grid.Py, gy))
}

// ownerIdx inverts solver.Decompose's share function along one
// dimension.
func ownerIdx(n, parts, g int) int {
	base := n / parts
	rem := n % parts
	// The first rem parts have size base+1.
	bound := rem * (base + 1)
	if g < bound {
		return g / (base + 1)
	}
	if base == 0 {
		return rem // degenerate: more parts than cells
	}
	return rem + (g-bound)/base
}

// bcTransfer is one (src, dst) message of the boundary-condition
// exchange: parent cells read at src, halo cells written at dst.
type bcTransfer struct {
	src, dst int      // world ranks
	pcells   [][2]int // parent global cells, in message order
	hcells   [][2]int // child halo cells (child-global), in message order
}

// haloRing enumerates the child's halo-ring cells in canonical order.
func haloRing(c *nest.Domain) [][2]int {
	var out [][2]int
	for x := -1; x <= c.NX; x++ {
		out = append(out, [2]int{x, -1}, [2]int{x, c.NY})
	}
	for y := 0; y < c.NY; y++ {
		out = append(out, [2]int{-1, y}, [2]int{c.NX, y})
	}
	return out
}

// bcPlan indexes a nest's BC transfer pattern by world rank, so each
// rank walks only its own sends and receives instead of scanning the
// full pattern (which is O(world) per rank per step at scale). Both
// lists preserve global pattern order, so per-rank message order — and
// therefore every virtual clock — is identical to a filtered scan of
// the full pattern.
type bcPlan struct {
	send [][]*bcTransfer // by world rank: transfers sourced there (incl. self)
	recv [][]*bcTransfer // by world rank: remote transfers received there
}

// newBCPlan indexes pattern by rank.
func newBCPlan(pattern []*bcTransfer, nranks int) *bcPlan {
	p := &bcPlan{
		send: make([][]*bcTransfer, nranks),
		recv: make([][]*bcTransfer, nranks),
	}
	for _, tr := range pattern {
		p.send[tr.src] = append(p.send[tr.src], tr)
		if tr.dst != tr.src {
			p.recv[tr.dst] = append(p.recv[tr.dst], tr)
		}
	}
	return p
}

// bcPattern computes the full deterministic BC exchange pattern of one
// nest: which world rank sends which parent cells to which world rank.
// It depends only on the domain geometry and process grids, so Run
// builds it once (indexed by rank, see bcPlan) and shares it read-only
// across ranks.
func bcPattern(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) []*bcTransfer {
	byPair := map[[2]int]*bcTransfer{}
	var order [][2]int
	for _, hc := range haloRing(c) {
		hx, hy := hc[0], hc[1]
		// Owning child rank: the tile adjacent to the halo cell.
		ox := clampInt(hx, 0, c.NX-1)
		oy := clampInt(hy, 0, c.NY-1)
		childLocal := ownerOf(c.NX, c.NY, cgrid, ox, oy)
		dst := cworld[childLocal]
		// Parent cell supplying the value.
		pgx := clampInt(c.OffX+floorDiv(hx, c.Ratio), 0, cfg.NX-1)
		pgy := clampInt(c.OffY+floorDiv(hy, c.Ratio), 0, cfg.NY-1)
		src := ownerOf(cfg.NX, cfg.NY, grid, pgx, pgy)
		key := [2]int{src, dst}
		tr, ok := byPair[key]
		if !ok {
			tr = &bcTransfer{src: src, dst: dst}
			byPair[key] = tr
			order = append(order, key)
		}
		tr.pcells = append(tr.pcells, [2]int{pgx, pgy})
		tr.hcells = append(tr.hcells, [2]int{hx, hy})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	out := make([]*bcTransfer, len(order))
	for i, k := range order {
		out[i] = byPair[k]
	}
	return out
}

// exchangeBC moves parent boundary values to the nest's halo owners and
// stores them in nc.bc (cleared first). Every rank participates as a
// potential sender; only nest members receive.
//
// It walks the plan cached on the nest context (built once in Run) and
// moves payloads through the pooled owned-send path, so a steady-state
// coupling step performs no allocations.
func exchangeBC(world *mpi.Comm, parent *solver.Tile, nc *nestCtx) error {
	if nc.tracer.Recording() {
		sp := nc.tracer.Start(nc.span, "bc:"+nc.d.Name, telemetry.LayerPhase)
		defer sp.End()
	}
	me := world.Rank()
	tag := tagBC + nc.idx

	if nc.tile != nil {
		nc.bc = nc.bc[:0]
	}

	// Post sends (and handle self-transfers locally).
	for _, tr := range nc.bcPlan.send[me] {
		data := world.AllocPayload(3 * len(tr.pcells))
		for i, pc := range tr.pcells {
			data[3*i], data[3*i+1], data[3*i+2] = parent.Cell(pc[0]-parent.X0, pc[1]-parent.Y0)
		}
		if tr.dst == me {
			storeBC(nc, tr, data)
			world.FreePayload(data)
			continue
		}
		world.SendOwned(tr.dst, tag, data)
	}
	// Receive in deterministic pattern order.
	for _, tr := range nc.bcPlan.recv[me] {
		data, err := world.Recv(tr.src, tag)
		if err != nil {
			return err
		}
		if len(data) != 3*len(tr.pcells) {
			return fmt.Errorf("wrfsim: BC payload %d for %d cells", len(data), len(tr.pcells))
		}
		storeBC(nc, tr, data)
		world.FreePayload(data)
	}
	return nil
}

// storeBC appends received boundary values as local halo cells of the
// receiving rank's nest tile.
func storeBC(nc *nestCtx, tr *bcTransfer, data []float64) {
	t := nc.tile
	for i, hc := range tr.hcells {
		nc.bc = append(nc.bc, bcCell{
			lx: hc[0] - t.X0,
			ly: hc[1] - t.Y0,
			h:  data[3*i],
			hu: data[3*i+1],
			hv: data[3*i+2],
		})
	}
}

// fbEntry is one parent cell's feedback contribution from one child
// rank: the intersection of the child-cell block with that rank's tile.
// The message carries the raw child cells of the rectangle (row-major,
// 3 values per cell) rather than a partial sum, so the parent owner can
// accumulate every block in one canonical order — the property that
// makes feedback, and therefore the whole functional run, bit-identical
// across process decompositions.
type fbEntry struct {
	pcell  [2]int // parent global cell
	x0, y0 int    // child-global intersection origin
	w, h   int
	off    int // float offset of this entry's cells in the transfer payload
}

// fbTransfer is one (src, dst) message of the feedback exchange.
type fbTransfer struct {
	src, dst int
	entries  []fbEntry
	floats   int // payload length: 3 * total cells
	slot     int // index in dst's inbox (the per-rank payload stash)
}

// fbCellRef locates one child cell's (h, hu, hv) triple inside the
// step's received payloads: the destination rank's inbox slot and the
// float offset within that payload. Slots are per destination rank, so
// a rank's stash is sized by its own inbox, not the nest's global
// transfer count — the latter made per-rank stash memory O(world) and
// the whole run O(world²) at startup.
type fbCellRef struct {
	slot int32
	off  int32
}

// fbOwnedCell is the accumulation recipe for one parent cell owned by
// this rank: its child-block cells in canonical (child-global
// row-major) order, pre-resolved to payload positions.
type fbOwnedCell struct {
	lx, ly int     // parent-local coordinates
	n      float64 // block cell count (the averaging denominator)
	srcs   []fbCellRef
}

// fbPlan is the complete precomputed feedback exchange of one nest:
// the deterministic transfer pattern plus every rank's canonical
// accumulation recipe. It depends only on the domain geometry and
// process grids, so Run builds it once and shares it read-only across
// ranks (per-step payload stashes live on the rank's nestCtx).
type fbPlan struct {
	transfers   []*fbTransfer
	ownedByRank [][]fbOwnedCell // indexed by parent world rank
	// Per-rank indexes over transfers, in global pattern order (so
	// per-rank message order matches a filtered scan of transfers):
	// sendByRank includes self-transfers, recvByRank excludes them, and
	// inboxLen is each rank's stash size (slots cover both).
	sendByRank [][]*fbTransfer
	recvByRank [][]*fbTransfer
	inboxLen   []int
}

// buildFBPlan computes the feedback plan of one nest.
func buildFBPlan(cfg *nest.Domain, grid vtopo.Grid, c *nest.Domain, cgrid vtopo.Grid, cworld []int) *fbPlan {
	byPair := map[[2]int]*fbTransfer{}
	var order [][2]int
	// Child tile rectangles by nest-local rank.
	tiles := make([][4]int, cgrid.Size())
	for r := range tiles {
		x0, y0, w, h := solver.Decompose(c.NX, c.NY, cgrid, r)
		tiles[r] = [4]int{x0, y0, w, h}
	}
	// entryRef remembers where the entry of (parent cell, child world
	// rank) landed, for resolving the accumulation recipe below.
	type entryKey struct{ px, py, src int }
	type entryLoc struct {
		pair [2]int
		ei   int
	}
	entryRef := map[entryKey]entryLoc{}
	for py := c.OffY; py < c.OffY+c.FootprintY(); py++ {
		for px := c.OffX; px < c.OffX+c.FootprintX(); px++ {
			dst := ownerOf(cfg.NX, cfg.NY, grid, px, py)
			// Child-cell block of this parent cell.
			bx0 := (px - c.OffX) * c.Ratio
			by0 := (py - c.OffY) * c.Ratio
			bx1 := min(bx0+c.Ratio, c.NX)
			by1 := min(by0+c.Ratio, c.NY)
			for r, tl := range tiles {
				ix0 := max(bx0, tl[0])
				iy0 := max(by0, tl[1])
				ix1 := min(bx1, tl[0]+tl[2])
				iy1 := min(by1, tl[1]+tl[3])
				if ix0 >= ix1 || iy0 >= iy1 {
					continue
				}
				src := cworld[r]
				key := [2]int{src, dst}
				tr, ok := byPair[key]
				if !ok {
					tr = &fbTransfer{src: src, dst: dst}
					byPair[key] = tr
					order = append(order, key)
				}
				entryRef[entryKey{px, py, src}] = entryLoc{pair: key, ei: len(tr.entries)}
				tr.entries = append(tr.entries, fbEntry{
					pcell: [2]int{px, py},
					x0:    ix0, y0: iy0, w: ix1 - ix0, h: iy1 - iy0,
				})
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	nranks := grid.Size()
	plan := &fbPlan{
		transfers:  make([]*fbTransfer, len(order)),
		sendByRank: make([][]*fbTransfer, nranks),
		recvByRank: make([][]*fbTransfer, nranks),
		inboxLen:   make([]int, nranks),
	}
	for i, k := range order {
		tr := byPair[k]
		tr.slot = plan.inboxLen[tr.dst]
		plan.inboxLen[tr.dst]++
		plan.sendByRank[tr.src] = append(plan.sendByRank[tr.src], tr)
		if tr.dst != tr.src {
			plan.recvByRank[tr.dst] = append(plan.recvByRank[tr.dst], tr)
		}
		off := 0
		for ei := range tr.entries {
			tr.entries[ei].off = off
			off += 3 * tr.entries[ei].w * tr.entries[ei].h
		}
		tr.floats = off
		plan.transfers[i] = tr
	}

	// Accumulation recipe per owning parent rank: each block's cells in
	// child-global row-major order, regardless of how the nest is
	// decomposed. One pass over the footprint fills every rank's list.
	plan.ownedByRank = make([][]fbOwnedCell, grid.Size())
	origins := make([][2]int, grid.Size())
	for r := range origins {
		x0, y0, _, _ := solver.Decompose(cfg.NX, cfg.NY, grid, r)
		origins[r] = [2]int{x0, y0}
	}
	for py := c.OffY; py < c.OffY+c.FootprintY(); py++ {
		for px := c.OffX; px < c.OffX+c.FootprintX(); px++ {
			owner := ownerOf(cfg.NX, cfg.NY, grid, px, py)
			bx0 := (px - c.OffX) * c.Ratio
			by0 := (py - c.OffY) * c.Ratio
			bx1 := min(bx0+c.Ratio, c.NX)
			by1 := min(by0+c.Ratio, c.NY)
			srcs := make([]fbCellRef, 0, (bx1-bx0)*(by1-by0))
			for cy := by0; cy < by1; cy++ {
				for cx := bx0; cx < bx1; cx++ {
					src := cworld[ownerOf(c.NX, c.NY, cgrid, cx, cy)]
					loc := entryRef[entryKey{px, py, src}]
					tr := byPair[loc.pair]
					e := &tr.entries[loc.ei]
					off := e.off + 3*((cy-e.y0)*e.w+(cx-e.x0))
					srcs = append(srcs, fbCellRef{slot: int32(tr.slot), off: int32(off)})
				}
			}
			plan.ownedByRank[owner] = append(plan.ownedByRank[owner], fbOwnedCell{
				lx: px - origins[owner][0], ly: py - origins[owner][1],
				n:    float64((bx1 - bx0) * (by1 - by0)),
				srcs: srcs,
			})
		}
	}
	return plan
}

// exchangeFeedback averages each nest's solution back onto the parent
// cells it overlaps: child owners send their cells of each block, and
// the parent owner accumulates every block in canonical child-global
// row-major order before normalizing, reusing the plan cached on the
// nest context and pooled payload buffers.
func exchangeFeedback(world *mpi.Comm, parent *solver.Tile, nc *nestCtx) error {
	if nc.tracer.Recording() {
		sp := nc.tracer.Start(nc.span, "fb:"+nc.d.Name, telemetry.LayerPhase)
		defer sp.End()
	}
	return runFeedback(world, parent, nc, nc.fbPlan, nc.fbPayloads, tagFeedback+nc.idx)
}

// runFeedback executes one feedback exchange according to plan, using
// payloads as this rank's inbox stash (one slot per incoming transfer,
// including self-transfers) for the step's buffers.
func runFeedback(world *mpi.Comm, parent *solver.Tile, nc *nestCtx, plan *fbPlan, payloads [][]float64, tag int) error {
	me := world.Rank()
	t := nc.tile

	// Sends (self-transfers stash their payload directly).
	for _, tr := range plan.sendByRank[me] {
		buf := world.AllocPayload(tr.floats)
		k := 0
		for _, e := range tr.entries {
			for y := e.y0; y < e.y0+e.h; y++ {
				for x := e.x0; x < e.x0+e.w; x++ {
					buf[k], buf[k+1], buf[k+2] = t.Cell(x-t.X0, y-t.Y0)
					k += 3
				}
			}
		}
		if tr.dst == me {
			payloads[tr.slot] = buf
			continue
		}
		world.SendOwned(tr.dst, tag, buf)
	}
	// Receive in deterministic pattern order.
	for _, tr := range plan.recvByRank[me] {
		data, err := world.Recv(tr.src, tag)
		if err != nil {
			return err
		}
		if len(data) != tr.floats {
			return fmt.Errorf("wrfsim: feedback payload %d floats, want %d", len(data), tr.floats)
		}
		payloads[tr.slot] = data
	}

	// Canonical accumulation into the owned parent cells.
	owned := plan.ownedByRank[me]
	for i := range owned {
		oc := &owned[i]
		var h, hu, hv float64
		for _, ref := range oc.srcs {
			p := payloads[ref.slot]
			h += p[ref.off]
			hu += p[ref.off+1]
			hv += p[ref.off+2]
		}
		parent.SetHaloCell(oc.lx, oc.ly, h/oc.n, hu/oc.n, hv/oc.n)
	}

	// Recycle the step's payloads.
	for i, b := range payloads {
		if b == nil {
			continue
		}
		world.FreePayload(b)
		payloads[i] = nil
	}
	return nil
}

// collectStates gathers the parent and all nest states at world rank 0.
func collectStates(world *mpi.Comm, grid vtopo.Grid, parent *solver.Tile, nests []*nestCtx, out *Output) error {
	st, err := solver.Gather(world, parent)
	if err != nil {
		return err
	}
	if st != nil {
		out.Parent = st
	}
	for i, nc := range nests {
		tag := tagState + i
		if nc.tile != nil {
			sub, err := solver.Gather(nc.comm, nc.tile)
			if err != nil {
				return err
			}
			if sub != nil { // nest-comm root
				root := nc.world[0]
				if root == 0 {
					out.Nests[i] = sub
					continue
				}
				if world.Rank() == root {
					world.Send(0, tag, encodeState(sub))
				}
			}
		}
		if world.Rank() == 0 && nc.world[0] != 0 {
			data, err := world.Recv(nc.world[0], tag)
			if err != nil {
				return err
			}
			out.Nests[i] = decodeState(data)
		}
	}
	return nil
}

func encodeState(s *solver.State) []float64 {
	out := make([]float64, 0, 2+3*len(s.H))
	out = append(out, float64(s.NX), float64(s.NY))
	out = append(out, s.H...)
	out = append(out, s.HU...)
	out = append(out, s.HV...)
	return out
}

func decodeState(d []float64) *solver.State {
	nx, ny := int(d[0]), int(d[1])
	n := nx * ny
	s := solver.NewState(nx, ny)
	copy(s.H, d[2:2+n])
	copy(s.HU, d[2+n:2+2*n])
	copy(s.HV, d[2+2*n:2+3*n])
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
