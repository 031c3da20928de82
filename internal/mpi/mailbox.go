package mpi

import "sync"

// The runtime's message path (DESIGN.md Section 13): per-rank mailbox
// locks, an atomic packed (blocked, queued) counter pair, and a
// slow-path deadlock detector. Lock order is strictly mailbox-at-a-time —
// no code path ever holds two mailbox locks — and the detector mutex
// is only ever taken with no mailbox lock held, so the runtime is
// trivially deadlock-free itself.

// queuedMask extracts the queued half of World.packed; the blocked
// half lives in the upper 32 bits.
const queuedMask = (1 << 32) - 1

// mailbox is one rank's receive state: its queues, its private lock,
// and the condition variable only the owning rank ever waits on.
// Senders lock exactly the destination mailbox, so traffic between
// disjoint rank pairs never contends, and a delivery wakes exactly the
// receiving rank.
type mailbox struct {
	mu    sync.Mutex
	cond  sync.Cond // L is &mu, set at world setup
	boxes map[matchKey]*msgq

	// waiting describes the receive this rank is currently blocked on,
	// valid while the rank is counted in the blocked half of
	// World.packed; it feeds the deadlock report's sample.
	waiting           bool
	wsrc, wtag, wcomm int

	// Pad mailboxes apart so neighboring ranks' hot send/recv locks do
	// not false-share one cache line.
	_ [24]byte
}

// send queues msg for dst. The queued counter is incremented
// before the message becomes visible, so the deadlock predicate
// (blocked >= alive && queued == 0) can never hold while a delivery is
// in flight.
func (w *World) send(dst int, key matchKey, msg *message) {
	w.packed.Add(1)
	mb := &w.mboxes[dst]
	mb.mu.Lock()
	q, ok := mb.boxes[key]
	if !ok {
		q = &msgq{}
		mb.boxes[key] = q
	}
	q.q = append(q.q, msg)
	mb.cond.Signal()
	mb.mu.Unlock()
}

// recv blocks rank p until a message matching key is available.
//
// Counter protocol: on first finding the queue empty the receiver
// atomically enters the blocked count (and publishes what it waits on
// under its mailbox lock); when a blocked receiver finally consumes a
// message it leaves the blocked count and consumes the queued count in
// ONE atomic add, so no interleaving shows "everyone blocked, nothing
// queued" while a handoff is mid-flight.
//
// Deadlock check ordering: alive is loaded BEFORE packed. alive only
// decreases, so a stale value can only make the predicate harder to
// satisfy (under-detect); every rank exit re-wakes all waiters to
// re-check, so detection is never lost — and a false positive is
// impossible without a mailbox-lock-free proof, which is why a
// positive fast-path check is re-confirmed under detectMu in
// declareDeadlock before anything is declared.
func (w *World) recv(p *Proc, key matchKey) (*message, error) {
	mb := &w.mboxes[p.rank]
	blocked := false
	mb.mu.Lock()
	for {
		if q, ok := mb.boxes[key]; ok && q.head < len(q.q) {
			msg := q.pop()
			if blocked {
				mb.waiting = false
				w.packed.Add(-(1 << 32) - 1) // leave blocked, consume queued
			} else {
				w.packed.Add(-1)
			}
			mb.mu.Unlock()
			return msg, nil
		}
		if w.failed.Load() {
			if blocked {
				mb.waiting = false
				w.packed.Add(-(1 << 32))
			}
			mb.mu.Unlock()
			return nil, w.failErr
		}
		if !blocked {
			blocked = true
			mb.waiting = true
			mb.wsrc, mb.wtag, mb.wcomm = key.src, key.tag, key.comm
			w.packed.Add(1 << 32)
		}
		alive := w.alive.Load()
		st := w.packed.Load()
		if st>>32 >= alive && st&queuedMask == 0 {
			// Possible deadlock. Confirm and declare outside the mailbox
			// lock; stay counted as blocked meanwhile so the predicate
			// keeps holding for the confirmation re-check.
			mb.mu.Unlock()
			err := w.declareDeadlock()
			mb.mu.Lock()
			if err != nil {
				mb.waiting = false
				w.packed.Add(-(1 << 32))
				mb.mu.Unlock()
				return nil, err
			}
			continue // raced with a delivery; re-scan the queue
		}
		mb.cond.Wait()
	}
}

// declareDeadlock re-confirms the deadlock predicate under detectMu
// with fresh counter loads and, if it still holds, builds the rich
// error, marks the world failed and wakes every rank. It returns nil
// when the caller's lock-free observation raced with a concurrent
// delivery, and the already-recorded failure when another rank
// declared first.
func (w *World) declareDeadlock() error {
	w.detectMu.Lock()
	defer w.detectMu.Unlock()
	if w.failed.Load() {
		return w.failErr
	}
	alive := w.alive.Load()
	st := w.packed.Load()
	if !(st>>32 >= alive && st&queuedMask == 0) {
		return nil
	}
	err := w.deadlockError(int(st>>32), int(alive))
	w.failErr = err
	w.failed.Store(true)
	w.wakeAll()
	return err
}

// deadlockError samples what the blocked ranks are waiting on.
// Called under detectMu (never with a mailbox lock held).
func (w *World) deadlockError(blocked, alive int) error {
	e := &DeadlockError{Blocked: blocked, Alive: alive}
	for r := range w.mboxes {
		if len(e.Sample) == deadlockSampleCap {
			break
		}
		mb := &w.mboxes[r]
		mb.mu.Lock()
		if mb.waiting {
			e.Sample = append(e.Sample, RankWait{Rank: r, Src: mb.wsrc, Tag: mb.wtag, Comm: mb.wcomm})
		}
		mb.mu.Unlock()
	}
	return e
}

// wakeAll broadcasts every rank's condition variable, locking
// each mailbox in turn so a waiter between its predicate check and its
// cond.Wait cannot miss the wakeup. Failure/exit paths only — never in
// steady state.
func (w *World) wakeAll() {
	for r := range w.mboxes {
		mb := &w.mboxes[r]
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}
