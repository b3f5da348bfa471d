package fpga

import "math/bits"

// worklist is the dirty-LUT worklist shared by both settle kernels: two
// bitsets over topological-order positions. cur holds the running round,
// next the round after it. A round drains cur in ascending position, which
// is the sweep kernel's in-place evaluation order, so one round is one sweep.
//
// A touch from cursor p of a LUT at position q joins the current round when
// q > p (the sweep would still reach it this pass) and the next round
// otherwise. Set semantics replace a per-LUT state machine exactly: a LUT
// pending for the next round always sits at or behind the cursor, so it is
// never also touched ahead of it, and a LUT still waiting in cur always sits
// ahead of the cursor. Outside a drain cur is empty, so scheduling lands in
// next. Positions are keys, so a new evaluation order must remap next.
type worklist struct {
	cur, next []uint64
	// lo..hi is the dirty word range of next (lo > hi when empty).
	lo, hi int
	// at is the drain cursor word of cur, curHi its highest dirty word.
	at, curHi int
}

func newWorklist(positions int) worklist {
	words := (positions + 63) / 64
	return worklist{
		cur:  make([]uint64, words),
		next: make([]uint64, words),
		lo:   words,
		hi:   -1,
	}
}

// pending reports whether the next round holds any work.
func (w *worklist) pending() bool { return w.lo <= w.hi }

// schedule queues position q for the next round.
func (w *worklist) schedule(q int32) {
	i := int(q >> 6)
	w.next[i] |= 1 << uint(q&63)
	if i < w.lo {
		w.lo = i
	}
	if i > w.hi {
		w.hi = i
	}
}

// touch queues position q from inside a round whose cursor is at p: ahead
// of the cursor it joins the current round, otherwise the next one.
func (w *worklist) touch(q, p int32) {
	if q <= p {
		w.schedule(q)
		return
	}
	i := int(q >> 6)
	w.cur[i] |= 1 << uint(q&63)
	if i > w.curHi {
		w.curHi = i
	}
}

// promote starts a round: the next round becomes the current one.
func (w *worklist) promote() {
	w.cur, w.next = w.next, w.cur
	w.at, w.curHi = w.lo, w.hi
	w.lo, w.hi = len(w.next), -1
}

// pop removes and returns the lowest position of the current round, or -1
// once the round is drained. It re-reads the cursor word on every call, so
// a touch later in the same word is still visited in this round.
func (w *worklist) pop() int32 {
	for ; w.at <= w.curHi; w.at++ {
		if x := w.cur[w.at]; x != 0 {
			w.cur[w.at] = x & (x - 1)
			return int32(w.at<<6 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// clear drops all next-round work. Outside a drain cur is already empty.
func (w *worklist) clear() {
	for i := w.lo; i <= w.hi; i++ {
		w.next[i] = 0
	}
	w.lo, w.hi = len(w.next), -1
}

// remap re-keys next-round work after the evaluation order changed: the
// LUT at old position q (oldOrder[q]) moves to position newPos of it.
func (w *worklist) remap(oldOrder, newPos []int32) {
	lo, hi := w.lo, w.hi
	old := w.next
	w.cur, w.next = w.next, w.cur // cur is empty outside a drain
	w.lo, w.hi = len(w.next), -1
	for i := lo; i <= hi; i++ {
		for x := old[i]; x != 0; x &= x - 1 {
			w.schedule(newPos[oldOrder[i<<6+bits.TrailingZeros64(x)]])
		}
		old[i] = 0
	}
}

// clone returns an independent copy.
func (w *worklist) clone() worklist {
	c := *w
	c.cur = append([]uint64(nil), w.cur...)
	c.next = append([]uint64(nil), w.next...)
	return c
}
