package fpga

import (
	"repro/internal/device"
)

// Event-driven settling over 64-lane words: the vector image of the scalar
// activity kernel in event.go. Where the scalar sweep kernel of sim.go
// re-evaluates the whole active set once per sweep, this kernel keeps a
// dirty-LUT worklist at lane-word granularity — a net is dirty iff ANY
// lane's bit changed — and drains it in ascending topological-position
// order, so a Settle touches only logic downstream of actual switching
// activity.
//
// Exactness (per lane, against the scalar sweep trajectory of that lane's
// configuration):
//
//   - One worklist round corresponds to one sweep. Scheduled LUTs evaluate
//     in ascending position (the bitset worklist of worklist.go over
//     c.lutPos, shared with event.go); a change at position p reaches
//     consumers at q > p in the current round and consumers at q <= p in
//     the next — exactly the sweep's in-place evaluation order.
//   - The drained set is a SUPERSET of the changed set in every lane:
//     word-granularity dirtiness schedules a LUT when any lane's input
//     moved, and fanout subscription is the golden fanout CSR plus the
//     per-batch fanAdd side table covering every overlay-patched input. A
//     LUT whose inputs are unchanged in some lane re-evaluates to the same
//     bits there, so over-scheduling is an identity — the same argument
//     that lets overlay-activated LUTs evaluate in all lanes.
//   - Long lines refresh in-round via the golden byOutLL CSR plus overlay
//     llAddByOut edges (refreshLine applies per-lane patches itself), and
//     at end of round for lines whose inputs moved outside Settle — BRAM
//     output registers (bramLL marks them in Clock), overlay
//     installs/repairs — mirroring the scalar end-of-sweep refresh. Lines
//     whose drivers are all CLB outputs were refreshed in-round at every
//     driver change, so re-deriving them at end of round is a provable
//     no-op.
//   - Rounds are bounded by MaxSweeps, and a freeze leaves the pending
//     worklist in place so the next Settle resumes the identical
//     trajectory.
//
// frozenLanes gates convergence credit lane by lane. Convergence credit (board.LockedWord) must not trust a lane whose visible
// state hides pending worklist work, but a global backlog flag would make
// one lane's oscillation deny credit to unrelated lanes — and batch
// composition varies with chunk boundaries and worker count, so cycle
// accounting would stop being worker-invariant. Instead each Settle records
// the lanes that changed in its FINAL round: a lane quiet in the final
// round is at its per-lane fixpoint (pending LUTs were scheduled by final-
// round changes, which touched only final-round-changed lanes; every
// earlier inconsistency was evaluated away in the round after it arose), so
// masking exactly roundChanged-of-the-last-round when the drain ran the
// full MaxSweeps bound is both safe and a pure function of the lane's own
// trajectory: bit i is set iff lane i was still switching at sweep
// MaxSweeps, which the per-lane sweep equivalence makes batch-independent.

// FrozenLanes returns the lanes whose last Settle hit the MaxSweeps bound
// while they were still switching — lanes whose pending worklist encodes
// future behaviour their visible state alone does not.
func (v *Vector) FrozenLanes() uint64 { return v.frozenLanes }

// SetActiveMask freezes the lanes outside m: their flip-flops and BRAM
// output registers hold through Clock, so a retired lane generates no
// settling work while live lanes keep running. Retired lanes' visible state
// is never read by the batch scheduler, so freezing is outcome-neutral.
func (v *Vector) SetActiveMask(m uint64) { v.active = m }

// TakeKernelStats returns and zeroes the settle counters accumulated since
// the last call: rounds is worklist rounds drained (== sweeps of the
// equivalent sweep trajectory that performed work), drains is Settle calls
// that found work.
func (v *Vector) TakeKernelStats() (rounds, drains int64) {
	rounds, drains = v.statRounds, v.statDrains
	v.statRounds, v.statDrains = 0, 0
	return
}

// scheduleLUTVec queues LUT li for the next settle round. Safe from any
// mutation hook outside a round.
func (v *Vector) scheduleLUTVec(li int32) {
	v.work.schedule(v.c.lutPos[li])
}

// propagateVec schedules the consumers of just-changed net id from inside a
// round at position p: the golden fanout CSR plus the per-batch overlay
// subscriptions, with event.go's ordering rule.
func (v *Vector) propagateVec(id, p int32) {
	c := v.c
	for _, li := range c.fanLUT[c.fanStart[id]:c.fanStart[id+1]] {
		v.work.touch(c.lutPos[li], p)
	}
	for _, li := range v.fanAdd[id] {
		v.work.touch(c.lutPos[li], p)
	}
}

// scheduleNetConsumersVec queues every consumer of net id for the next
// round — the between-rounds/between-Settles variant of propagateVec.
func (v *Vector) scheduleNetConsumersVec(id int32) {
	c := v.c
	for _, li := range c.fanLUT[c.fanStart[id]:c.fanStart[id+1]] {
		v.scheduleLUTVec(li)
	}
	for _, li := range v.fanAdd[id] {
		v.scheduleLUTVec(li)
	}
}

// markLLStaleVec flags long line ll for an end-of-round refresh: its value
// inputs changed outside the in-round driver edges (BRAM output register,
// overlay install or repair) in the given lanes. Triggered refreshes
// consult the per-lane pending mask to hold lanes whose out-of-band change
// must not become visible before the end-of-round refresh, matching the
// scalar witness's end-of-sweep timing.
func (v *Vector) markLLStaleVec(ll int32, lanes uint64) {
	v.llPendW[ll] |= lanes
	if !v.staleLLMark[ll] {
		v.staleLLMark[ll] = true
		v.staleLL = append(v.staleLL, ll)
	}
}

// addFanAddEdge subscribes LUT li to net id for this batch: an overlay
// patched li's input list to read id, which the golden fanout CSR does not
// know about. Removed edge-for-edge when the overlay is repaired.
func (v *Vector) addFanAddEdge(id, li int32) {
	if len(v.fanAdd[id]) == 0 {
		v.fanAddTouched = append(v.fanAddTouched, id)
	}
	v.fanAdd[id] = append(v.fanAdd[id], li)
}

// removeFanAddEdge drops one (id -> li) subscription, the inverse of
// addFanAddEdge. The touched entry stays; ResetBatch's clear of an
// already-empty list is a no-op.
func (v *Vector) removeFanAddEdge(id, li int32) {
	s := v.fanAdd[id]
	for i, x := range s {
		if x == li {
			s[i] = s[len(s)-1]
			v.fanAdd[id] = s[:len(s)-1]
			return
		}
	}
}

// maybeUnmarkCLB drops a CLB from the overlay plan once no lane holds any
// patch on it — the per-repair counterpart of ResetBatch's per-batch clear.
// Safe because repaired logic is re-derived through the worklist
// (RemoveDelta schedules it), and an unmarked inactive CLB's held
// flip-flops are invisible under golden configuration (its output muxes
// select the constant-0 LUTs), which is exactly the scalar kernel's
// post-repair behaviour.
func (v *Vector) maybeUnmarkCLB(clb int32) {
	if !v.overCLB[clb] {
		return
	}
	lbase := clb * device.LUTsPerCLB
	for k := int32(0); k < device.LUTsPerCLB; k++ {
		li := lbase + k
		if len(v.lutOver[li]) > 0 || v.muxXor[li] != 0 {
			return
		}
	}
	fbase := clb * device.FFsPerCLB
	for k := int32(0); k < device.FFsPerCLB; k++ {
		i := fbase + k
		if len(v.ceOver[i]) > 0 || v.dinvXor[i] != 0 {
			return
		}
	}
	v.overCLB[clb] = false
	for i, ci := range v.overCLBList {
		if ci == clb {
			v.overCLBList[i] = v.overCLBList[len(v.overCLBList)-1]
			v.overCLBList = v.overCLBList[:len(v.overCLBList)-1]
			break
		}
	}
}

// invalidateAllVec resets the kernel to "everything dirty": every LUT a
// full sweep would evaluate (golden active set plus overlay CLBs)
// scheduled, every long line stale. Used when lane state changes out of
// band (ScatterLane, a fresh machine, a mid-oscillation canon restore).
func (v *Vector) invalidateAllVec() {
	c := v.c
	for _, li := range c.evalBase {
		v.scheduleLUTVec(li)
	}
	for _, ci := range v.overCLBList {
		base := ci * device.LUTsPerCLB
		for k := int32(0); k < device.LUTsPerCLB; k++ {
			v.scheduleLUTVec(base + k)
		}
	}
	for ll := int32(0); ll < int32(c.lls); ll++ {
		v.markLLStaleVec(ll, ^uint64(0))
	}
}

// clearEventWork drops all pending event state and per-batch overlay
// subscriptions. ResetBatch pairs it with invalidateAllVec when the
// canonical snapshot is not a proven fixpoint.
func (v *Vector) clearEventWork() {
	v.work.clear()
	for _, ll := range v.staleLL {
		v.staleLLMark[ll] = false
	}
	v.staleLL = v.staleLL[:0]
	for _, id := range v.fanAddTouched {
		v.fanAdd[id] = v.fanAdd[id][:0]
	}
	v.fanAddTouched = v.fanAddTouched[:0]
	v.frozenLanes = 0
}

// evalScheduledVec evaluates scheduled LUT li at position p — one LUT of
// the scalar sweep's evaluation, with event propagation hooked onto
// changes — and returns the lanes whose state moved.
func (v *Vector) evalScheduledVec(li, p int32) uint64 {
	c := v.c
	st := v.state
	var changed uint64
	i4 := int(li) * device.LUTInputs
	in := c.inID[i4 : i4+4 : i4+4]
	w := truthWord(c.truth[li], st[in[0]], st[in[1]], st[in[2]], st[in[3]])
	if ps := v.lutOver[li]; len(ps) > 0 {
		for i := range ps {
			p2 := &ps[i]
			w = w&^(1<<p2.lane) | v.laneLUTBit(p2)<<p2.lane
		}
	}
	if v.lut[li] != w {
		changed |= v.lut[li] ^ w
		v.lut[li] = w
	}
	mux := c.muxW[li] ^ v.muxXor[li]
	out := v.ff[li]&mux | w&^mux
	if st[li] != out {
		trig := st[li] ^ out
		changed |= trig
		st[li] = out
		v.propagateVec(li, p)
		for _, ll := range c.byOutLL[c.byOutStart[li]:c.byOutStart[li+1]] {
			if diff := v.refreshLineFrom(int(ll), li, true, trig); diff != 0 {
				changed |= diff
				v.propagateVec(c.llNetBase+ll, p)
			}
		}
		for _, ll := range v.llAddByOut[li] {
			if diff := v.refreshLineFrom(int(ll), li, false, trig); diff != 0 {
				changed |= diff
				v.propagateVec(c.llNetBase+ll, p)
			}
		}
	}
	return changed
}

// settleEventVec drains the dirty worklist to a lane-wise fixpoint, round
// for round identical to the scalar sweep loop in every lane (see the
// comment at the top of this file for the argument). All
// scratch (worklist bitsets, stale list) lives on the Vector and is reused
// across batches; the drain allocates nothing.
func (v *Vector) settleEventVec() {
	if !v.work.pending() && len(v.staleLL) == 0 {
		// Converged and nothing moved since: every lane is at its
		// fixpoint, so no lane can be hiding frozen work.
		v.frozenLanes = 0
		return
	}
	v.statDrains++
	c := v.c
	rounds := 0
	var roundChanged uint64
	for rounds < v.MaxSweeps && (v.work.pending() || len(v.staleLL) > 0) {
		rounds++
		roundChanged = 0
		v.work.promote()
		for p := v.work.pop(); p >= 0; p = v.work.pop() {
			roundChanged |= v.evalScheduledVec(c.orderLUT[p], p)
		}
		// Long lines whose inputs changed outside the in-round edges refresh
		// once at end of round, becoming visible next round — the event image
		// of the scalar end-of-sweep refresh.
		if len(v.staleLL) > 0 {
			for _, ll := range v.staleLL {
				v.staleLLMark[ll] = false
				if diff := v.refreshLine(int(ll)); diff != 0 {
					roundChanged |= diff
					v.scheduleNetConsumersVec(c.llNetBase + ll)
				}
			}
			v.staleLL = v.staleLL[:0]
		}
	}
	v.statRounds += int64(rounds)
	if rounds == v.MaxSweeps {
		// Hit the oscillation bound: lanes still switching in the final
		// round are frozen mid-transient. Lanes quiet in it are at their
		// per-lane fixpoint — pending evaluations are identities for them.
		v.frozenLanes = roundChanged
	} else {
		v.frozenLanes = 0
	}
}
