package fpga

import (
	"repro/internal/device"
)

// Activity-driven settling kernel. The sweep kernel in sim.go re-evaluates
// every active LUT once per sweep until a fixpoint; this kernel maintains
// per-net fanout lists (net -> consumer LUTs) and a dirty-LUT worklist so a
// Settle touches only logic whose inputs actually changed — per-cycle cost
// proportional to switching activity, not device size.
//
// Exact sweep equivalence is load-bearing: campaign reports must be
// byte-identical with the kernel on or off, including configurations whose
// corrupted routing oscillates and freezes at the MaxSweeps bound mid-
// transient. The kernel therefore reproduces the sweep trajectory round for
// round:
//
//   - One worklist round corresponds to one sweep. The worklist (worklist.go)
//     is a pair of bitsets over positions in f.order; a round drains its
//     current set in ascending position, exactly the relative order the
//     sweep's in-place evaluation uses.
//   - When evaluating at position p changes a net, consumers at positions
//     q > p join the CURRENT round (the sweep would still reach them this
//     pass) and consumers at q <= p join the NEXT round (the sweep would see
//     the new value next pass). A LUT whose inputs, configuration, and
//     FF-mux source are all unchanged would re-evaluate to the same values,
//     so skipping it leaves the trajectory untouched.
//   - Long lines change during a Settle only through their CLB drivers,
//     which the inline llByOut refresh already propagates in-sweep (both
//     kernels share that path). Inputs that change BETWEEN Settles — BRAM
//     output registers, half-latch keepers, driver-list edits — are flagged
//     stale and refreshed once at the end of the first round, mirroring the
//     sweep kernel's end-of-sweep refresh (which can only produce changes on
//     its first sweep, for exactly those inputs).
//   - Rounds are bounded by MaxSweeps. A frozen oscillation leaves its
//     worklist pending, so the next Settle resumes the same trajectory the
//     sweep kernel would re-enter. Pending work is keyed by position, so
//     rebuildOrder re-keys it to the new order.
//
// Every mutation path that can invalidate a LUT's inputs outside Settle
// hooks into scheduleLUT/markLLStale: pin changes, FF updates and SRL truth
// shifts at the clock edge, BRAM output-register updates, reconfiguration
// decodes, half-latch flips, stuck-at overlay edits, readback SRL hazards,
// and Reset.

// SetEventDriven switches the activity-driven kernel on or off. Devices
// start with it on; disabling falls back to the full-sweep kernel (the
// reference oracle). Re-enabling conservatively invalidates all event
// state.
func (f *FPGA) SetEventDriven(on bool) {
	if on == f.eventSim {
		return
	}
	f.eventSim = on
	if on {
		f.invalidateEvents()
	}
}

// EventDriven reports whether the activity-driven kernel is active.
func (f *FPGA) EventDriven() bool { return f.eventSim }

// scheduleLUT queues LUT li (dense index) for re-evaluation in the next
// settle round. Safe to call from any mutation hook outside a round.
func (f *FPGA) scheduleLUT(li int32) {
	if f.eventSim {
		f.work.schedule(f.pos[li])
	}
}

// scheduleCLB queues all four LUTs of a CLB.
func (f *FPGA) scheduleCLB(clbIdx int) {
	for l := 0; l < device.LUTsPerCLB; l++ {
		f.scheduleLUT(int32(clbIdx*device.LUTsPerCLB + l))
	}
}

// markLLStale flags long line ll for a refresh at the end of the next
// round: its value inputs changed outside Settle (BRAM output register,
// keeper, or the driver list itself).
func (f *FPGA) markLLStale(ll int) {
	if !f.eventSim {
		return
	}
	if !f.staleLLMark[ll] {
		f.staleLLMark[ll] = true
		f.staleLL = append(f.staleLL, int32(ll))
	}
}

// markBRAMLLStale flags the long lines block bi drives after its output
// register changed.
func (f *FPGA) markBRAMLLStale(bi int) {
	if !f.eventSim || f.llByBRAM == nil {
		return
	}
	for _, ll := range f.llByBRAM[bi] {
		f.markLLStale(int(ll))
	}
}

// scheduleNetConsumers queues every consumer of dense net id for the next
// round. Used by external net mutations (pins) and stale-line refreshes.
func (f *FPGA) scheduleNetConsumers(id int) {
	for _, li := range f.fanout[id] {
		f.scheduleLUT(li)
	}
}

// invalidateEvents resets the kernel to "everything dirty": all LUTs
// scheduled, all long lines stale, fanout lists to be rebuilt. Called at
// start-up and when the kernel is re-enabled mid-life.
func (f *FPGA) invalidateEvents() {
	if !f.eventSim {
		return
	}
	f.staleLL = f.staleLL[:0]
	for _, q := range f.pos {
		f.work.schedule(q)
	}
	for i := range f.staleLLMark {
		f.staleLLMark[i] = true
		f.staleLL = append(f.staleLL, int32(i))
	}
	f.fanStale = true
}

// rebuildFanout recomputes the net -> consumer-LUT lists from the decoded
// configuration. Inactive LUTs (constant-0 output, no FF mux) are not
// subscribed — they evaluate to 0 regardless of inputs, matching the sweep
// kernel's active-set filter.
func (f *FPGA) rebuildFanout() {
	if f.fanout == nil {
		f.fanout = make([][]int32, f.geom.NumNets())
	}
	for i := range f.fanout {
		f.fanout[i] = f.fanout[i][:0]
	}
	for clbIdx := range f.clbs {
		f.addFanoutOf(clbIdx)
	}
	f.fanStale = false
}

// addFanoutOf subscribes the active LUTs of a CLB to their (current) input
// nets. A LUT reading the same net on two inputs adds two entries, so
// dropFanoutOf stays exactly balanced.
func (f *FPGA) addFanoutOf(clbIdx int) {
	cfg := &f.clbs[clbIdx]
	base := clbIdx * device.InMuxWays
	for l := 0; l < device.LUTsPerCLB; l++ {
		li := int32(clbIdx*device.LUTsPerCLB + l)
		if !f.activeLUT[li] {
			continue
		}
		for in := 0; in < device.LUTInputs; in++ {
			id := f.candID[base+int(cfg.lut[l].inSel[in])]
			if id >= 0 {
				f.fanout[id] = append(f.fanout[id], li)
			}
		}
	}
}

// dropFanoutOf removes the subscriptions addFanoutOf created for this CLB.
// Must run against the OLD decoded configuration and OLD active flags,
// before decodeCLB overwrites them.
func (f *FPGA) dropFanoutOf(clbIdx int) {
	cfg := &f.clbs[clbIdx]
	base := clbIdx * device.InMuxWays
	for l := 0; l < device.LUTsPerCLB; l++ {
		li := int32(clbIdx*device.LUTsPerCLB + l)
		if !f.activeLUT[li] {
			continue
		}
		for in := 0; in < device.LUTInputs; in++ {
			id := f.candID[base+int(cfg.lut[l].inSel[in])]
			if id >= 0 {
				f.removeFanoutEdge(int(id), li)
			}
		}
	}
}

func (f *FPGA) removeFanoutEdge(id int, li int32) {
	s := f.fanout[id]
	for i, x := range s {
		if x == li {
			s[i] = s[len(s)-1]
			f.fanout[id] = s[:len(s)-1]
			return
		}
	}
}

// settleEvent is the activity-driven counterpart of the sweep loop in
// Settle. Returns the number of rounds (== sweeps of the equivalent sweep
// trajectory that performed any work).
func (f *FPGA) settleEvent() int {
	if f.fanStale {
		f.rebuildFanout()
	}
	rounds := 0
	for rounds < f.MaxSweeps && (f.work.pending() || len(f.staleLL) > 0) {
		rounds++
		f.work.promote()
		for p := f.work.pop(); p >= 0; p = f.work.pop() {
			f.evalOne(f.order[p], p)
		}
		// Long lines whose inputs changed outside Settle refresh once,
		// mirroring the sweep kernel's end-of-sweep refresh: changes become
		// visible to consumers starting with the next round.
		if len(f.staleLL) > 0 {
			for _, ll := range f.staleLL {
				f.staleLLMark[ll] = false
				if f.refreshLL(int(ll)) {
					f.scheduleNetConsumers(f.llNetID(int(ll)))
				}
			}
			f.staleLL = f.staleLL[:0]
		}
	}
	f.lastSweeps = rounds
	return rounds
}

// evalOne re-evaluates LUT li at order position p — the event-kernel copy of
// the sweep loop body, propagating any net change to consumers.
func (f *FPGA) evalOne(li, p int32) {
	clbIdx := int(li) / device.LUTsPerCLB
	o := int(li) % device.LUTsPerCLB
	v := f.evalLUT(li)
	f.lutVal[li] = v
	var out bool
	if f.clbs[clbIdx].outMuxFF[o] {
		out = f.ffVal[li]
	} else {
		out = v
	}
	id := clbIdx*4 + o
	if f.netVal[id] != out {
		f.netVal[id] = out
		f.propagate(id, p)
		// Same-sweep long-line refresh, shared with the sweep kernel.
		for _, ll := range f.llByOut[id] {
			if f.refreshLL(int(ll)) {
				f.propagate(f.llNetID(int(ll)), p)
			}
		}
	}
}

// propagate schedules the consumers of a just-changed net. Consumers ahead
// of position p in the evaluation order still belong to the current round
// (the sweep would reach them this pass); consumers at or behind p see the
// change next round.
func (f *FPGA) propagate(id int, p int32) {
	for _, li := range f.fanout[id] {
		f.work.touch(f.pos[li], p)
	}
}
