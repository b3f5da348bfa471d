package fpga

import (
	"repro/internal/device"
)

// SetPin drives device input pin p (global index, see device.Pin*) to v.
// Pin values persist until changed.
func (f *FPGA) SetPin(p int, v bool) {
	id := f.pinNetID(p)
	if f.netVal[id] == v {
		return
	}
	f.netVal[id] = v
	if f.eventSim {
		if f.fanStale {
			f.rebuildFanout()
		}
		f.scheduleNetConsumers(id)
	}
}

func (f *FPGA) pinNetID(p int) int {
	g := f.geom
	return 4*g.CLBs() + device.LongLinesPerRow*g.Rows + device.LongLinesPerCol*g.Cols + p
}

// NetValue returns the settled value of dense net id. An unprogrammed
// device reads as all zeros.
func (f *FPGA) NetValue(id int) bool {
	if f.unprogrammed {
		return false
	}
	return f.netVal[id]
}

// OutValue returns the settled value of output o of the CLB at (r, c).
func (f *FPGA) OutValue(r, c, o int) bool {
	return f.NetValue(f.geom.NetID(device.NetRef{Kind: device.NetCLBOut, R: r, C: c, O: o}))
}

// FFValue returns the current state of flip-flop k of the CLB at (r, c).
// The scrubbing study relies on FF state being invisible to configuration
// readback; this accessor exists for tests and the BIST harness (which on
// the real part captures FF state through readback's state capture).
func (f *FPGA) FFValue(r, c, k int) bool {
	return f.ffVal[(r*f.geom.Cols+c)*device.FFsPerCLB+k]
}

// SetFFValue overwrites flip-flop state directly; used by the beam model
// for SEUs in user flip-flops (which do not disturb the bitstream).
func (f *FPGA) SetFFValue(r, c, k int, v bool) {
	clbIdx := r*f.geom.Cols + c
	li := clbIdx*device.FFsPerCLB + k
	if f.ffVal[li] == v {
		return
	}
	f.ffVal[li] = v
	if f.clbs[clbIdx].outMuxFF[k] {
		f.scheduleLUT(int32(li))
	}
}

// readSlot returns the value slot s of CLB clbIdx reads, honouring stuck-at
// faults and half-latch keepers on undriven wires.
func (f *FPGA) readSlot(clbIdx, s int) bool {
	si := clbIdx*device.InMuxWays + s
	if f.hasStuck {
		g := f.geom
		if v, ok := f.stuck[device.Segment{R: clbIdx / g.Cols, C: clbIdx % g.Cols, S: s}]; ok {
			return v
		}
	}
	id := f.candID[si]
	if id < 0 {
		return f.inHL[si]
	}
	return f.netVal[id]
}

// lutInputs gathers the four input values of LUT l of CLB clbIdx.
func (f *FPGA) lutIndex4(clbIdx, l int) int {
	cfg := &f.clbs[clbIdx].lut[l]
	idx := 0
	for in := 0; in < device.LUTInputs; in++ {
		if f.readSlot(clbIdx, int(cfg.inSel[in])) {
			idx |= 1 << uint(in)
		}
	}
	return idx
}

// evalLUT computes the combinational output of LUT li (dense index). In
// SRL16 mode input 3 is the shift-in datum, so only inputs 0..2 address the
// (8-deep visible) tap.
func (f *FPGA) evalLUT(li int32) bool {
	clbIdx := int(li) / device.LUTsPerCLB
	l := int(li) % device.LUTsPerCLB
	cfg := &f.clbs[clbIdx].lut[l]
	idx := f.lutIndex4(clbIdx, l)
	if cfg.srl {
		idx &= 7
	}
	return cfg.truth&(1<<uint(idx)) != 0
}

// refreshLL recomputes long line ll (dense long-line index). Multiple
// enabled drivers resolve as a wired-AND; no enabled driver reads the
// line's half-latch keeper.
func (f *FPGA) refreshLL(ll int) bool {
	drv := f.llDrivers[ll]
	var v bool
	if len(drv) == 0 {
		v = f.llHL[ll]
	} else {
		v = true
		for _, ref := range drv {
			var dv bool
			if ref.bram {
				dv = f.bramOut[ref.idx]&(1<<uint(ref.out)) != 0
			} else {
				dv = f.netVal[ref.idx*4+ref.out]
			}
			v = v && dv
		}
	}
	id := f.llNetID(ll)
	changed := f.netVal[id] != v
	f.netVal[id] = v
	return changed
}

// Settle evaluates combinational logic to a fixpoint (bounded by
// MaxSweeps) and returns the number of sweeps used.
func (f *FPGA) Settle() int {
	if f.unprogrammed {
		f.lastSweeps = 0
		return 0
	}
	if f.eventSim {
		return f.settleEvent()
	}
	if f.evalStale {
		f.rebuildEvalLists()
	}
	sweeps := 0
	for sweeps < f.MaxSweeps {
		sweeps++
		changed := false
		for _, li := range f.evalList {
			clbIdx := int(li) / device.LUTsPerCLB
			o := int(li) % device.LUTsPerCLB
			v := f.evalLUT(li)
			if f.lutVal[li] != v {
				f.lutVal[li] = v
				changed = true
			}
			var out bool
			if f.clbs[clbIdx].outMuxFF[o] {
				out = f.ffVal[int(li)]
			} else {
				out = v
			}
			id := clbIdx*4 + o
			if f.netVal[id] != out {
				f.netVal[id] = out
				changed = true
				// Refresh long lines driven by this output in the same
				// sweep, so long-line chains don't cost one sweep per hop.
				for _, ll := range f.llByOut[id] {
					f.refreshLL(int(ll))
				}
			}
		}
		for ll := range f.llDrivers {
			if f.refreshLL(ll) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	f.lastSweeps = sweeps
	return sweeps
}

// rebuildEvalLists refreshes the compact evaluation and clocking lists from
// the active/dirty sets.
func (f *FPGA) rebuildEvalLists() {
	f.evalList = f.evalList[:0]
	for _, li := range f.order {
		if f.activeLUT[li] || f.dirtyCLB[li/device.LUTsPerCLB] {
			f.evalList = append(f.evalList, li)
		}
	}
	f.clockList = f.clockList[:0]
	for idx := range f.clbs {
		if f.clbActive[idx] || f.dirtyCLB[idx] {
			f.clockList = append(f.clockList, int32(idx))
		}
	}
	f.evalStale = false
}

// ceValue resolves the clock enable of FF k of CLB clbIdx.
func (f *FPGA) ceValue(clbIdx, k int) bool {
	cfg := &f.clbs[clbIdx].ff[k]
	switch cfg.ceMode {
	case device.CEHalfLatch:
		return f.ceHL[clbIdx*device.FFsPerCLB+k]
	case device.CERouted:
		return f.readSlot(clbIdx, int(cfg.ceSel))
	case device.CEConstZero:
		return false
	default: // CEConstOne
		return true
	}
}

// srlUpdate captures a pending SRL16 shift.
type srlUpdate struct {
	clbIdx, l int
	truth     uint16
}

// clock performs one rising clock edge using the currently settled
// combinational values.
func (f *FPGA) clock() {
	if f.unprogrammed {
		return
	}
	if f.evalStale {
		f.rebuildEvalLists()
	}
	// Flip-flops of active/dirty CLBs. FF next-state reads only pre-clock
	// combinational values (lutVal, netVal), so in-place update is safe.
	srls := f.srlScratch[:0]
	for _, ci := range f.clockList {
		clbIdx := int(ci)
		cfg := &f.clbs[clbIdx]
		for k := 0; k < device.FFsPerCLB; k++ {
			i := clbIdx*device.FFsPerCLB + k
			if f.ceValue(clbIdx, k) {
				d := f.lutVal[clbIdx*device.LUTsPerCLB+k]
				if cfg.ff[k].dInv {
					d = !d
				}
				if f.ffVal[i] != d {
					f.ffVal[i] = d
					if cfg.outMuxFF[k] {
						f.scheduleLUT(int32(i))
					}
				}
			}
		}
		// SRL16 shifts: the shift-in datum is LUT input 3 by convention.
		// The shift rewrites the LUT's truth-table configuration bits —
		// live design state inside configuration memory.
		for l := 0; l < device.LUTsPerCLB; l++ {
			if !cfg.lut[l].srl {
				continue
			}
			if !f.ceValue(clbIdx, l) {
				continue
			}
			din := f.readSlot(clbIdx, int(cfg.lut[l].inSel[3]))
			t := cfg.lut[l].truth << 1
			if din {
				t |= 1
			}
			srls = append(srls, srlUpdate{clbIdx: clbIdx, l: l, truth: t})
		}
	}
	// BRAM ports are synchronous: sample, write, register output.
	for bi := range f.brams {
		f.clockBRAM(bi)
	}
	// A dirty CLB has now settled and clocked once; drop it from the
	// forced lists.
	if len(f.dirtyCLBList) > 0 {
		for _, ci := range f.dirtyCLBList {
			f.dirtyCLB[ci] = false
		}
		f.dirtyCLBList = f.dirtyCLBList[:0]
		f.evalStale = true
	}
	for i := range srls {
		u := &srls[i]
		lut := &f.clbs[u.clbIdx].lut[u.l]
		if lut.truth == u.truth {
			continue
		}
		lut.truth = u.truth
		f.scheduleLUT(int32(u.clbIdx*device.LUTsPerCLB + u.l))
		g := f.geom
		r, c := u.clbIdx/g.Cols, u.clbIdx%g.Cols
		f.cm.Scatter(device.LUTBits, uint64(u.truth), func(i int) device.BitAddr {
			return g.LUTBitAddr(r, c, u.l, i)
		})
	}
	f.srlScratch = srls
	f.cycle++
}

// bramPortValue resolves one BRAM port-input source field against the
// adjacent CLB column.
func (f *FPGA) bramPortValue(bi int, sel bramPortSel) bool {
	if !sel.valid {
		return false
	}
	bc, blk := f.bramColBlk(bi)
	g := f.geom
	r := g.BRAMRowBase(blk) + int(sel.rowOff)
	if r >= g.Rows {
		r = g.Rows - 1
	}
	c := g.BRAMAdjCol(bc)
	return f.netVal[(r*g.Cols+c)*4+int(sel.out)]
}

func (f *FPGA) clockBRAM(bi int) {
	cfg := &f.brams[bi]
	if !f.bramPortValue(bi, cfg.en) {
		return
	}
	addr := 0
	for j := 0; j < device.BRAMAddrBits; j++ {
		if f.bramPortValue(bi, cfg.addr[j]) {
			addr |= 1 << uint(j)
		}
	}
	if f.bramInterference[bi] {
		// Readback stole the address lines this cycle: the write is lost
		// and the output register is corrupted (paper §IV-A).
		if f.bramOut[bi] != 0 {
			f.bramOut[bi] = 0
			f.markBRAMLLStale(bi)
		}
		f.bramInterference[bi] = false
		return
	}
	if f.bramPortValue(bi, cfg.we) {
		var din uint16
		for j := 0; j < device.BRAMWidth; j++ {
			if f.bramPortValue(bi, cfg.din[j]) {
				din |= 1 << uint(j)
			}
		}
		f.storeBRAMWord(bi, addr, din)
	}
	if out := f.bramMem[bi][addr]; f.bramOut[bi] != out {
		f.bramOut[bi] = out
		f.markBRAMLLStale(bi)
	}
}

// Step advances the device one clock cycle: settle combinational logic,
// clock all state, settle again so registered outputs are observable.
func (f *FPGA) Step() {
	f.Settle()
	f.clock()
	f.Settle()
}

// StepN advances n clock cycles.
func (f *FPGA) StepN(n int) {
	for i := 0; i < n; i++ {
		f.Step()
	}
}

// BRAMOut returns the output register of block bi.
func (f *FPGA) BRAMOut(bi int) uint16 { return f.bramOut[bi] }

// BRAMWord returns the cached content word w of block bi.
func (f *FPGA) BRAMWord(bi, w int) uint16 { return f.bramMem[bi][w] }
