package fpga

import (
	"repro/internal/device"
)

// decodeAll re-decodes every CLB and BRAM from configuration memory and
// rebuilds all derived tables.
func (f *FPGA) decodeAll() {
	for i := range f.llDrivers {
		f.llDrivers[i] = f.llDrivers[i][:0]
	}
	g := f.geom
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			f.decodeCLB(r, c, false)
		}
	}
	for bc := 0; bc < g.BRAMCols; bc++ {
		for blk := 0; blk < g.BRAMBlocksPerCol(); blk++ {
			f.decodeBRAM(bc, blk, false)
		}
	}
	// Rebuild driver lists in one pass now that configs are decoded.
	f.rebuildLLDrivers()
	f.loadBRAMContentAll()
	f.orderStale = true
	f.fanStale = true
}

// redecodeFrame re-decodes the resources a just-written frame configures.
// Used by partial reconfiguration, which touches a single column per frame.
func (f *FPGA) redecodeFrame(frame int) {
	g := f.geom
	switch {
	case frame < g.CLBFrames():
		c := frame / device.FramesPerCLBCol
		for r := 0; r < g.Rows; r++ {
			f.decodeCLB(r, c, true)
		}
		f.rebuildLLByOut()
	case frame < g.CLBFrames()+g.BRAMFrames():
		bf := frame - g.CLBFrames()
		bc := bf / device.BRAMFramesPerCol
		for blk := 0; blk < g.BRAMBlocksPerCol(); blk++ {
			f.decodeBRAM(bc, blk, true)
			f.loadBRAMContent(f.bramIndex(bc, blk))
		}
		f.rebuildLLByOut()
	}
	f.orderStale = true
}

// decodeCLB decodes the CLB at (r, c). When incremental is true its
// long-line driver entries are updated in place.
func (f *FPGA) decodeCLB(r, c int, incremental bool) {
	g := f.geom
	idx := r*g.Cols + c
	if incremental {
		f.removeLLDriversOf(idx)
		// Unsubscribe against the old decode before it is overwritten.
		if f.eventSim && !f.fanStale {
			f.dropFanoutOf(idx)
		}
	}
	var cfg clbCfg
	for l := 0; l < device.LUTsPerCLB; l++ {
		l := l
		cfg.lut[l].truth = uint16(f.cm.Gather(device.LUTBits, func(i int) device.BitAddr {
			return g.LUTBitAddr(r, c, l, i)
		}))
		for in := 0; in < device.LUTInputs; in++ {
			in := in
			cfg.lut[l].inSel[in] = uint8(f.cm.Gather(device.InMuxSelBits, func(i int) device.BitAddr {
				return g.InMuxBitAddr(r, c, l*device.LUTInputs+in, i)
			}))
		}
		cfg.lut[l].srl = f.cm.Get(g.LUTModeBitAddr(r, c, l))
	}
	for k := 0; k < device.FFsPerCLB; k++ {
		cfg.ff[k].init = f.cm.Get(g.FFBitAddr(r, c, k, device.FFInitBit))
		mode := uint8(0)
		if f.cm.Get(g.FFBitAddr(r, c, k, device.FFCEModeLo)) {
			mode |= 1
		}
		if f.cm.Get(g.FFBitAddr(r, c, k, device.FFCEModeHi)) {
			mode |= 2
		}
		cfg.ff[k].ceMode = device.CEMode(mode)
		k := k
		cfg.ff[k].ceSel = uint8(f.cm.Gather(device.InMuxSelBits, func(i int) device.BitAddr {
			return g.FFBitAddr(r, c, k, device.FFCESelBase+i)
		}))
		cfg.ff[k].dInv = f.cm.Get(g.FFBitAddr(r, c, k, device.FFDInvBit))
	}
	for o := 0; o < device.OutputsPerCLB; o++ {
		cfg.outMuxFF[o] = f.cm.Get(g.OutMuxBitAddr(r, c, o))
	}
	for d := 0; d < device.LLDriversPerCLB; d++ {
		cfg.ll[d].enable = f.cm.Get(g.LLDrvBitAddr(r, c, d, device.LLEnableBit))
		d := d
		cfg.ll[d].src = uint8(f.cm.Gather(2, func(i int) device.BitAddr {
			return g.LLDrvBitAddr(r, c, d, device.LLSrcBase+i)
		}))
	}
	f.clbs[idx] = cfg
	clbActive := false
	for l := 0; l < device.LUTsPerCLB; l++ {
		li := int32(idx*device.LUTsPerCLB + l)
		f.activeLUT[li] = cfg.lut[l].truth != 0 || cfg.lut[l].srl || cfg.outMuxFF[l]
		if f.activeLUT[li] {
			clbActive = true
		}
		if cfg.ff[l] != (ffCfg{}) {
			clbActive = true
		}
	}
	f.clbActive[idx] = clbActive
	if !f.dirtyCLB[idx] {
		f.dirtyCLB[idx] = true
		f.dirtyCLBList = append(f.dirtyCLBList, int32(idx))
	}
	f.evalStale = true
	if incremental {
		f.addLLDriversOf(r, c, idx)
		if f.eventSim {
			if !f.fanStale {
				f.addFanoutOf(idx)
			}
			// Mirror the dirty-CLB forcing: the decoded CLB settles once
			// even if it left the active set, and any long line it can
			// drive may have gained or lost a driver.
			f.scheduleCLB(idx)
			for d := 0; d < device.LLDriversPerCLB; d++ {
				f.markLLStale(f.llIndexOf(r, c, d))
			}
		}
	}
}

// llIndexOf returns the dense long-line index of driver slot d of the CLB
// at (r, c): slots 0..3 drive row channels, 4..7 column channels.
func (f *FPGA) llIndexOf(r, c, d int) int {
	if d < device.LongLinesPerRow {
		return r*device.LongLinesPerRow + d
	}
	return device.LongLinesPerRow*f.geom.Rows + c*device.LongLinesPerCol + (d - device.LongLinesPerRow)
}

// llNetID maps a dense long-line index to its dense net ID.
func (f *FPGA) llNetID(ll int) int {
	return 4*f.geom.CLBs() + ll
}

// rebuildLLByOut refreshes the reverse driver indexes used by Settle: CLB
// output -> driven lines, and BRAM block -> driven lines.
func (f *FPGA) rebuildLLByOut() {
	if f.llByOut == nil {
		f.llByOut = make([][]int32, 4*f.geom.CLBs())
	}
	if f.llByBRAM == nil {
		f.llByBRAM = make([][]int32, len(f.brams))
	}
	for i := range f.llByOut {
		f.llByOut[i] = f.llByOut[i][:0]
	}
	for i := range f.llByBRAM {
		f.llByBRAM[i] = f.llByBRAM[i][:0]
	}
	for ll, drv := range f.llDrivers {
		for _, ref := range drv {
			if ref.bram {
				f.llByBRAM[ref.idx] = append(f.llByBRAM[ref.idx], int32(ll))
			} else {
				id := ref.idx*4 + ref.out
				f.llByOut[id] = append(f.llByOut[id], int32(ll))
			}
		}
	}
}

func (f *FPGA) removeLLDriversOf(clbIdx int) {
	g := f.geom
	r, c := clbIdx/g.Cols, clbIdx%g.Cols
	for d := 0; d < device.LLDriversPerCLB; d++ {
		ll := f.llIndexOf(r, c, d)
		drv := f.llDrivers[ll]
		out := drv[:0]
		for _, ref := range drv {
			if !ref.bram && ref.idx == clbIdx {
				continue
			}
			out = append(out, ref)
		}
		f.llDrivers[ll] = out
	}
}

func (f *FPGA) addLLDriversOf(r, c, clbIdx int) {
	cfg := &f.clbs[clbIdx]
	for d := 0; d < device.LLDriversPerCLB; d++ {
		if !cfg.ll[d].enable {
			continue
		}
		ll := f.llIndexOf(r, c, d)
		f.llDrivers[ll] = append(f.llDrivers[ll], driverRef{idx: clbIdx, out: int(cfg.ll[d].src)})
	}
}

func (f *FPGA) rebuildLLDrivers() {
	for i := range f.llDrivers {
		f.llDrivers[i] = f.llDrivers[i][:0]
	}
	g := f.geom
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			f.addLLDriversOf(r, c, r*g.Cols+c)
		}
	}
	for bi := range f.brams {
		f.addBRAMDrivers(bi)
	}
	f.rebuildLLByOut()
}

// bramIndex returns the dense block index of block blk in BRAM column bc.
func (f *FPGA) bramIndex(bc, blk int) int { return bc*f.geom.BRAMBlocksPerCol() + blk }

// bramColBlk is the inverse of bramIndex.
func (f *FPGA) bramColBlk(bi int) (bc, blk int) {
	per := f.geom.BRAMBlocksPerCol()
	return bi / per, bi % per
}

// decodeBRAM decodes port configuration of one block.
func (f *FPGA) decodeBRAM(bc, blk int, incremental bool) {
	g := f.geom
	bi := f.bramIndex(bc, blk)
	if incremental {
		f.removeBRAMDrivers(bi)
	}
	var cfg bramCfg
	sel := func(base, j int) bramPortSel {
		k := base + j*device.BRAMPortInBits
		raw := f.cm.Gather(device.BRAMPortInBits, func(i int) device.BitAddr {
			return g.BRAMPortBitAddr(bc, blk, k+i)
		})
		return bramPortSel{
			valid:  raw&1 != 0,
			rowOff: uint8(raw>>1) & 7,
			out:    uint8(raw>>4) & 3,
		}
	}
	for j := 0; j < device.BRAMAddrBits; j++ {
		cfg.addr[j] = sel(device.BRAMPortAddrBase, j)
	}
	for j := 0; j < device.BRAMWidth; j++ {
		cfg.din[j] = sel(device.BRAMPortDinBase, j)
	}
	cfg.we = sel(device.BRAMPortWEBase, 0)
	cfg.en = sel(device.BRAMPortENBase, 0)
	for ch := 0; ch < device.LongLinesPerCol; ch++ {
		k := device.BRAMPortDoutBase + ch*device.BRAMDoutLLBits
		raw := f.cm.Gather(device.BRAMDoutLLBits, func(i int) device.BitAddr {
			return g.BRAMPortBitAddr(bc, blk, k+i)
		})
		cfg.dout[ch].enable = raw&1 != 0
		cfg.dout[ch].bit = uint8(raw>>1) & 15
	}
	f.brams[bi] = cfg
	if incremental {
		f.addBRAMDrivers(bi)
		if f.eventSim {
			// Any line in the adjacent column may have gained or lost this
			// block's driver.
			adj := f.geom.BRAMAdjCol(bc)
			for ch := 0; ch < device.LongLinesPerCol; ch++ {
				f.markLLStale(device.LongLinesPerRow*f.geom.Rows + adj*device.LongLinesPerCol + ch)
			}
		}
	}
}

func (f *FPGA) addBRAMDrivers(bi int) {
	bc, _ := f.bramColBlk(bi)
	adj := f.geom.BRAMAdjCol(bc)
	cfg := &f.brams[bi]
	for ch := 0; ch < device.LongLinesPerCol; ch++ {
		if !cfg.dout[ch].enable {
			continue
		}
		ll := device.LongLinesPerRow*f.geom.Rows + adj*device.LongLinesPerCol + ch
		f.llDrivers[ll] = append(f.llDrivers[ll], driverRef{bram: true, idx: bi, out: int(cfg.dout[ch].bit)})
	}
}

func (f *FPGA) removeBRAMDrivers(bi int) {
	bc, _ := f.bramColBlk(bi)
	adj := f.geom.BRAMAdjCol(bc)
	for ch := 0; ch < device.LongLinesPerCol; ch++ {
		ll := device.LongLinesPerRow*f.geom.Rows + adj*device.LongLinesPerCol + ch
		drv := f.llDrivers[ll]
		out := drv[:0]
		for _, ref := range drv {
			if ref.bram && ref.idx == bi {
				continue
			}
			out = append(out, ref)
		}
		f.llDrivers[ll] = out
	}
}

// loadBRAMContent refreshes the cached content of block bi from
// configuration memory.
func (f *FPGA) loadBRAMContent(bi int) {
	bc, blk := f.bramColBlk(bi)
	g := f.geom
	for w := 0; w < device.BRAMWords; w++ {
		var v uint16
		for i := 0; i < device.BRAMWidth; i++ {
			if f.cm.Get(g.BRAMContentBitAddr(bc, blk, w, i)) {
				v |= 1 << uint(i)
			}
		}
		f.bramMem[bi][w] = v
	}
}

func (f *FPGA) loadBRAMContentAll() {
	for bi := range f.brams {
		f.loadBRAMContent(bi)
	}
}

// storeBRAMWord writes a word both to the cache and to configuration
// memory — BRAM content is configuration state, which is exactly why
// reading it back while the design runs is hazardous.
func (f *FPGA) storeBRAMWord(bi, w int, v uint16) {
	f.bramMem[bi][w] = v
	bc, blk := f.bramColBlk(bi)
	g := f.geom
	for i := 0; i < device.BRAMWidth; i++ {
		f.cm.Set(g.BRAMContentBitAddr(bc, blk, w, i), v&(1<<uint(i)) != 0)
	}
}

// rebuildOrder computes a topological LUT evaluation order over the decoded
// netlist. Cycles (legal only under corruption) are appended arbitrarily;
// Settle's fixpoint loop handles them.
func (f *FPGA) rebuildOrder() {
	g := f.geom
	n := g.CLBs() * device.LUTsPerCLB
	// Dependency: LUT li consumes nets; a net that is a combinational CLB
	// output maps back to its producing LUT. Registered outputs and pins
	// and long lines driven by registered outputs are cut points.
	indeg := make([]int32, n)
	adj := make([][]int32, n) // producer -> consumers
	addEdge := func(from, to int32) {
		adj[from] = append(adj[from], to)
		indeg[to]++
	}
	// producerOfNet returns the producing LUT of a dense net ID, or -1 if
	// the net is registered/pin/multi-driven-long-line (treated as cut).
	producerOfNet := func(id int32) int32 {
		if id < 0 {
			return -1
		}
		clbOuts := int32(4 * g.CLBs())
		if id < clbOuts {
			clbIdx := id / 4
			o := int(id & 3)
			if f.clbs[clbIdx].outMuxFF[o] {
				return -1 // registered: not a combinational dependency
			}
			return clbIdx*4 + int32(o)
		}
		// Long line: conservative — depends on all its drivers; to keep the
		// graph simple we treat single-driver combinational lines as edges
		// and everything else as cut points.
		llBase := clbOuts
		llCount := int32(device.LongLinesPerRow*g.Rows + device.LongLinesPerCol*g.Cols)
		if id < llBase+llCount {
			drv := f.llDrivers[id-llBase]
			if len(drv) == 1 && !drv[0].bram {
				ref := drv[0]
				if !f.clbs[ref.idx].outMuxFF[ref.out] {
					return int32(ref.idx*4 + ref.out)
				}
			}
		}
		return -1
	}
	for clbIdx := 0; clbIdx < g.CLBs(); clbIdx++ {
		cfg := &f.clbs[clbIdx]
		for l := 0; l < device.LUTsPerCLB; l++ {
			li := int32(clbIdx*4 + l)
			for in := 0; in < device.LUTInputs; in++ {
				src := f.candID[clbIdx*device.InMuxWays+int(cfg.lut[l].inSel[in])]
				if p := producerOfNet(src); p >= 0 && p != li {
					addEdge(p, li)
				}
			}
		}
	}
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	// Append any nodes stuck in cycles.
	if len(order) < n {
		inOrder := make([]bool, n)
		for _, v := range order {
			inOrder[v] = true
		}
		for i := int32(0); i < int32(n); i++ {
			if !inOrder[i] {
				order = append(order, i)
			}
		}
	}
	oldOrder := f.order
	f.order = order
	for p, li := range order {
		f.pos[li] = int32(p)
	}
	f.work.remap(oldOrder, f.pos)
	f.orderStale = false
}

// RebuildOrder recomputes the evaluation order after reconfiguration. It is
// optional — simulation remains correct with a stale order — but restores
// single-sweep settling for heavily re-routed configurations.
func (f *FPGA) RebuildOrder() { f.rebuildOrder() }
