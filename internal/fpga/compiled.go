package fpga

import (
	"repro/internal/device"
)

// CompiledDesign is the struct-of-arrays form of one golden decode, built
// once per campaign and shared read-only by every worker's lane machines.
//
// The array-of-structs decode (clbs[i].lut[l].inSel[k] → candID → netVal)
// costs the vector kernel two dependent loads and a keeper branch per LUT
// input per sweep. Compilation flattens the hot fields into contiguous
// slices indexed by dense net/LUT/FF id and resolves every indirection to a
// single index into one flat per-lane state array:
//
//	state[0 : nets]          dense nets (CLB outputs, long lines, pins) —
//	                         CLB output net id == dense LUT id, so Settle
//	                         writes state[li] directly
//	state[constZero]         always 0   — undriven input-mux taps without a
//	state[constOne]          always ^0  — keeper, CE constants, keeper taps
//	state[bramBase ...]      BRAM output registers, one word per data bit
//
// Folding the half-latch keepers and CE constants into two constant state
// words is what removes the per-read branch: an input-select or CE field
// compiles to exactly one state index, whatever it decodes to. Long-line
// membership flattens into a CSR over the same index space (BRAM dout
// drivers point at the BRAM words), so the wired-AND loop has no
// driver-kind branch either.
//
// A CompiledDesign also freezes the campaign's canonical start state (the
// post-reset snapshot every injection begins from) and the golden
// evaluation plan (active LUTs in topological order, active CLBs), so
// building a worker's VectorBoard from a shared CompiledDesign allocates
// lane words and nothing else.
type CompiledDesign struct {
	geom  device.Geometry
	nets  int // dense net count; also the CLB-output/long-line/pin id space
	words int // len of the flat per-lane state: nets + 2 consts + BRAM bits

	constZero int32
	constOne  int32
	bramBase  int32 // state index of (block 0, data bit 0)
	llNetBase int32 // net id of long line 0 (= 4*CLBs)
	pinBase   int32 // net id of pin 0
	lls       int   // long-line count

	// slotID resolves input-mux slot (clb*InMuxWays + s) to its state
	// index: the tapped net, or the keeper constant when undriven.
	slotID []int32

	// Per dense LUT id (== its output net id).
	truth []uint16
	inID  []int32  // LUTInputs entries per LUT, pre-resolved state indices
	muxW  []uint64 // ^0 when the output mux selects the FF, else 0

	// Per dense FF id.
	ceID      []int32  // resolved CE source state index
	dinvW     []uint64 // ^0 when the D input is inverted, else 0
	ceHLConst []int32  // constOne/constZero per the FF's half-latch keeper

	// Long-line wired-AND membership, CSR over state indices.
	llStart []int32
	llDrv   []int32
	llKeep  []uint64 // keeper word read when a line has no live driver

	// In-sweep refresh edges: CLB-output net id → driven lines, CSR.
	byOutStart []int32
	byOutLL    []int32

	// Golden evaluation plan.
	evalBase  []int32 // active LUTs, topological order
	clockBase []int32 // active CLBs, ascending
	lutPos    []int32 // topological position of every LUT
	clbActive []bool

	// BRAM read path (writable BRAM never reaches the vector kernel).
	bramEnID   []int32 // per block: enable-port state index, -1 constant-0
	bramAddrID []int32 // BRAMAddrBits per block
	bramMem    [][]uint16

	// Event-vector machinery (vecevent.go). fanStart/fanLUT is the golden
	// fanout CSR over dense net ids: the ACTIVE LUTs consuming each net,
	// mirroring the scalar event kernel's fanout lists (inactive LUTs
	// evaluate to constant 0 whatever their inputs do, so they are never
	// subscribed; overlay-activated LUTs subscribe per batch through the
	// Vector's fanAdd side table). orderLUT maps topological position to
	// dense LUT id (the compiled copy of f.order, covering every LUT so
	// overlay extras resolve too). bramLL lists, per BRAM block, the long
	// lines any of its dout words drive — the refresh targets when a block's
	// output register changes at a clock edge.
	fanStart []int32
	fanLUT   []int32
	orderLUT []int32
	bramLL   [][]int32

	// Canonical campaign start state, broadcast to all lanes.
	canonState []uint64
	canonLut   []uint64
	canonFF    []uint64
	// canonSettled records whether the canonical state is a proven settling
	// fixpoint (the final canonical sweep confirmed no change). False means
	// the design was frozen mid-oscillation at the MaxSweeps bound, and
	// every restore to canon must schedule a full re-evaluation so the
	// event drain continues the trajectory the way a sweep would.
	canonSettled bool

	maxSweeps int
}

// Compile flattens f's decoded configuration and current settled state into
// the shared read-only form. The caller must have put f into the campaign's
// canonical state first (pins low, Reset) — that state is frozen into the
// compiled design as every lane's start state — and f must not be
// history-coupled (the planner's demotions guarantee campaign use never is).
func (f *FPGA) Compile() *CompiledDesign {
	if f.orderStale {
		f.rebuildOrder()
	}
	g := f.geom
	nets := g.NumNets()
	clbs := g.CLBs()
	luts := g.LUTs()
	blocks := g.BRAMBlocks()
	c := &CompiledDesign{
		geom:      g,
		nets:      nets,
		words:     nets + 2 + blocks*device.BRAMWidth,
		constZero: int32(nets),
		constOne:  int32(nets + 1),
		bramBase:  int32(nets + 2),
		llNetBase: int32(4 * clbs),
		pinBase:   int32(f.pinNetID(0)),
		lls:       len(f.llDrivers),
		maxSweeps: f.MaxSweeps,
		bramMem:   f.bramMem,
	}

	// Input-mux slots: one resolved state index each.
	c.slotID = make([]int32, len(f.candID))
	for si, id := range f.candID {
		switch {
		case id >= 0:
			c.slotID[si] = id
		case f.inHL[si]:
			c.slotID[si] = c.constOne
		default:
			c.slotID[si] = c.constZero
		}
	}

	// LUTs.
	c.truth = make([]uint16, luts)
	c.inID = make([]int32, luts*device.LUTInputs)
	c.muxW = make([]uint64, luts)
	// FFs.
	ffs := clbs * device.FFsPerCLB
	c.ceID = make([]int32, ffs)
	c.dinvW = make([]uint64, ffs)
	c.ceHLConst = make([]int32, ffs)
	for clb := 0; clb < clbs; clb++ {
		cfg := &f.clbs[clb]
		for l := 0; l < device.LUTsPerCLB; l++ {
			li := clb*device.LUTsPerCLB + l
			c.truth[li] = cfg.lut[l].truth
			for in := 0; in < device.LUTInputs; in++ {
				c.inID[li*device.LUTInputs+in] = c.slotID[clb*device.InMuxWays+int(cfg.lut[l].inSel[in])]
			}
			if cfg.outMuxFF[l] {
				c.muxW[li] = ^uint64(0)
			}
		}
		for k := 0; k < device.FFsPerCLB; k++ {
			i := clb*device.FFsPerCLB + k
			ff := &cfg.ff[k]
			if f.ceHL[i] {
				c.ceHLConst[i] = c.constOne
			} else {
				c.ceHLConst[i] = c.constZero
			}
			switch ff.ceMode {
			case device.CEHalfLatch:
				c.ceID[i] = c.ceHLConst[i]
			case device.CERouted:
				c.ceID[i] = c.slotID[clb*device.InMuxWays+int(ff.ceSel)]
			case device.CEConstZero:
				c.ceID[i] = c.constZero
			default: // CEConstOne
				c.ceID[i] = c.constOne
			}
			if ff.dInv {
				c.dinvW[i] = ^uint64(0)
			}
		}
	}

	// Long-line membership CSR. Driver state index: CLB output net id, or
	// the BRAM dout bit's state word — disjoint ranges, so llDrv entries
	// are unambiguous values (the lane-overlay skip matches by value).
	c.llStart = make([]int32, c.lls+1)
	c.llKeep = make([]uint64, c.lls)
	for ll, drv := range f.llDrivers {
		c.llStart[ll+1] = c.llStart[ll] + int32(len(drv))
		if f.llHL[ll] {
			c.llKeep[ll] = ^uint64(0)
		}
	}
	c.llDrv = make([]int32, c.llStart[c.lls])
	c.bramLL = make([][]int32, blocks)
	for ll, drv := range f.llDrivers {
		at := c.llStart[ll]
		for i, ref := range drv {
			if ref.bram {
				c.llDrv[at+int32(i)] = c.bramBase + int32(ref.idx*device.BRAMWidth+ref.out)
				c.bramLL[ref.idx] = append(c.bramLL[ref.idx], int32(ll))
			} else {
				c.llDrv[at+int32(i)] = int32(ref.idx*4 + ref.out)
			}
		}
	}

	// Refresh edges.
	c.byOutStart = make([]int32, 4*clbs+1)
	for id, lls := range f.llByOut {
		c.byOutStart[id+1] = c.byOutStart[id] + int32(len(lls))
	}
	c.byOutLL = make([]int32, c.byOutStart[4*clbs])
	for id, lls := range f.llByOut {
		copy(c.byOutLL[c.byOutStart[id]:], lls)
	}

	// Evaluation plan.
	c.lutPos = append([]int32(nil), f.pos...)
	c.clbActive = append([]bool(nil), f.clbActive...)
	for _, li := range f.order {
		if f.activeLUT[li] {
			c.evalBase = append(c.evalBase, li)
		}
	}
	for idx := 0; idx < clbs; idx++ {
		if f.clbActive[idx] {
			c.clockBase = append(c.clockBase, int32(idx))
		}
	}

	// Event-vector fanout: golden-active LUT consumers per dense net id.
	// Constants and BRAM dout words sit above the net range, so only real
	// nets get fanout rows — exactly the ids Settle and Clock can dirty.
	// Duplicate entries (a LUT tapping the same net twice) are harmless:
	// setting a worklist bit twice is idempotent.
	c.orderLUT = append([]int32(nil), f.order...)
	c.fanStart = make([]int32, nets+1)
	for _, li := range c.evalBase {
		for in := 0; in < device.LUTInputs; in++ {
			if id := c.inID[int(li)*device.LUTInputs+in]; id < int32(nets) {
				c.fanStart[id+1]++
			}
		}
	}
	for id := 0; id < nets; id++ {
		c.fanStart[id+1] += c.fanStart[id]
	}
	c.fanLUT = make([]int32, c.fanStart[nets])
	fanFill := make([]int32, nets)
	for _, li := range c.evalBase {
		for in := 0; in < device.LUTInputs; in++ {
			if id := c.inID[int(li)*device.LUTInputs+in]; id < int32(nets) {
				c.fanLUT[c.fanStart[id]+fanFill[id]] = li
				fanFill[id]++
			}
		}
	}

	// BRAM read ports.
	c.bramEnID = make([]int32, blocks)
	c.bramAddrID = make([]int32, blocks*device.BRAMAddrBits)
	for bi := 0; bi < blocks; bi++ {
		cfg := &f.brams[bi]
		c.bramEnID[bi] = c.compilePortNetID(f, bi, cfg.en)
		for j := 0; j < device.BRAMAddrBits; j++ {
			c.bramAddrID[bi*device.BRAMAddrBits+j] = c.compilePortNetID(f, bi, cfg.addr[j])
		}
	}

	// Canonical start state.
	c.canonState = make([]uint64, c.words)
	for i, b := range f.netVal {
		if b {
			c.canonState[i] = ^uint64(0)
		}
	}
	c.canonState[c.constOne] = ^uint64(0)
	for bi, w := range f.bramOut {
		base := int(c.bramBase) + bi*device.BRAMWidth
		for j := 0; j < device.BRAMWidth; j++ {
			if w&(1<<uint(j)) != 0 {
				c.canonState[base+j] = ^uint64(0)
			}
		}
	}
	c.canonLut = broadcastBools(f.lutVal)
	c.canonFF = broadcastBools(f.ffVal)
	// The canonical state comes out of Reset, which ends in a Settle;
	// finishing under the sweep bound proves the last sweep (or drain
	// round) confirmed a fixpoint. Hitting the bound leaves it ambiguous —
	// treated as mid-oscillation, the conservative side.
	c.canonSettled = f.lastSweeps < f.MaxSweeps
	return c
}

// compilePortNetID resolves a BRAM port-input field to the dense net id it
// samples, mirroring bramPortValue's row clamp. -1 means constant 0.
func (c *CompiledDesign) compilePortNetID(f *FPGA, bi int, sel bramPortSel) int32 {
	if !sel.valid {
		return -1
	}
	bc, blk := f.bramColBlk(bi)
	g := f.geom
	r := g.BRAMRowBase(blk) + int(sel.rowOff)
	if r >= g.Rows {
		r = g.Rows - 1
	}
	c2 := g.BRAMAdjCol(bc)
	return int32((r*g.Cols+c2)*4 + int(sel.out))
}

// Geometry returns the compiled design's device geometry.
func (c *CompiledDesign) Geometry() device.Geometry { return c.geom }
