package device

// Block RAM model. Each BRAM column holds Rows/BRAMRowsPerBlock blocks of
// BRAMWords x BRAMWidth bits. Content lives in the first BRAMContentFrames
// frames of the column; port routing configuration lives in the remaining
// frames. As on the real part, BRAM content is part of configuration memory
// (it is read back and scrubbed), which is exactly what makes readback of a
// live RAM hazardous — see internal/fpga's masking support.
const (
	// BRAMContentFrames is the number of frames per BRAM column that hold
	// memory content.
	BRAMContentFrames = 16
	// BRAMWords is the depth of one block.
	BRAMWords = 64
	// BRAMWidth is the word width of one block.
	BRAMWidth = 16
	// BRAMAddrBits is the address width of one block.
	BRAMAddrBits = 6
	// BRAMPortInBits is the width of one port-input source field:
	// valid(1) + row-offset(3) + output(2), selecting a CLB output in the
	// adjacent CLB column within the block's row span.
	BRAMPortInBits = 6
	// BRAMDoutLLBits is the width of one dout long-line driver field:
	// enable(1) + 4-bit dout bit select.
	BRAMDoutLLBits = 5
	// BRAMPortBits is the total port configuration per block:
	// 6 addr + 16 din + we + en source fields, then 4 dout drivers.
	BRAMPortBits = (BRAMAddrBits+BRAMWidth+2)*BRAMPortInBits + LongLinesPerCol*BRAMDoutLLBits
)

// Port-field offsets within a block's BRAMPortBits space.
const (
	BRAMPortAddrBase = 0                                              // 6 fields
	BRAMPortDinBase  = BRAMPortAddrBase + BRAMAddrBits*BRAMPortInBits // 16 fields
	BRAMPortWEBase   = BRAMPortDinBase + BRAMWidth*BRAMPortInBits
	BRAMPortENBase   = BRAMPortWEBase + BRAMPortInBits
	BRAMPortDoutBase = BRAMPortENBase + BRAMPortInBits // 4 fields of BRAMDoutLLBits
)

// bramRegionBits is the per-block bit region reserved inside each BRAM frame.
const bramRegionBits = BRAMRowsPerBlock * BitsPerCLBRow // 144

// BRAMAdjCol returns the CLB column whose outputs feed BRAM column bc's
// ports and whose column long lines carry its dout.
func (g Geometry) BRAMAdjCol(bc int) int {
	c := (bc + 1) * g.Cols / (g.BRAMCols + 1)
	if c >= g.Cols {
		c = g.Cols - 1
	}
	return c
}

// BRAMRowBase returns the first CLB row of block blk's span.
func (g Geometry) BRAMRowBase(blk int) int { return blk * BRAMRowsPerBlock }

// bramFrame returns the absolute frame index of frame f of BRAM column bc.
func (g Geometry) bramFrame(bc, f int) int {
	return g.CLBFrames() + bc*BRAMFramesPerCol + f
}

// BRAMContentBitAddr returns the bit address holding bit i of word w of
// block blk in BRAM column bc.
func (g Geometry) BRAMContentBitAddr(bc, blk, w, i int) BitAddr {
	idx := w*BRAMWidth + i // 0..1023
	f := idx % BRAMContentFrames
	pos := blk*bramRegionBits + idx/BRAMContentFrames
	return BitAddr(int64(g.bramFrame(bc, f))*int64(g.FrameLength()) + int64(pos))
}

// BRAMPortBitAddr returns the bit address of port configuration bit k
// (0..BRAMPortBits-1) of block blk in BRAM column bc.
func (g Geometry) BRAMPortBitAddr(bc, blk, k int) BitAddr {
	portFrames := BRAMFramesPerCol - BRAMContentFrames
	f := BRAMContentFrames + k%portFrames
	pos := blk*bramRegionBits + k/portFrames
	return BitAddr(int64(g.bramFrame(bc, f))*int64(g.FrameLength()) + int64(pos))
}

// bramSlot splits a BRAM-frame address into its frame within the column,
// block, and offset within the block's 144-bit region. ok is false outside
// the BRAM frames and past the last block's region (frame padding).
func (g Geometry) bramSlot(a BitAddr) (f, blk, rel int, ok bool) {
	bf := a.Frame(g) - g.CLBFrames()
	if a < 0 || bf < 0 || bf >= g.BRAMFrames() {
		return 0, 0, 0, false
	}
	off := a.Offset(g)
	blk = off / bramRegionBits
	if blk >= g.BRAMBlocksPerCol() {
		return 0, 0, 0, false
	}
	return bf % BRAMFramesPerCol, blk, off % bramRegionBits, true
}

// BRAMContentSlot is the inverse of BRAMContentBitAddr: the block (within
// its column), word and data bit a content-frame address holds. ok is false
// for every other address, including the content slots past word
// BRAMWords-1 that no word maps to.
func (g Geometry) BRAMContentSlot(a BitAddr) (blk, word, bit int, ok bool) {
	f, blk, rel, ok := g.bramSlot(a)
	if !ok || f >= BRAMContentFrames {
		return 0, 0, 0, false
	}
	idx := rel*BRAMContentFrames + f
	if idx >= BRAMWords*BRAMWidth {
		return 0, 0, 0, false
	}
	return blk, idx / BRAMWidth, idx % BRAMWidth, true
}

// BRAMPortSlot is the inverse of BRAMPortBitAddr: the block (within its
// column) and port configuration bit k a port-frame address holds. ok is
// false for every other address, including the port slots past
// BRAMPortBits that no field maps to.
func (g Geometry) BRAMPortSlot(a BitAddr) (blk, k int, ok bool) {
	f, blk, rel, ok := g.bramSlot(a)
	if !ok || f < BRAMContentFrames {
		return 0, 0, false
	}
	k = rel*(BRAMFramesPerCol-BRAMContentFrames) + f - BRAMContentFrames
	if k >= BRAMPortBits {
		return 0, 0, false
	}
	return blk, k, true
}

// blockOfBRAMOffset recovers the block index from an in-frame offset.
func blockOfBRAMOffset(g Geometry, off int) int {
	blk := off / bramRegionBits
	if max := g.BRAMBlocksPerCol() - 1; blk > max {
		blk = max
	}
	return blk
}
