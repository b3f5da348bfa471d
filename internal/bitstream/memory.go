// Package bitstream implements the configuration-data layer of the FPGA
// model: the frame-addressed configuration memory, per-frame CRC codebooks
// used by the scrubbing fault manager, readback masks for live LUT-RAM and
// BRAM content, and a packetized bitstream format whose full-configuration
// form (and only that form) carries the start-up command that initializes
// half-latches.
package bitstream

import (
	"fmt"
	"math/bits"

	"repro/internal/device"
)

// Memory is a dense configuration memory for one device. Bits are addressed
// by device.BitAddr (frame*frameLength + offset).
type Memory struct {
	geom  device.Geometry
	words []uint64
	// gen holds one generation counter per frame, bumped by every mutation
	// that touches the frame (bit writes, frame writes, whole-memory
	// copies). Scrub fast paths compare generations to prove a frame
	// untouched since its last golden verification without re-reading it.
	gen      []uint64
	frameLen int64
}

// NewMemory returns an all-zero configuration memory for geometry g.
func NewMemory(g device.Geometry) *Memory {
	n := (g.TotalBits() + 63) / 64
	return &Memory{
		geom:     g,
		words:    make([]uint64, n),
		gen:      make([]uint64, g.TotalFrames()),
		frameLen: int64(g.FrameLength()),
	}
}

// touch records a mutation of the frame containing bit a.
func (m *Memory) touch(a device.BitAddr) {
	m.gen[int64(a)/m.frameLen]++
}

// FrameGen returns the generation counter of frame idx. The counter
// increases on every mutation touching the frame; equal generations at two
// points in time prove the frame's bits did not change in between.
func (m *Memory) FrameGen(idx int) uint64 { return m.gen[idx] }

// Geometry returns the geometry this memory was sized for.
func (m *Memory) Geometry() device.Geometry { return m.geom }

// Get returns bit a.
func (m *Memory) Get(a device.BitAddr) bool {
	return m.words[a>>6]&(1<<(uint(a)&63)) != 0
}

// Set writes bit a.
func (m *Memory) Set(a device.BitAddr, v bool) {
	m.touch(a)
	if v {
		m.words[a>>6] |= 1 << (uint(a) & 63)
	} else {
		m.words[a>>6] &^= 1 << (uint(a) & 63)
	}
}

// Flip inverts bit a and returns the new value.
func (m *Memory) Flip(a device.BitAddr) bool {
	m.touch(a)
	m.words[a>>6] ^= 1 << (uint(a) & 63)
	return m.Get(a)
}

// SetField writes an unsigned value into w consecutive bits starting at a
// (LSB first). Note: configuration fields are generally NOT contiguous in
// absolute address space (frame-major layout interleaves CLB rows); use
// Scatter/Gather with the device package's per-bit address functions for
// those.
func (m *Memory) SetField(a device.BitAddr, w int, v uint64) {
	for i := 0; i < w; i++ {
		m.Set(a+device.BitAddr(i), v&(1<<uint(i)) != 0)
	}
}

// Field reads an unsigned value from w consecutive bits starting at a. See
// the contiguity caveat on SetField.
func (m *Memory) Field(a device.BitAddr, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		if m.Get(a + device.BitAddr(i)) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Scatter writes a w-bit value through a per-bit address function,
// respecting the frame-major interleaving of configuration fields.
func (m *Memory) Scatter(w int, v uint64, addrOf func(i int) device.BitAddr) {
	for i := 0; i < w; i++ {
		m.Set(addrOf(i), v&(1<<uint(i)) != 0)
	}
}

// Gather reads a w-bit value through a per-bit address function.
func (m *Memory) Gather(w int, addrOf func(i int) device.BitAddr) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		if m.Get(addrOf(i)) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Clone returns a deep copy, frame generations included.
func (m *Memory) Clone() *Memory {
	w := make([]uint64, len(m.words))
	copy(w, m.words)
	gen := make([]uint64, len(m.gen))
	copy(gen, m.gen)
	return &Memory{geom: m.geom, words: w, gen: gen, frameLen: m.frameLen}
}

// CopyFrom overwrites this memory with the contents of src (same geometry).
// Every frame counts as touched.
func (m *Memory) CopyFrom(src *Memory) {
	copy(m.words, src.words)
	for i := range m.gen {
		m.gen[i]++
	}
}

// Equal reports whether two memories hold identical bits.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.words) != len(o.words) {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Hash folds the full memory content into the running FNV-1a-style hash h.
// Used by the state-hash diagnostics; not comparison-grade on its own (use
// Equal for exactness).
func (m *Memory) Hash(h uint64) uint64 {
	for _, w := range m.words {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// PopCount returns the number of set bits (useful for corruption audits).
func (m *Memory) PopCount() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Frame extracts frame idx as a byte slice of FrameBytes length. Bits are
// packed LSB-first within each byte, matching Memory's word order.
func (m *Memory) Frame(idx int) Frame {
	g := m.geom
	if idx < 0 || idx >= g.TotalFrames() {
		panic(fmt.Sprintf("bitstream: frame %d out of range [0,%d)", idx, g.TotalFrames()))
	}
	fl := g.FrameLength()
	data := make([]byte, g.FrameBytes())
	base := device.BitAddr(int64(idx) * int64(fl))
	for i := 0; i < fl; i++ {
		if m.Get(base + device.BitAddr(i)) {
			data[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return Frame{Index: idx, Data: data}
}

// WriteFrame overwrites frame f.Index with f.Data.
func (m *Memory) WriteFrame(f Frame) error {
	g := m.geom
	if f.Index < 0 || f.Index >= g.TotalFrames() {
		return fmt.Errorf("bitstream: frame %d out of range [0,%d)", f.Index, g.TotalFrames())
	}
	if len(f.Data) != g.FrameBytes() {
		return fmt.Errorf("bitstream: frame %d payload %d bytes, want %d", f.Index, len(f.Data), g.FrameBytes())
	}
	fl := g.FrameLength()
	base := device.BitAddr(int64(f.Index) * int64(fl))
	for i := 0; i < fl; i++ {
		m.Set(base+device.BitAddr(i), f.Data[i>>3]&(1<<(uint(i)&7)) != 0)
	}
	return nil
}

// DiffFrames returns the indices of frames that differ between m and o.
func (m *Memory) DiffFrames(o *Memory) []int {
	g := m.geom
	var out []int
	fl := int64(g.FrameLength())
	for idx := 0; idx < g.TotalFrames(); idx++ {
		lo := int64(idx) * fl
		hi := lo + fl
		if m.rangeDiffers(o, lo, hi) {
			out = append(out, idx)
		}
	}
	return out
}

// FrameEqual reports whether frame idx holds identical bits in m and o.
func (m *Memory) FrameEqual(o *Memory, idx int) bool {
	fl := int64(m.geom.FrameLength())
	lo := int64(idx) * fl
	return !m.rangeDiffers(o, lo, lo+fl)
}

// DiffBits returns every bit address at which m and o differ, up to max
// addresses (max <= 0 means unlimited).
func (m *Memory) DiffBits(o *Memory, max int) []device.BitAddr {
	var out []device.BitAddr
	for wi := range m.words {
		x := m.words[wi] ^ o.words[wi]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			a := device.BitAddr(wi*64 + b)
			if int64(a) < m.geom.TotalBits() {
				out = append(out, a)
				if max > 0 && len(out) >= max {
					return out
				}
			}
			x &= x - 1
		}
	}
	return out
}

func (m *Memory) rangeDiffers(o *Memory, lo, hi int64) bool {
	// Word-at-a-time with masks for the partial words at the edges.
	wLo, wHi := lo>>6, (hi-1)>>6
	for w := wLo; w <= wHi; w++ {
		x := m.words[w] ^ o.words[w]
		if x == 0 {
			continue
		}
		if w == wLo {
			x &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == wHi {
			if top := uint(hi) & 63; top != 0 {
				x &= (1 << top) - 1
			}
		}
		if x != 0 {
			return true
		}
	}
	return false
}
