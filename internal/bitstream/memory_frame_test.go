package bitstream

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/device"
)

// refFrame is the bit-at-a-time frame read Frame replaced; it stays as the
// oracle for the word-level extraction.
func refFrame(m *Memory, idx int) []byte {
	g := m.geom
	data := make([]byte, g.FrameBytes())
	base := device.BitAddr(int64(idx) * int64(g.FrameLength()))
	for i := 0; i < g.FrameLength(); i++ {
		if m.Get(base + device.BitAddr(i)) {
			data[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return data
}

// refWriteFrame is the bit-at-a-time frame write WriteFrame replaced.
func refWriteFrame(m *Memory, f Frame) {
	fl := m.geom.FrameLength()
	base := device.BitAddr(int64(f.Index) * int64(fl))
	for i := 0; i < fl; i++ {
		m.Set(base+device.BitAddr(i), f.Data[i>>3]&(1<<(uint(i)&7)) != 0)
	}
}

// TestFrameIOMatchesBitLoop checks the word-level Frame and WriteFrame
// against the bit loops on every frame of each geometry. Frames start at
// unaligned bit addresses (xqvr1000's 1,248-bit frames start mid-word on
// every odd frame), and the background memory is random so a write that
// spills into a neighbour shows. The catalogued geometries' frames are whole
// bytes; a 7-row geometry's 222-bit frames end mid-byte, and every payload
// sets those padding bits so a write that keeps them shows.
func TestFrameIOMatchesBitLoop(t *testing.T) {
	odd := device.Geometry{Rows: 7, Cols: 8, BRAMCols: 1}
	for _, g := range []device.Geometry{device.Tiny(), device.Small(), device.XQVR1000(), odd} {
		rng := rand.New(rand.NewSource(int64(g.Rows)))
		m := NewMemory(g)
		for i := range m.words {
			m.words[i] = rng.Uint64()
		}
		if tail := uint(g.TotalBits() & 63); tail != 0 {
			m.words[len(m.words)-1] &= 1<<tail - 1
		}
		ref := m.Clone()
		fl, fb := g.FrameLength(), g.FrameBytes()
		for idx := 0; idx < g.TotalFrames(); idx++ {
			if got, want := m.Frame(idx).Data, refFrame(ref, idx); !bytes.Equal(got, want) {
				t.Fatalf("%s: Frame(%d) = %x, bit loop %x", g, idx, got, want)
			}
		}
		for idx := 0; idx < g.TotalFrames(); idx++ {
			data := make([]byte, fb)
			rng.Read(data)
			if fl%8 != 0 {
				data[fb-1] |= ^byte(0) << uint(fl%8)
			}
			f := Frame{Index: idx, Data: data}
			before := m.FrameGen(idx)
			if err := m.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
			if m.FrameGen(idx) <= before {
				t.Fatalf("%s: WriteFrame(%d) left generation at %d", g, idx, m.FrameGen(idx))
			}
			refWriteFrame(ref, f)
			if idx == 0 || idx%97 == 0 || idx == g.TotalFrames()-1 {
				// A periodic whole-memory check localizes a spill.
				if !m.Equal(ref) {
					t.Fatalf("%s: memory differs from bit loop after WriteFrame(%d)", g, idx)
				}
			}
		}
		if !m.Equal(ref) {
			t.Fatalf("%s: memory differs from bit loop after every WriteFrame", g)
		}
		for idx := 0; idx < g.TotalFrames(); idx++ {
			got := m.Frame(idx).Data
			if want := refFrame(ref, idx); !bytes.Equal(got, want) {
				t.Fatalf("%s: Frame(%d) after writes = %x, bit loop %x", g, idx, got, want)
			}
			if fl%8 != 0 && got[fb-1]>>uint(fl%8) != 0 {
				t.Fatalf("%s: Frame(%d) padding bits %08b not zero", g, idx, got[fb-1])
			}
		}
	}
}
