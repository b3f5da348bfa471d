package device

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXQVR1000MatchesPaperNumbers(t *testing.T) {
	g := XQVR1000()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.FrameBytes(); got != 156 {
		t.Errorf("frame bytes = %d, paper says 156", got)
	}
	if got := g.FrameLength(); got != 1248 {
		t.Errorf("frame length = %d bits, want 1248", got)
	}
	// Paper: "the entire bitstream of 5.8 million bits".
	bits := g.TotalBits()
	if bits < 5_700_000 || bits > 5_900_000 {
		t.Errorf("total bits = %d, want ~5.8M", bits)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Rows: 1, Cols: 8},
		{Rows: 8, Cols: 1},
		{Rows: 8, Cols: 8, BRAMCols: -1},
		{Rows: 8, Cols: 8, ExtraFrames: -2},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", g)
		}
	}
	for _, g := range []Geometry{Small(), Tiny(), XQVR1000()} {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", g, err)
		}
	}
}

func TestCLBBitAddressesAreDisjoint(t *testing.T) {
	g := Tiny()
	seen := make(map[BitAddr][3]int)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			for cb := 0; cb < CLBConfigBits; cb++ {
				a := g.CLBBitOf(r, c, cb)
				if a < 0 || int64(a) >= g.TotalBits() {
					t.Fatalf("CLBBitOf(%d,%d,%d) = %d out of range", r, c, cb, a)
				}
				if prev, dup := seen[a]; dup {
					t.Fatalf("address %d assigned to both %v and (%d,%d,%d)", a, prev, r, c, cb)
				}
				seen[a] = [3]int{r, c, cb}
			}
		}
	}
	want := g.CLBs() * CLBConfigBits
	if len(seen) != want {
		t.Fatalf("got %d distinct addresses, want %d", len(seen), want)
	}
}

func TestClassifyRoundTrip(t *testing.T) {
	g := Small()
	for r := 0; r < g.Rows; r += 3 {
		for c := 0; c < g.Cols; c += 5 {
			for cb := 0; cb < CLBConfigBits; cb++ {
				info := g.Classify(g.CLBBitOf(r, c, cb))
				if info.R != r || info.C != c || info.CB != cb {
					t.Fatalf("Classify(CLBBitOf(%d,%d,%d)) = %+v", r, c, cb, info)
				}
				var want BitKind
				switch {
				case cb < CBInMuxBase:
					want = KindLUT
				case cb < CBFFBase:
					want = KindInMux
				case cb < CBOutMuxBase:
					want = KindFF
				case cb < CBLLBase:
					want = KindOutMux
				case cb < CBLUTModeBase:
					want = KindLongLine
				case cb < CBModeledBits:
					want = KindLUT
				default:
					want = KindPad
				}
				if info.Kind != want {
					t.Fatalf("Classify cb=%d kind=%v want %v", cb, info.Kind, want)
				}
			}
		}
	}
}

func TestClassifyFramePadding(t *testing.T) {
	g := Small()
	// The last FramePadBits of a CLB frame are padding.
	a := BitAddr(int64(0)*int64(g.FrameLength()) + int64(g.Rows*BitsPerCLBRow))
	if got := g.Classify(a); got.Kind != KindPad {
		t.Errorf("pad region classified as %v", got.Kind)
	}
}

func TestClassifyBRAMAndExtra(t *testing.T) {
	g := Small()
	g.ExtraFrames = 4
	content := g.BRAMContentBitAddr(0, 0, 0, 0)
	if got := g.Classify(content); got.Kind != KindBRAMContent {
		t.Errorf("BRAM content classified as %v", got.Kind)
	}
	port := g.BRAMPortBitAddr(0, 0, 0)
	if got := g.Classify(port); got.Kind != KindBRAMPort {
		t.Errorf("BRAM port classified as %v", got.Kind)
	}
	extra := BitAddr(int64(g.CLBFrames()+g.BRAMFrames()) * int64(g.FrameLength()))
	if got := g.Classify(extra); got.Kind != KindExtra {
		t.Errorf("extra frame classified as %v", got.Kind)
	}
}

func TestBRAMAddressesAreDisjointAndInBRAMFrames(t *testing.T) {
	g := Small()
	seen := make(map[BitAddr]bool)
	lo := int64(g.CLBFrames()) * int64(g.FrameLength())
	hi := int64(g.CLBFrames()+g.BRAMFrames()) * int64(g.FrameLength())
	for bc := 0; bc < g.BRAMCols; bc++ {
		for blk := 0; blk < g.BRAMBlocksPerCol(); blk++ {
			for w := 0; w < BRAMWords; w++ {
				for i := 0; i < BRAMWidth; i++ {
					a := g.BRAMContentBitAddr(bc, blk, w, i)
					if int64(a) < lo || int64(a) >= hi {
						t.Fatalf("content addr %d outside BRAM frames [%d,%d)", a, lo, hi)
					}
					if seen[a] {
						t.Fatalf("duplicate content addr %d", a)
					}
					seen[a] = true
				}
			}
			for k := 0; k < BRAMPortBits; k++ {
				a := g.BRAMPortBitAddr(bc, blk, k)
				if int64(a) < lo || int64(a) >= hi {
					t.Fatalf("port addr %d outside BRAM frames", a)
				}
				if seen[a] {
					t.Fatalf("port addr %d collides", a)
				}
				seen[a] = true
			}
		}
	}
}

// TestBRAMSlotRoundTrip pins BRAMContentSlot and BRAMPortSlot as the exact
// inverses of BRAMContentBitAddr and BRAMPortBitAddr: every word bit and
// port field round-trips, every other BRAM-frame address reads unmapped,
// and the unmapped count is what the frame layout leaves over.
func TestBRAMSlotRoundTrip(t *testing.T) {
	for _, g := range []Geometry{Tiny(), Small(), XQVR1000()} {
		for bc := 0; bc < g.BRAMCols; bc++ {
			for blk := 0; blk < g.BRAMBlocksPerCol(); blk++ {
				for w := 0; w < BRAMWords; w++ {
					for i := 0; i < BRAMWidth; i++ {
						a := g.BRAMContentBitAddr(bc, blk, w, i)
						b, gw, gi, ok := g.BRAMContentSlot(a)
						if !ok || b != blk || gw != w || gi != i || g.Classify(a).C != bc {
							t.Fatalf("%s: BRAMContentSlot(%d) = (%d,%d,%d,%v), want (%d,%d,%d)", g, a, b, gw, gi, ok, blk, w, i)
						}
					}
				}
				for k := 0; k < BRAMPortBits; k++ {
					a := g.BRAMPortBitAddr(bc, blk, k)
					b, gk, ok := g.BRAMPortSlot(a)
					if !ok || b != blk || gk != k || g.Classify(a).C != bc {
						t.Fatalf("%s: BRAMPortSlot(%d) = (%d,%d,%v), want (%d,%d)", g, a, b, gk, ok, blk, k)
					}
				}
			}
		}
		fl := int64(g.FrameLength())
		var contentUnmapped, portUnmapped int64
		for a := int64(g.CLBFrames()) * fl; a < int64(g.CLBFrames()+g.BRAMFrames())*fl; a++ {
			addr := BitAddr(a)
			bc := g.Classify(addr).C
			blk, w, i, cok := g.BRAMContentSlot(addr)
			pblk, k, pok := g.BRAMPortSlot(addr)
			if cok && pok {
				t.Fatalf("%s: address %d maps to both content and port", g, a)
			}
			switch kind := g.Classify(addr).Kind; {
			case kind == KindBRAMContent && !cok:
				contentUnmapped++
			case kind == KindBRAMPort && !pok:
				portUnmapped++
			case cok && g.BRAMContentBitAddr(bc, blk, w, i) != addr:
				t.Fatalf("%s: content slot of %d does not map back", g, a)
			case pok && g.BRAMPortBitAddr(bc, pblk, k) != addr:
				t.Fatalf("%s: port slot of %d does not map back", g, a)
			}
		}
		frames := int64(g.BRAMCols) * fl
		if want := frames*BRAMContentFrames - int64(g.BRAMBlocks())*BRAMWords*BRAMWidth; contentUnmapped != want {
			t.Errorf("%s: %d unmapped content addresses, want %d", g, contentUnmapped, want)
		}
		if want := frames*(BRAMFramesPerCol-BRAMContentFrames) - int64(g.BRAMBlocks())*BRAMPortBits; portUnmapped != want {
			t.Errorf("%s: %d unmapped port addresses, want %d", g, portUnmapped, want)
		}
	}
	if _, _, _, ok := Tiny().BRAMContentSlot(0); ok {
		t.Error("a CLB-frame address mapped to a content slot")
	}
}

func TestNetIDRoundTrip(t *testing.T) {
	g := Tiny()
	n := g.NumNets()
	for id := 0; id < n; id++ {
		ref := g.NetOf(id)
		if back := g.NetID(ref); back != id {
			t.Fatalf("NetID(NetOf(%d)) = %d (%v)", id, back, ref)
		}
	}
	if g.NetID(NetRef{Kind: NetUndriven}) != -1 {
		t.Error("undriven net should map to -1")
	}
}

func TestNetIDRoundTripQuick(t *testing.T) {
	g := Small()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		id := rng.Intn(g.NumNets())
		return g.NetID(g.NetOf(id)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInputCandidatesCoverAllClasses(t *testing.T) {
	g := Small()
	// Interior CLB: all four neighbour groups resolve to CLB outputs.
	r, c := g.Rows/2, g.Cols/2
	kinds := map[NetKind]int{}
	for s := 0; s < InMuxWays; s++ {
		kinds[g.InputCandidate(r, c, s).Kind]++
	}
	if kinds[NetCLBOut] != 24 { // own + 4 neighbours + hex
		t.Errorf("interior CLB: %d CLBOut candidates, want 24 (%v)", kinds[NetCLBOut], kinds)
	}
	if kinds[NetRowLL] != 4 || kinds[NetColLL] != 4 {
		t.Errorf("long-line candidates wrong: %v", kinds)
	}

	// Corner CLB (0,0): west and north groups become pins, hex undriven.
	kinds = map[NetKind]int{}
	for s := 0; s < InMuxWays; s++ {
		kinds[g.InputCandidate(0, 0, s).Kind]++
	}
	if kinds[NetPin] != 8 {
		t.Errorf("corner CLB: %d pin candidates, want 8 (%v)", kinds[NetPin], kinds)
	}
	if kinds[NetUndriven] != 4 {
		t.Errorf("corner CLB: %d undriven (half-latch) candidates, want 4", kinds[NetUndriven])
	}
}

func TestInputCandidateEdgesInBounds(t *testing.T) {
	g := Tiny()
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			for s := 0; s < InMuxWays; s++ {
				ref := g.InputCandidate(r, c, s)
				switch ref.Kind {
				case NetCLBOut:
					if ref.R < 0 || ref.R >= g.Rows || ref.C < 0 || ref.C >= g.Cols {
						t.Fatalf("candidate (%d,%d,%d) out of array: %v", r, c, s, ref)
					}
				case NetPin:
					if ref.O < 0 || ref.O >= g.Pins() {
						t.Fatalf("pin candidate out of range: %v", ref)
					}
				}
				if id := g.NetID(ref); id >= g.NumNets() {
					t.Fatalf("net id %d out of range for %v", id, ref)
				}
			}
		}
	}
}

func TestPinIndicesDense(t *testing.T) {
	g := Tiny()
	seen := make(map[int]bool)
	for r := 0; r < g.Rows; r++ {
		for o := 0; o < 4; o++ {
			seen[g.PinWest(r, o)] = true
			seen[g.PinEast(r, o)] = true
		}
	}
	for c := 0; c < g.Cols; c++ {
		for o := 0; o < 4; o++ {
			seen[g.PinNorth(c, o)] = true
			seen[g.PinSouth(c, o)] = true
		}
	}
	if len(seen) != g.Pins() {
		t.Fatalf("pin indices not dense: %d distinct, want %d", len(seen), g.Pins())
	}
	for p := range seen {
		if p < 0 || p >= g.Pins() {
			t.Fatalf("pin index %d out of range", p)
		}
	}
}

func TestFieldLayoutConstants(t *testing.T) {
	if CBModeledBits != 212 {
		t.Errorf("CBModeledBits = %d, design doc says 212", CBModeledBits)
	}
	if CLBConfigBits != 864 {
		t.Errorf("CLBConfigBits = %d, want 864", CLBConfigBits)
	}
	if CBModeledBits >= CLBConfigBits {
		t.Error("modelled fields overflow the per-CLB budget")
	}
}

func TestCEModeString(t *testing.T) {
	want := map[CEMode]string{
		CEHalfLatch: "half-latch", CERouted: "routed",
		CEConstZero: "const0", CEConstOne: "const1",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestBitAddrFrameOffset(t *testing.T) {
	g := Small()
	a := g.CLBBitOf(3, 7, 100)
	f, off := a.Frame(g), a.Offset(g)
	if back := BitAddr(int64(f)*int64(g.FrameLength()) + int64(off)); back != a {
		t.Fatalf("frame/offset decomposition broken: %d -> (%d,%d) -> %d", a, f, off, back)
	}
	wantFrame := 7*FramesPerCLBCol + 100/BitsPerCLBRow
	if f != wantFrame {
		t.Errorf("frame = %d, want %d", f, wantFrame)
	}
}

func TestCompareLayoutsVirtexIIAdvantage(t *testing.T) {
	g := Small()
	// One live LUT: the paper's "16 out of the 48 frames" for Virtex, two
	// for Virtex-II.
	one := g.CompareLayouts([]int{1})
	if one.VirtexFrames != 16 {
		t.Errorf("Virtex cost = %d frames, paper says 16", one.VirtexFrames)
	}
	if one.VirtexIIFrames != 2 {
		t.Errorf("Virtex-II cost = %d frames, paper says 2", one.VirtexIIFrames)
	}
	if one.ModelFrames <= 0 || one.ModelFrames > FramesPerCLBCol {
		t.Errorf("model cost = %d out of range", one.ModelFrames)
	}
	// Both slices' LUTs live: "32 out of the 48 frames".
	both := g.CompareLayouts([]int{0, 1, 2, 3})
	if both.VirtexFrames != 48 { // 4 x 16 capped at the column
		t.Errorf("Virtex cost for 4 live LUTs = %d", both.VirtexFrames)
	}
	if both.VirtexIIFrames != 2 {
		t.Errorf("Virtex-II cost must stay 2, got %d", both.VirtexIIFrames)
	}
	two := g.CompareLayouts([]int{0, 2})
	if two.VirtexFrames != 32 {
		t.Errorf("Virtex cost for 2 live LUTs = %d, paper says 32", two.VirtexFrames)
	}
	// Degenerates.
	none := g.CompareLayouts(nil)
	if none.LiveLUTs != 0 || none.VirtexFrames != 0 || none.VirtexIIFrames != 0 {
		t.Errorf("empty live set should cost nothing: %+v", none)
	}
	dup := g.CompareLayouts([]int{1, 1, -3, 9})
	if dup.LiveLUTs != 1 {
		t.Errorf("dedup/validation broken: %+v", dup)
	}
}
