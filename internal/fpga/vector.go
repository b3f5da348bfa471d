package fpga

import (
	"math/bits"

	"repro/internal/device"
)

// Bit-parallel fault simulation: 64 fault universes evaluated per pass.
//
// A Vector is a lane-parallel re-implementation of the scalar simulation
// kernel in sim.go: every bool of device state (netVal, lutVal, ffVal,
// BRAM output register bits) becomes one uint64 word whose lane i holds
// the value that state bit has in fault universe i. All lanes share one read-only
// CompiledDesign — the struct-of-arrays form of the golden decode — and a
// universe's single-bit configuration delta is a per-lane overlay (a patched
// truth table, a flipped output mux, an extra long-line driver, ...)
// consulted during evaluation instead of a re-decode. LUTs evaluate all 64
// universes at once through the truth-table mux identity; wired-AND long
// lines are a lane-wise AND of their driver words; the flip-flop update is
// the classic mux word (d & ce) | (ff &^ ce).
//
// Exactness. Per lane, a Vector Settle reproduces the scalar full-sweep
// Settle of sim.go run under that lane's configuration, round for sweep
// (the argument is in vecevent.go): overlay-activated LUTs outside the
// golden active set evaluate in every lane, but an inactive un-overlaid LUT
// always evaluates to 0 — the value the scalar kernel froze it at — so the
// extra work never changes a lane; and in-round long-line refresh triggers
// are the golden llByOut edges plus the edges added by lane overlays, a
// superset in every lane of what the scalar kernel follows, while a refresh
// is a stateless recompute, so spurious triggers are no-ops.
//
// A BRAM content flip is an overlay too: the block has no writer, so the
// flipped word is a per-lane XOR the lane's synchronous read applies when it
// addresses that word. Content and port slots no decoder reads are inert.
//
// Configurations a per-lane overlay cannot represent exactly — SRL16 shift
// registers, writable BRAM, stuck-at overlays, LUT-mode flips, mapped BRAM
// port fields — are never given an overlay: PlanVectorDelta demotes those
// bits to a scalar observe phase. The repair restores the golden
// configuration of the injected bit's whole column, so the demoted flips
// of a lane-eligible design (LUT-mode bits, BRAM port fields) still ride
// lanes for their clean-run/persistence windows via ScatterLane.

// vectorDeltaKind enumerates the behavioural effects a single configuration
// bit flip can have relative to the golden decode.
type vectorDeltaKind uint8

const (
	// vdNone: the flip provably changes no decoded behaviour (padding,
	// extra frames, FF init bits, fields of disabled resources).
	vdNone vectorDeltaKind = iota
	vdTruth
	vdInSel
	vdOutMux
	vdFFCE
	vdFFDInv
	vdLLAdd
	vdLLRemove
	vdLLSrc
	vdBRAMWord
)

// VectorDelta is the decoded behavioural effect of flipping one
// configuration bit, expressed against the golden decode so a lane can
// apply it as an overlay without re-decoding.
//
// vdBRAMWord reuses the CLB fields rather than growing every plan entry:
// clb holds the dense BRAM block index, sel the word and bit the data bit.
type VectorDelta struct {
	kind vectorDeltaKind
	clb  int32 // dense CLB index (dense BRAM block index for vdBRAMWord)
	ll   int32 // dense long-line index (vdLL*)
	l    uint8 // LUT / FF / output index within the CLB
	in   uint8 // LUT input index (vdInSel)
	bit  uint8 // truth-table bit (vdTruth), data bit (vdBRAMWord)
	sel  uint8 // new input/CE select (vdInSel, vdFFCE), word (vdBRAMWord)
	mode device.CEMode
	src  uint8 // golden driver source (vdLLRemove, vdLLSrc), new (vdLLAdd)
	nsrc uint8 // flipped driver source (vdLLSrc)
}

// Inert reports whether the delta provably changes no behaviour: the lane
// would be identical to golden, so the campaign can retire the bit as
// benign without spending a lane on it.
func (d VectorDelta) Inert() bool { return d.kind == vdNone }

// PlanVectorDelta translates a configuration-bit flip into its lane
// overlay. ok=false demotes the bit to a scalar observe phase: the flip
// creates state no overlay models (an SRL16 whose truth table shifts, a
// changed BRAM port binding). The caller's repair then restores the
// golden configuration of the bit's column — the SRL's truth-table
// frames, the port fields and every content word a flipped write enable
// stored — so only behavioural state outlives the observe phase. A BRAM
// content bit that holds a word bit becomes a word overlay; content and
// port slots that hold no word bit or port field are decode-identical,
// like FF init bits. The caller is responsible for only planning against
// non-history-coupled devices (no SRLs, no writable BRAM, no stuck
// overlay) whose decode is golden.
func (f *FPGA) PlanVectorDelta(a device.BitAddr, info device.BitInfo) (VectorDelta, bool) {
	switch info.Kind {
	case device.KindPad, device.KindExtra:
		return VectorDelta{}, true
	case device.KindBRAMContent:
		blk, w, i, ok := f.geom.BRAMContentSlot(a)
		if !ok {
			return VectorDelta{}, true // no word holds this slot
		}
		return VectorDelta{kind: vdBRAMWord, clb: int32(f.bramIndex(info.C, blk)), sel: uint8(w), bit: uint8(i)}, true
	case device.KindBRAMPort:
		if _, _, ok := f.geom.BRAMPortSlot(a); !ok {
			return VectorDelta{}, true // no port field holds this slot
		}
		return VectorDelta{}, false
	}
	clb := int32(info.R*f.geom.Cols + info.C)
	cfg := &f.clbs[clb]
	cb := info.CB
	switch {
	case cb < device.CBInMuxBase:
		l := cb / device.LUTBits
		if cfg.lut[l].srl {
			return VectorDelta{}, false // live shifting state
		}
		return VectorDelta{kind: vdTruth, clb: clb, l: uint8(l), bit: uint8(cb % device.LUTBits)}, true
	case cb < device.CBFFBase:
		field := (cb - device.CBInMuxBase) / device.InMuxSelBits
		k := (cb - device.CBInMuxBase) % device.InMuxSelBits
		l := field / device.LUTInputs
		in := field % device.LUTInputs
		return VectorDelta{kind: vdInSel, clb: clb, l: uint8(l), in: uint8(in),
			sel: cfg.lut[l].inSel[in] ^ 1<<k}, true
	case cb < device.CBOutMuxBase:
		k := (cb - device.CBFFBase) / device.FFCfgBits
		sub := (cb - device.CBFFBase) % device.FFCfgBits
		ff := &cfg.ff[k]
		switch {
		case sub == device.FFInitBit:
			// Init values load only at full-configuration start-up, which
			// never runs mid-campaign.
			return VectorDelta{}, true
		case sub == device.FFCEModeLo:
			return VectorDelta{kind: vdFFCE, clb: clb, l: uint8(k), mode: ff.ceMode ^ 1, sel: ff.ceSel}, true
		case sub == device.FFCEModeHi:
			return VectorDelta{kind: vdFFCE, clb: clb, l: uint8(k), mode: ff.ceMode ^ 2, sel: ff.ceSel}, true
		case sub >= device.FFCESelBase && sub < device.FFCESelBase+device.InMuxSelBits:
			return VectorDelta{kind: vdFFCE, clb: clb, l: uint8(k), mode: ff.ceMode,
				sel: ff.ceSel ^ 1<<(sub-device.FFCESelBase)}, true
		default: // FFDInvBit
			return VectorDelta{kind: vdFFDInv, clb: clb, l: uint8(k)}, true
		}
	case cb < device.CBLLBase:
		return VectorDelta{kind: vdOutMux, clb: clb, l: uint8(cb - device.CBOutMuxBase)}, true
	case cb < device.CBLUTModeBase:
		d := (cb - device.CBLLBase) / device.LLDrvBits
		sub := (cb - device.CBLLBase) % device.LLDrvBits
		drv := &cfg.ll[d]
		ll := int32(f.llIndexOf(info.R, info.C, d))
		if sub == device.LLEnableBit {
			if drv.enable {
				return VectorDelta{kind: vdLLRemove, clb: clb, ll: ll, src: drv.src}, true
			}
			return VectorDelta{kind: vdLLAdd, clb: clb, ll: ll, src: drv.src}, true
		}
		if !drv.enable {
			// Source select of a disabled driver: decode-identical.
			return VectorDelta{}, true
		}
		k := sub - device.LLSrcBase
		return VectorDelta{kind: vdLLSrc, clb: clb, ll: ll, src: drv.src, nsrc: drv.src ^ 1<<k}, true
	default:
		// LUT-mode bits (and any CLB bit beyond the modelled range is
		// KindPad, handled above): flipping one turns a LUT into a live
		// shift register — history-coupled state the lanes cannot carry.
		return VectorDelta{}, false
	}
}

// VectorSnapshot is a full behavioural-state snapshot (nets, LUT outputs,
// FFs, BRAM output registers): the canonical post-reset state every fault
// universe starts from, or a mid-campaign scalar state being handed to a
// carried lane.
type VectorSnapshot struct {
	net     []bool
	lut     []bool
	ff      []bool
	bramOut []uint16
}

// CaptureVectorSnapshotInto records the device's current settled state into
// s, reusing its slices — the allocation-free variant for per-lane carry
// captures on the campaign hot path.
func (f *FPGA) CaptureVectorSnapshotInto(s *VectorSnapshot) {
	s.net = append(s.net[:0], f.netVal...)
	s.lut = append(s.lut[:0], f.lutVal...)
	s.ff = append(s.ff[:0], f.ffVal...)
	s.bramOut = append(s.bramOut[:0], f.bramOut...)
}

// Per-lane overlay records. Each lane carries at most one single-bit delta,
// so patch lists stay tiny; they are scanned, not indexed. All indirections
// are resolved to flat state indices at ApplyDelta time.
type lutLanePatch struct {
	lane  uint8
	truth uint16
	inID  [device.LUTInputs]int32
}

type ceLanePatch struct {
	lane uint8
	ceID int32
}

type llLanePatch struct {
	lane  uint8
	skip  int32 // state index of a golden driver to ignore, -1 none
	addID int32 // state index of an extra driver to AND in, -1 none
}

// bramLanePatch flips mask in content word `word` of one block, as seen by
// lane's reads.
type bramLanePatch struct {
	lane uint8
	word uint8
	mask uint16
}

// Vector is the 64-lane simulation machine for one device. All Vectors
// built from the same CompiledDesign share it read-only; only DUT Vectors
// carry overlays. Per-lane state is one flat []uint64 indexed by the
// compiled layout (dense nets, two constant words, BRAM output bits).
type Vector struct {
	c    *CompiledDesign
	full uint64 // mask of live lanes

	// Lane-parallel state words (lane i = fault universe i).
	state []uint64
	lut   []uint64
	ff    []uint64

	// Per-lane overlays (DUT side only), reset per batch. The *Touched
	// lists make the reset proportional to the batch's overlay count, not
	// the device size.
	overCLB     []bool
	overCLBList []int32
	lutOver     [][]lutLanePatch
	lutTouched  []int32
	muxXor      []uint64 // lanes with a flipped output mux, per LUT
	muxTouched  []int32
	ceOver      [][]ceLanePatch
	ceTouched   []int32
	dinvXor     []uint64 // lanes with a flipped D inverter, per FF
	dinvTouched []int32
	llOver      [][]llLanePatch
	llTouched   []int32
	bramOver    [][]bramLanePatch
	bramTouched []int32
	// llAddByOut holds in-sweep refresh edges for drivers that exist only
	// in some lane's overlay, keyed by the driving output's net ID.
	llAddByOut   [][]int32
	llAddTouched []int32

	// Event-driven drain state (vecevent.go). work and staleLL mirror the
	// scalar event kernel at lane-word granularity; fanAdd holds per-batch
	// fanout subscriptions for overlay-patched inputs; active freezes
	// retired lanes through Clock; frozenLanes is the per-lane
	// MaxSweeps-freeze gate consulted by board.LockedWord.
	active        uint64
	frozenLanes   uint64
	work          worklist
	staleLL       []int32
	staleLLMark   []bool
	llPendW       []uint64
	fanAdd        [][]int32
	fanAddTouched []int32

	statRounds int64
	statDrains int64

	// MaxSweeps mirrors the scalar oscillation bound.
	MaxSweeps int
}

// NewVector builds a lane machine over a shared compiled design. Only lane
// words and overlay tables are allocated; everything read-only lives in c.
func NewVector(c *CompiledDesign) *Vector {
	v := &Vector{
		c:           c,
		state:       make([]uint64, c.words),
		lut:         make([]uint64, len(c.truth)),
		ff:          make([]uint64, len(c.ceID)),
		overCLB:     make([]bool, len(c.clbActive)),
		lutOver:     make([][]lutLanePatch, len(c.truth)),
		muxXor:      make([]uint64, len(c.truth)),
		ceOver:      make([][]ceLanePatch, len(c.ceID)),
		dinvXor:     make([]uint64, len(c.ceID)),
		llOver:      make([][]llLanePatch, c.lls),
		bramOver:    make([][]bramLanePatch, len(c.bramEnID)),
		llAddByOut:  make([][]int32, len(c.byOutStart)-1),
		work:        newWorklist(len(c.orderLUT)),
		staleLLMark: make([]bool, c.lls),
		llPendW:     make([]uint64, c.lls),
		fanAdd:      make([][]int32, c.nets),
		active:      ^uint64(0),
		MaxSweeps:   c.maxSweeps,
	}
	// Fresh lane words are all-zero, not the canonical snapshot; until the
	// first ResetBatch the drain must treat everything as dirty.
	v.invalidateAllVec()
	return v
}

func broadcastBools(src []bool) []uint64 {
	out := make([]uint64, len(src))
	for i, b := range src {
		if b {
			out[i] = ^uint64(0)
		}
	}
	return out
}

// ResetBatch restores every lane to the canonical snapshot, clears all
// overlays, and sets the live-lane mask to the low n lanes.
func (v *Vector) ResetBatch(n int) {
	if n >= 64 {
		v.full = ^uint64(0)
	} else {
		v.full = 1<<uint(n) - 1
	}
	c := v.c
	copy(v.state, c.canonState)
	copy(v.lut, c.canonLut)
	copy(v.ff, c.canonFF)
	for _, li := range v.lutTouched {
		v.lutOver[li] = v.lutOver[li][:0]
	}
	v.lutTouched = v.lutTouched[:0]
	for _, li := range v.muxTouched {
		v.muxXor[li] = 0
	}
	v.muxTouched = v.muxTouched[:0]
	for _, i := range v.ceTouched {
		v.ceOver[i] = v.ceOver[i][:0]
	}
	v.ceTouched = v.ceTouched[:0]
	for _, i := range v.dinvTouched {
		v.dinvXor[i] = 0
	}
	v.dinvTouched = v.dinvTouched[:0]
	for _, ll := range v.llTouched {
		v.llOver[ll] = v.llOver[ll][:0]
	}
	v.llTouched = v.llTouched[:0]
	for _, bi := range v.bramTouched {
		v.bramOver[bi] = v.bramOver[bi][:0]
	}
	v.bramTouched = v.bramTouched[:0]
	for _, id := range v.llAddTouched {
		v.llAddByOut[id] = v.llAddByOut[id][:0]
	}
	v.llAddTouched = v.llAddTouched[:0]
	for _, ci := range v.overCLBList {
		v.overCLB[ci] = false
	}
	v.overCLBList = v.overCLBList[:0]
	v.active = v.full
	// Drop the previous batch's pending work and overlay subscriptions.
	// When the canonical snapshot is a proven fixpoint every LUT
	// re-evaluates to its canonical value, so nothing needs scheduling —
	// overlays and pin changes applied after this reset schedule their own
	// work. A design frozen mid-oscillation at the MaxSweeps bound instead
	// gets a full first drain, continuing the canonical trajectory exactly
	// the way the scalar sweep kernel's evaluate-everything Settle would.
	v.clearEventWork()
	// Reloaded lanes are driver-consistent (the canonical snapshot is taken
	// post-Settle, whose final pass refreshes every line), so the previous
	// batch's pending-refresh masks are stale; drop them.
	for i := range v.llPendW {
		v.llPendW[i] = 0
	}
	if !c.canonSettled {
		v.invalidateAllVec()
	}
}

// ResetLanes restores the lanes in mask to the canonical snapshot, leaving
// every other lane untouched, and unfreezes them — the mid-batch refill
// primitive. With a proven-fixpoint canon no event invalidation is needed:
// the refilled bits are consistent under every pending or future
// evaluation, so leftover worklist entries, refresh edges, and overlay-CLB
// plan residue all evaluate to identities in them (retired lanes always
// had their overlays removed before retirement). A mid-oscillation canon
// instead forces a full drain, which is exact for the live lanes too:
// re-evaluating quiet logic is an identity, and lanes frozen mid-transient
// continue their trajectory since their pending entries stay scheduled.
func (v *Vector) ResetLanes(mask uint64) {
	c := v.c
	inv := ^mask
	for i, w := range c.canonState {
		v.state[i] = v.state[i]&inv | w&mask
	}
	for i, w := range c.canonLut {
		v.lut[i] = v.lut[i]&inv | w&mask
	}
	for i, w := range c.canonFF {
		v.ff[i] = v.ff[i]&inv | w&mask
	}
	v.full |= mask
	v.active |= mask
	v.frozenLanes &^= mask
	if !c.canonSettled {
		v.invalidateAllVec()
	}
}

// ScatterLane overwrites one lane's state bits from a scalar snapshot,
// leaving every other lane untouched. Used to hand a scalar-observed
// injection (post-repair, configuration provably golden) to a lane for its
// clean-run/persistence window.
func (v *Vector) ScatterLane(lane int, snap *VectorSnapshot) {
	bit := uint64(1) << uint(lane)
	for i, b := range snap.net {
		if b {
			v.state[i] |= bit
		} else {
			v.state[i] &^= bit
		}
	}
	for i, b := range snap.lut {
		if b {
			v.lut[i] |= bit
		} else {
			v.lut[i] &^= bit
		}
	}
	for i, b := range snap.ff {
		if b {
			v.ff[i] |= bit
		} else {
			v.ff[i] &^= bit
		}
	}
	for bi, word := range snap.bramOut {
		base := int(v.c.bramBase) + bi*device.BRAMWidth
		for j := 0; j < device.BRAMWidth; j++ {
			if word>>uint(j)&1 == 1 {
				v.state[base+j] |= bit
			} else {
				v.state[base+j] &^= bit
			}
		}
	}
	// The scattered state is a scalar capture that may sit mid-transient;
	// conservatively mark everything dirty so the next Settle re-derives
	// the whole lane (an identity in every other lane).
	v.invalidateAllVec()
}

func (v *Vector) markCLB(clb int32) {
	if !v.overCLB[clb] {
		v.overCLB[clb] = true
		v.overCLBList = append(v.overCLBList, clb)
	}
}

func (v *Vector) addEdge(id int32, ll int32) {
	if len(v.llAddByOut[id]) == 0 {
		v.llAddTouched = append(v.llAddTouched, id)
	}
	v.llAddByOut[id] = append(v.llAddByOut[id], ll)
}

// ApplyDelta installs lane's single-bit overlay, resolving select fields to
// flat state indices against the compiled design. Lanes carry at most one
// delta per batch.
func (v *Vector) ApplyDelta(lane int, d VectorDelta) {
	c := v.c
	bit := uint64(1) << uint(lane)
	switch d.kind {
	case vdNone:
	case vdTruth, vdInSel:
		li := d.clb*device.LUTsPerCLB + int32(d.l)
		p := lutLanePatch{lane: uint8(lane), truth: c.truth[li]}
		i4 := int(li) * device.LUTInputs
		copy(p.inID[:], c.inID[i4:i4+device.LUTInputs])
		if d.kind == vdTruth {
			p.truth ^= 1 << d.bit
		} else {
			p.inID[d.in] = c.slotID[int(d.clb)*device.InMuxWays+int(d.sel)]
		}
		if len(v.lutOver[li]) == 0 {
			v.lutTouched = append(v.lutTouched, li)
		}
		v.lutOver[li] = append(v.lutOver[li], p)
		v.markCLB(d.clb)
		v.scheduleLUTVec(li)
		for _, id := range p.inID {
			if id < int32(c.nets) {
				v.addFanAddEdge(id, li)
			}
		}
	case vdOutMux:
		li := d.clb*device.LUTsPerCLB + int32(d.l)
		if v.muxXor[li] == 0 {
			v.muxTouched = append(v.muxTouched, li)
		}
		v.muxXor[li] ^= bit
		v.markCLB(d.clb)
		v.scheduleLUTVec(li)
	case vdFFCE:
		i := d.clb*device.FFsPerCLB + int32(d.l)
		var ceID int32
		switch d.mode {
		case device.CEHalfLatch:
			ceID = c.ceHLConst[i]
		case device.CERouted:
			ceID = c.slotID[int(d.clb)*device.InMuxWays+int(d.sel)]
		case device.CEConstZero:
			ceID = c.constZero
		default: // CEConstOne
			ceID = c.constOne
		}
		if len(v.ceOver[i]) == 0 {
			v.ceTouched = append(v.ceTouched, i)
		}
		v.ceOver[i] = append(v.ceOver[i], ceLanePatch{lane: uint8(lane), ceID: ceID})
		v.markCLB(d.clb)
	case vdFFDInv:
		i := d.clb*device.FFsPerCLB + int32(d.l)
		if v.dinvXor[i] == 0 {
			v.dinvTouched = append(v.dinvTouched, i)
		}
		v.dinvXor[i] ^= bit
		v.markCLB(d.clb)
	case vdLLAdd:
		id := d.clb*4 + int32(d.src)
		v.addLLPatch(d.ll, llLanePatch{lane: uint8(lane), skip: -1, addID: id})
		v.addEdge(id, d.ll)
		v.markLLStaleVec(d.ll, bit)
	case vdLLRemove:
		// The golden driver entry's value is its CLB-output state index, so
		// the skip matches by value (BRAM driver indices are disjoint).
		v.addLLPatch(d.ll, llLanePatch{lane: uint8(lane), skip: d.clb*4 + int32(d.src), addID: -1})
		v.markLLStaleVec(d.ll, bit)
	case vdLLSrc:
		id := d.clb*4 + int32(d.nsrc)
		v.addLLPatch(d.ll, llLanePatch{lane: uint8(lane), skip: d.clb*4 + int32(d.src), addID: id})
		v.addEdge(id, d.ll)
		v.markLLStaleVec(d.ll, bit)
	case vdBRAMWord:
		// Content is read only at the clock edge, so nothing is scheduled:
		// like the scalar reload, the flip shows at the next read.
		if len(v.bramOver[d.clb]) == 0 {
			v.bramTouched = append(v.bramTouched, d.clb)
		}
		v.bramOver[d.clb] = append(v.bramOver[d.clb], bramLanePatch{lane: uint8(lane), word: d.sel, mask: 1 << d.bit})
	}
}

// removeEdge drops one (id -> ll) overlay refresh edge, the inverse of
// addEdge. Exact: with the lane's patch gone the added driver contributes
// to no lane's wired-AND, so the refresh it triggered was already a no-op.
func (v *Vector) removeEdge(id int32, ll int32) {
	s := v.llAddByOut[id]
	for i, x := range s {
		if x == ll {
			s[i] = s[len(s)-1]
			v.llAddByOut[id] = s[:len(s)-1]
			return
		}
	}
}

func (v *Vector) addLLPatch(ll int32, p llLanePatch) {
	if len(v.llOver[ll]) == 0 {
		v.llTouched = append(v.llTouched, ll)
	}
	v.llOver[ll] = append(v.llOver[ll], p)
}

// RemoveDelta repairs lane's overlay: since every delta is a single bit of
// a non-history-coupled resource, removing the overlay leaves the lane's
// effective configuration exactly golden — the lane equivalent of the
// scalar frame write-back.
//
// Refresh edges, fanout subscriptions and the overlay CLB's plan membership
// unwind edge-for-edge, and the repaired logic is scheduled so the next
// drain re-derives the lane under golden configuration: with mid-batch lane
// refill a batch can span thousands of injections, and keeping every
// retired overlay's plan residue would grow the per-clock work without
// bound.
func (v *Vector) RemoveDelta(lane int, d VectorDelta) {
	c := v.c
	bit := uint64(1) << uint(lane)
	switch d.kind {
	case vdNone:
	case vdTruth, vdInSel:
		li := d.clb*device.LUTsPerCLB + int32(d.l)
		v.lutOver[li] = dropLutPatch(v.lutOver[li], uint8(lane))
		v.scheduleLUTVec(li)
		// Unsubscribe the same resolved input ids ApplyDelta added.
		i4 := int(li) * device.LUTInputs
		for in := 0; in < device.LUTInputs; in++ {
			id := c.inID[i4+in]
			if d.kind == vdInSel && in == int(d.in) {
				id = c.slotID[int(d.clb)*device.InMuxWays+int(d.sel)]
			}
			if id < int32(c.nets) {
				v.removeFanAddEdge(id, li)
			}
		}
		v.maybeUnmarkCLB(d.clb)
	case vdOutMux:
		li := d.clb*device.LUTsPerCLB + int32(d.l)
		v.muxXor[li] &^= bit
		v.scheduleLUTVec(li)
		v.maybeUnmarkCLB(d.clb)
	case vdFFCE:
		i := d.clb*device.FFsPerCLB + int32(d.l)
		ps := v.ceOver[i]
		for k := range ps {
			if ps[k].lane == uint8(lane) {
				ps[k] = ps[len(ps)-1]
				v.ceOver[i] = ps[:len(ps)-1]
				break
			}
		}
		v.maybeUnmarkCLB(d.clb)
	case vdFFDInv:
		i := d.clb*device.FFsPerCLB + int32(d.l)
		v.dinvXor[i] &^= bit
		v.maybeUnmarkCLB(d.clb)
	case vdLLAdd, vdLLRemove, vdLLSrc:
		ps := v.llOver[d.ll]
		for k := range ps {
			if ps[k].lane == uint8(lane) {
				ps[k] = ps[len(ps)-1]
				v.llOver[d.ll] = ps[:len(ps)-1]
				break
			}
		}
		switch d.kind {
		case vdLLAdd:
			v.removeEdge(d.clb*4+int32(d.src), d.ll)
		case vdLLSrc:
			v.removeEdge(d.clb*4+int32(d.nsrc), d.ll)
		}
		// The lane's wired-AND reverts to golden at the next end-of-round
		// refresh.
		v.markLLStaleVec(d.ll, bit)
	case vdBRAMWord:
		// The output register keeps whatever the flipped word loaded until
		// the next read, as in the scalar kernel.
		ps := v.bramOver[d.clb]
		for k := range ps {
			if ps[k].lane == uint8(lane) {
				ps[k] = ps[len(ps)-1]
				v.bramOver[d.clb] = ps[:len(ps)-1]
				break
			}
		}
	}
}

func dropLutPatch(ps []lutLanePatch, lane uint8) []lutLanePatch {
	for k := range ps {
		if ps[k].lane == lane {
			ps[k] = ps[len(ps)-1]
			return ps[:len(ps)-1]
		}
	}
	return ps
}

// SetPinWord drives input pin p with one bit per lane.
func (v *Vector) SetPinWord(p int, w uint64) {
	id := int32(int(v.c.pinBase) + p)
	if v.state[id] == w {
		return
	}
	v.state[id] = w
	v.scheduleNetConsumersVec(id)
}

// PinWord returns the lane word currently driving input pin p.
func (v *Vector) PinWord(p int) uint64 { return v.state[int(v.c.pinBase)+p] }

// NetWord returns the lane word of dense net id.
func (v *Vector) NetWord(id int) uint64 { return v.state[id] }

// truthWord evaluates a 16-bit truth table over four lane-word inputs via
// the mux identity: level 1 collapses input 0 against truth bit pairs,
// levels 2..4 are generic (hi & s) | (lo &^ s) reductions. Level 1 is
// branchless — each truth pair (lo, hi) selects one of {0, ^s0, s0, ^0},
// all four of which are P ^ (Q & s0) for P = sign-extended lo and
// Q = sign-extended lo^hi — so lane throughput does not depend on how
// predictable the design's truth tables are.
func truthWord(t uint16, s0, s1, s2, s3 uint64) uint64 {
	var w [8]uint64
	for k := 0; k < 8; k++ {
		pair := t >> uint(2*k)
		p := -uint64(pair & 1)
		q := -uint64((pair ^ pair>>1) & 1)
		w[k] = p ^ (q & s0)
	}
	n1 := ^s1
	w[0] = w[0]&n1 | w[1]&s1
	w[1] = w[2]&n1 | w[3]&s1
	w[2] = w[4]&n1 | w[5]&s1
	w[3] = w[6]&n1 | w[7]&s1
	n2 := ^s2
	w[0] = w[0]&n2 | w[1]&s2
	w[1] = w[2]&n2 | w[3]&s2
	return w[0]&^s3 | w[1]&s3
}

// laneLUTBit evaluates one overlaid lane's LUT scalar-style through its
// patched, pre-resolved input indices.
func (v *Vector) laneLUTBit(p *lutLanePatch) uint64 {
	idx := 0
	for in := 0; in < device.LUTInputs; in++ {
		if v.state[p.inID[in]]>>p.lane&1 == 1 {
			idx |= 1 << uint(in)
		}
	}
	return uint64(p.truth>>uint(idx)) & 1
}

// laneLineBit recomputes one overlaid lane's long line: the golden wired-
// AND with the lane's skipped entry removed and its extra driver ANDed in.
// A lane whose overlay removes the only driver reads the line's keeper.
func (v *Vector) laneLineBit(ll int, p *llLanePatch) uint64 {
	c := v.c
	n := 0
	val := uint64(1)
	for _, di := range c.llDrv[c.llStart[ll]:c.llStart[ll+1]] {
		if di == p.skip {
			continue
		}
		n++
		val &= v.state[di] >> p.lane
	}
	if p.addID >= 0 {
		n++
		val &= v.state[p.addID] >> p.lane
	}
	if n == 0 {
		return c.llKeep[ll] & 1
	}
	return val & 1
}

// refreshLine recomputes long line ll for all lanes and returns the word of
// lanes that changed (0 when none did). A full refresh makes every pending
// out-of-band change visible, so it clears the line's pending mask.
func (v *Vector) refreshLine(ll int) uint64 {
	v.llPendW[ll] = 0
	c := v.c
	s, e := c.llStart[ll], c.llStart[ll+1]
	var w uint64
	if s == e {
		w = c.llKeep[ll]
	} else {
		w = ^uint64(0)
		for _, di := range c.llDrv[s:e] {
			w &= v.state[di]
		}
	}
	if ps := v.llOver[ll]; len(ps) > 0 {
		for i := range ps {
			p := &ps[i]
			w = w&^(1<<p.lane) | v.laneLineBit(ll, p)<<p.lane
		}
	}
	id := c.llNetBase + int32(ll)
	old := v.state[id]
	if old == w {
		return 0
	}
	v.state[id] = w
	return old ^ w
}

// refreshLineFrom recomputes long line ll after driving output src changed
// in lanes trigger, holding lanes that carry a pending out-of-band change
// (overlay install or repair, BRAM output register move) the trigger does
// not entitle to refresh. The scalar witness of such a lane refreshes this
// line only when one of ITS OWN drivers changes or at the end-of-sweep
// pass; recomputing all lanes here would apply the pending change a round
// early, which is observable when the design oscillates into the MaxSweeps
// freeze. Eligibility is per lane: for a golden driver edge (byOutLL) every
// trigger lane is eligible except those whose overlay skips src; for an
// overlay-added edge (llAddByOut) only trigger lanes whose overlay adds src
// are. Lanes that are neither pending nor eligible recompute to their
// current value — every driver change in a lane arrives through an edge
// that lane is eligible for, so outside the pending mask the line always
// equals its wired-AND.
func (v *Vector) refreshLineFrom(ll int, src int32, golden bool, trigger uint64) uint64 {
	pend := v.llPendW[ll]
	if pend == 0 {
		return v.refreshLine(ll)
	}
	ps := v.llOver[ll]
	elig := trigger
	if golden {
		for i := range ps {
			if ps[i].skip == src {
				elig &^= 1 << ps[i].lane
			}
		}
	} else {
		elig = 0
		for i := range ps {
			if ps[i].addID == src {
				elig |= trigger & (1 << ps[i].lane)
			}
		}
	}
	hold := pend &^ elig
	if hold == 0 {
		return v.refreshLine(ll)
	}
	c := v.c
	s, e := c.llStart[ll], c.llStart[ll+1]
	var w uint64
	if s == e {
		w = c.llKeep[ll]
	} else {
		w = ^uint64(0)
		for _, di := range c.llDrv[s:e] {
			w &= v.state[di]
		}
	}
	for i := range ps {
		p := &ps[i]
		w = w&^(1<<p.lane) | v.laneLineBit(ll, p)<<p.lane
	}
	id := c.llNetBase + int32(ll)
	old := v.state[id]
	w = w&^hold | old&hold
	v.llPendW[ll] = hold
	if old == w {
		return 0
	}
	v.state[id] = w
	return old ^ w
}

// Settle evaluates combinational logic to a lane-wise fixpoint through the
// event-driven worklist drain (vecevent.go).
func (v *Vector) Settle() { v.settleEventVec() }

// Clock performs one rising edge: flip-flops of the clock list load their
// (possibly lane-inverted) D inputs under their lane-wise clock enables,
// then every BRAM block registers its addressed word per enabled lane.
// Frozen (inactive) lanes hold their flip-flops and BRAM registers, so
// retired lanes generate no settling work.
//
// The clock set is the golden active CLBs plus live overlay CLBs; flip-flop
// updates are mutually independent, so iteration order is free.
func (v *Vector) Clock() {
	for _, ci := range v.c.clockBase {
		v.clockCLB(ci)
	}
	for _, ci := range v.overCLBList {
		if !v.c.clbActive[ci] {
			v.clockCLB(ci)
		}
	}
	for bi := range v.c.bramEnID {
		v.clockBRAM(bi)
	}
}

// clockCLB updates one CLB's flip-flops. When a flip-flop changes in a
// lane whose output mux selects it, the LUT's output net will move, so it
// is scheduled for the next drain.
func (v *Vector) clockCLB(ci int32) {
	c := v.c
	st := v.state
	base := int(ci) * device.FFsPerCLB
	for k := 0; k < device.FFsPerCLB; k++ {
		i := base + k
		ce := st[c.ceID[i]]
		if ps := v.ceOver[i]; len(ps) > 0 {
			for idx := range ps {
				p := &ps[idx]
				bit := st[p.ceID] >> p.lane & 1
				ce = ce&^(1<<p.lane) | bit<<p.lane
			}
		}
		ce &= v.active
		d := v.lut[i] ^ c.dinvW[i] ^ v.dinvXor[i]
		old := v.ff[i]
		nw := d&ce | old&^ce
		if nw == old {
			continue
		}
		v.ff[i] = nw
		if (nw^old)&(c.muxW[i]^v.muxXor[i]) != 0 {
			v.scheduleLUTVec(int32(i))
		}
	}
}

// clockBRAM registers the addressed content word into each enabled lane's
// output register. Writable BRAM never reaches the vector path (such
// designs are history-coupled), so the content array is shared read-only
// across lanes, a lane's content flip is a XOR on the word it reads, and
// the scalar kernel's write/interference paths have no vector counterpart.
func (v *Vector) clockBRAM(bi int) {
	c := v.c
	enID := c.bramEnID[bi]
	if enID < 0 {
		return
	}
	en := v.state[enID] & v.full & v.active
	if en == 0 {
		return
	}
	addrIDs := c.bramAddrID[bi*device.BRAMAddrBits : (bi+1)*device.BRAMAddrBits]
	var addrW [device.BRAMAddrBits]uint64
	for j, id := range addrIDs {
		if id >= 0 {
			addrW[j] = v.state[id]
		}
	}
	mem := c.bramMem[bi]
	ps := v.bramOver[bi]
	out := v.state[int(c.bramBase)+bi*device.BRAMWidth:][:device.BRAMWidth]
	var changed uint64
	for rest := en; rest != 0; rest &= rest - 1 {
		lane := uint(bits.TrailingZeros64(rest))
		addr := 0
		for j := 0; j < device.BRAMAddrBits; j++ {
			addr |= int(addrW[j]>>lane&1) << uint(j)
		}
		word := mem[addr]
		for i := range ps {
			if p := &ps[i]; uint(p.lane) == lane && int(p.word) == addr {
				word ^= p.mask
			}
		}
		mask := uint64(1) << lane
		for j := 0; j < device.BRAMWidth; j++ {
			old := out[j]
			if word>>uint(j)&1 == 1 {
				out[j] = old | mask
			} else {
				out[j] = old &^ mask
			}
			changed |= old ^ out[j]
		}
	}
	// A moved output register invalidates the long lines this block drives;
	// the next settle's end-of-round refresh makes it visible. The changed
	// lanes go into the pending mask so a triggered refresh from another
	// lane's driver cannot apply the move early.
	if changed != 0 {
		for _, ll := range c.bramLL[bi] {
			v.markLLStaleVec(ll, changed)
		}
	}
}

// Step advances all lanes one clock: settle, clock, settle — the vector
// image of the scalar Step.
func (v *Vector) Step() {
	v.Settle()
	v.Clock()
	v.Settle()
}

// DivergenceWord ORs the lane-wise XOR of every state word of two Vectors:
// bit i is set iff lane i of a and b differ anywhere. With overlays
// removed (lane configuration golden), a clear bit is exactly the scalar
// lock-step condition — identical state under identical configuration
// yields identical futures — restricted to that lane.
func DivergenceWord(a, b *Vector) uint64 {
	var d uint64
	for i, w := range a.state {
		d |= w ^ b.state[i]
	}
	for i, w := range a.lut {
		d |= w ^ b.lut[i]
	}
	for i, w := range a.ff {
		d |= w ^ b.ff[i]
	}
	return d
}

// DivergenceMasked is DivergenceWord restricted to the lanes in mask: for
// every lane i in mask, bit i of the result is set iff lane i of a and b
// differ anywhere; lanes outside mask read 0. The scan stops as soon as
// every masked lane is shown divergent, visiting flip-flop words first
// (where a repaired lane's lingering corruption lives), then LUT outputs,
// then nets — so a lock-step check over lanes that have not converged
// costs a few words instead of the whole state. DivergenceWord is its
// full-scan oracle.
func DivergenceMasked(a, b *Vector, mask uint64) uint64 {
	d := divergeScan(a.ff, b.ff, 0, mask)
	d = divergeScan(a.lut, b.lut, d, mask)
	d = divergeScan(a.state, b.state, d, mask)
	return d & mask
}

// divergeScan ORs the lane-wise XOR of a and b into d, eight words at a
// time, returning as soon as d covers mask.
func divergeScan(a, b []uint64, d, mask uint64) uint64 {
	if d&mask == mask {
		return d
	}
	b = b[:len(a)]
	for len(a) >= 8 {
		// ^ and | share a precedence level in Go: parenthesize each XOR.
		d |= (a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) | (a[3] ^ b[3]) |
			(a[4] ^ b[4]) | (a[5] ^ b[5]) | (a[6] ^ b[6]) | (a[7] ^ b[7])
		if d&mask == mask {
			return d
		}
		a, b = a[8:], b[8:]
	}
	for i, w := range a {
		d |= w ^ b[i]
	}
	return d
}
