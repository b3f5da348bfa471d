package board

import (
	"math/bits"

	"repro/internal/fpga"
)

// VectorBoard is the 64-lane image of the SLAAC-1V harness: a golden and a
// DUT lane machine driven by per-lane stimulus streams, compared lane-wise
// on every clock. Lane i of a batch reproduces exactly the scalar
// golden-vs-DUT run of injection i — same canonical start state (pins low,
// user state reset), same per-injection stimulus stream, same comparator.
type VectorBoard struct {
	Golden *fpga.Vector
	DUT    *fpga.Vector

	inPins  []int
	outNets []int
	rngs    [64]*stim
	lanes   int
	full    uint64
	// active masks the lanes still being driven: retired lanes freeze
	// (stimulus stream paused, pins and flip-flops held) until the batch
	// scheduler refills their slot with the next pending injection.
	active uint64
	groups int // 63-bit stimulus draws consumed per lane per clock
}

// CompileVector puts b's golden device into the canonical campaign state
// (pins low, user state reset — the state every scalar injection starts
// from) and compiles it into the shared read-only struct-of-arrays form.
// One compiled design serves every VectorBoard of the campaign, across
// workers and their board replicas.
func CompileVector(b *SLAAC1V) *fpga.CompiledDesign {
	for _, pin := range b.inPins {
		b.Golden.SetPin(pin, false)
	}
	b.Golden.Reset()
	return b.Golden.Compile()
}

// NewVectorBoard builds the lane harness for b's design, compiling b's
// golden decode on the spot. b's golden device is left in the canonical
// campaign state; campaigns re-reset the scalar board before every scalar
// injection anyway.
func NewVectorBoard(b *SLAAC1V) *VectorBoard {
	return NewVectorBoardFrom(b, CompileVector(b))
}

// NewVectorBoardFrom builds the lane harness over an already-compiled
// design (shared read-only), allocating only the per-lane state words.
func NewVectorBoardFrom(b *SLAAC1V, c *fpga.CompiledDesign) *VectorBoard {
	return &VectorBoard{
		Golden:  fpga.NewVector(c),
		DUT:     fpga.NewVector(c),
		inPins:  b.inPins,
		outNets: b.outNets,
		groups:  (len(b.inPins) + 62) / 63,
	}
}

// StartBatch resets all lanes to the canonical state and seeds one
// stimulus stream per lane — seeds[i] must be the same stimulusSeed the
// scalar campaign would use for injection i.
func (vb *VectorBoard) StartBatch(seeds []int64) {
	vb.lanes = len(seeds)
	if vb.lanes >= 64 {
		vb.full = ^uint64(0)
	} else {
		vb.full = 1<<uint(vb.lanes) - 1
	}
	for i, s := range seeds {
		if vb.rngs[i] == nil {
			vb.rngs[i] = newStim(s)
		} else {
			vb.rngs[i].Seed(s)
		}
	}
	vb.active = vb.full
	vb.Golden.ResetBatch(vb.lanes)
	vb.DUT.ResetBatch(vb.lanes)
}

// FreezeLane retires a lane mid-batch: its stimulus stream pauses and both
// lane machines hold its pins and flip-flops, so the lane generates no
// further settling work. Retired lanes' visible state is never read again
// (the scheduler masks mismatch and lock words by its live set), so
// freezing cannot influence any outcome.
func (vb *VectorBoard) FreezeLane(lane int) {
	vb.active &^= 1 << uint(lane)
	vb.Golden.SetActiveMask(vb.active)
	vb.DUT.SetActiveMask(vb.active)
}

// RefillLanes restores the lanes in mask to the canonical campaign state
// and seeds their stimulus streams — seeds[j] pairs with the j-th set mask
// bit in ascending order. The batch scheduler uses this to install pending
// injections into retired slots without resetting the live lanes.
func (vb *VectorBoard) RefillLanes(mask uint64, seeds []int64) {
	j := 0
	for rest := mask; rest != 0; rest &= rest - 1 {
		lane := bits.TrailingZeros64(rest)
		if vb.rngs[lane] == nil {
			vb.rngs[lane] = newStim(seeds[j])
		} else {
			vb.rngs[lane].Seed(seeds[j])
		}
		j++
	}
	vb.full |= mask
	vb.active |= mask
	vb.Golden.ResetLanes(mask)
	vb.DUT.ResetLanes(mask)
	vb.Golden.SetActiveMask(vb.active)
	vb.DUT.SetActiveMask(vb.active)
}

// TakeKernelStats returns and zeroes both lane machines' settle counters.
func (vb *VectorBoard) TakeKernelStats() (rounds, drains int64) {
	gr, gd := vb.Golden.TakeKernelStats()
	dr, dd := vb.DUT.TakeKernelStats()
	return gr + dr, gd + dd
}

// SkipLane fast-forwards lane's stimulus stream past cycles clocks already
// consumed by the scalar observe phase of a carried (scalar-demoted)
// injection, so the lane's remaining draws line up with where the scalar
// run left off.
func (vb *VectorBoard) SkipLane(lane, cycles int) {
	vb.rngs[lane].Skip(cycles * vb.groups)
}

// Step drives one clock of per-lane random stimulus into both lane
// machines and returns the mismatch word: bit i set iff lane i's compared
// outputs disagree this clock. The stimulus transposition mirrors the
// scalar board exactly — one 63-bit draw per pin group per lane per clock,
// pin j of a group reading bit j of its lane's draw.
func (vb *VectorBoard) Step() uint64 {
	var draws [64]int64
	act := vb.active
	for base := 0; base < len(vb.inPins); base += 63 {
		end := base + 63
		if end > len(vb.inPins) {
			end = len(vb.inPins)
		}
		for rest := act; rest != 0; rest &= rest - 1 {
			lane := bits.TrailingZeros64(rest)
			draws[lane] = vb.rngs[lane].Int63()
		}
		for j, pin := range vb.inPins[base:end] {
			// Frozen lanes hold their previous pin bits (golden and DUT
			// always see identical pin words), so a retired lane's inputs
			// stop switching and it settles into quiescence.
			w := vb.Golden.PinWord(pin) &^ act
			for rest := act; rest != 0; rest &= rest - 1 {
				lane := bits.TrailingZeros64(rest)
				w |= uint64(draws[lane]>>uint(j)&1) << uint(lane)
			}
			vb.Golden.SetPinWord(pin, w)
			vb.DUT.SetPinWord(pin, w)
		}
	}
	vb.Golden.Step()
	vb.DUT.Step()
	return vb.MismatchWord()
}

// MismatchWord compares the settled outputs of both lane machines.
func (vb *VectorBoard) MismatchWord() uint64 {
	var m uint64
	for _, id := range vb.outNets {
		m |= vb.Golden.NetWord(id) ^ vb.DUT.NetWord(id)
	}
	return m & vb.full
}

// FailedOutputs returns the comparator indices disagreeing in lane —
// the lane image of SLAAC1V.MismatchBits. The slice is freshly allocated
// (BitRecords retain it).
func (vb *VectorBoard) FailedOutputs(lane int) []int {
	var out []int
	for i, id := range vb.outNets {
		if (vb.Golden.NetWord(id)^vb.DUT.NetWord(id))>>uint(lane)&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// LockedWord returns the lanes of mask provably in lock-step: bit i set iff
// lane i is in mask and its golden and DUT state words are identical
// everywhere. For lanes whose overlay has been removed (configuration
// golden by construction) this is SLAAC1V.StateEqual restricted to the
// lane. Lanes the event kernel froze at the MaxSweeps bound are excluded —
// their pending worklists encode future behaviour the visible state
// comparison cannot see. Only the lanes of mask are compared, and the scan
// stops once all of them are shown divergent (fpga.DivergenceMasked), so
// the caller passes just the lanes it can retire.
func (vb *VectorBoard) LockedWord(mask uint64) uint64 {
	mask &= vb.full &^ (vb.Golden.FrozenLanes() | vb.DUT.FrozenLanes())
	return mask &^ fpga.DivergenceMasked(vb.Golden, vb.DUT, mask)
}
