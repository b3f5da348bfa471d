// Package board models the SLAAC-1V PCI testbed the paper's SEU simulator
// runs on: two identical FPGAs (X1 = golden, X2 = device under test)
// executing the same design from the same stimulus, a comparator (X0 on the
// real board) checking their outputs on every clock, and a dedicated
// configuration controller providing high-speed partial reconfiguration and
// readback of the DUT.
package board

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/place"
)

// Timing constants from the paper's testbed description.
const (
	// BitInjectTime: "a single bit can be modified and loaded in 100 us"
	// over SLAAC-1V's PCI configuration mode.
	BitInjectTime = 100 * time.Microsecond
	// InjectLoopTime: one full corrupt/observe/repair iteration of the
	// simulator loop takes 214 us.
	InjectLoopTime = 214 * time.Microsecond
	// AcceleratorLoopTime: one iteration of the accelerator test loop
	// (Fig. 12) takes about 430 us.
	AcceleratorLoopTime = 430 * time.Microsecond
	// ClockRate is the design clock used during testing ("up to 20 MHz").
	ClockRate = 20_000_000
)

// SLAAC1V is the two-FPGA lock-step harness.
type SLAAC1V struct {
	Placed *place.Placed
	Golden *fpga.FPGA // X1
	DUT    *fpga.FPGA // X2
	// Port is the configuration controller attached to the DUT (the
	// XCV100 on the real board).
	Port *fpga.Port

	rng     *stim
	inPins  []int
	outNets []int
	cycle   int64
	// mismatch is the scratch buffer MismatchBits reuses between calls, so
	// the per-clock comparator stays allocation-free on the hot path.
	mismatch []int
	// lock caches per-frame configuration-compare verdicts for Locked (see
	// lockstep.go).
	lock lockTracker
}

// SetEventDriven switches both devices between the activity-driven settling
// kernel and the full-sweep kernel (the reference oracle). Both devices
// always run the same kernel so their sweep-bounded trajectories stay
// comparable.
func (b *SLAAC1V) SetEventDriven(on bool) {
	b.Golden.SetEventDriven(on)
	b.DUT.SetEventDriven(on)
}

// New builds the testbed: both devices are fully configured with the placed
// design and a seeded stimulus source is attached.
func New(p *place.Placed, seed int64) (*SLAAC1V, error) {
	golden := fpga.New(p.Geom)
	dut := fpga.New(p.Geom)
	bs := p.Bitstream()
	if err := golden.FullConfigure(bs); err != nil {
		return nil, fmt.Errorf("board: configuring golden: %w", err)
	}
	if err := dut.FullConfigure(bs); err != nil {
		return nil, fmt.Errorf("board: configuring DUT: %w", err)
	}
	b := &SLAAC1V{
		Placed: p,
		Golden: golden,
		DUT:    dut,
		Port:   fpga.NewPort(dut),
		rng:    newStim(seed),
	}
	for _, port := range p.Circuit.Inputs {
		for _, pin := range p.InputPins[port.Name] {
			if pin >= 0 {
				b.inPins = append(b.inPins, pin)
			}
		}
	}
	for _, port := range p.Circuit.Outputs {
		for _, ref := range p.OutputNets[port.Name] {
			b.outNets = append(b.outNets, p.Geom.NetID(ref))
		}
	}
	return b, nil
}

// Clone returns an independent replica of the testbed: golden and DUT
// devices are deep-copied (configuration memory, decoded state, hidden
// half-latch state), a fresh configuration port attaches to the cloned
// DUT, and a new stimulus source is seeded with seed. The immutable
// placement and pin/net tables are shared. Cloning skips place-and-route
// and full configuration entirely, which is what makes per-worker board
// replicas affordable in parallel injection campaigns.
func (b *SLAAC1V) Clone(seed int64) *SLAAC1V {
	n := &SLAAC1V{
		Placed:  b.Placed,
		Golden:  b.Golden.Clone(),
		DUT:     b.DUT.Clone(),
		rng:     newStim(seed),
		inPins:  b.inPins,
		outNets: b.outNets,
		cycle:   b.cycle,
	}
	n.Port = fpga.NewPort(n.DUT)
	return n
}

// ResetCampaignState puts the pair into a canonical lock-step state that
// depends only on the loaded configuration: the stimulus source is
// re-seeded, every input pin is driven low, and user state in both devices
// is reset. The SEU campaign calls this before every injection so each
// injection's outcome is a pure function of (bitstream, bit address,
// options) — the property that makes sharded campaigns byte-identical to
// sequential ones regardless of worker count.
func (b *SLAAC1V) ResetCampaignState(seed int64) {
	b.rng.Seed(seed)
	for _, pin := range b.inPins {
		b.Golden.SetPin(pin, false)
		b.DUT.SetPin(pin, false)
	}
	b.Golden.Reset()
	b.DUT.Reset()
}

// Cycle returns the number of comparison clocks executed.
func (b *SLAAC1V) Cycle() int64 { return b.cycle }

// OutputNetIDs returns the dense net IDs the X0 comparator watches, in
// comparator order. The returned slice is a copy.
func (b *SLAAC1V) OutputNetIDs() []int {
	return append([]int(nil), b.outNets...)
}

// OutputWidth returns the number of compared output bits.
func (b *SLAAC1V) OutputWidth() int { return len(b.outNets) }

// Step drives one clock of fresh random stimulus into both devices and
// compares every design output, returning true when they match (the X0
// comparator's per-clock verdict).
func (b *SLAAC1V) Step() bool {
	// One 63-bit draw covers up to 63 pins; designs rarely need more than
	// one, so stimulus costs one RNG call per clock instead of one per pin.
	for base := 0; base < len(b.inPins); base += 63 {
		end := base + 63
		if end > len(b.inPins) {
			end = len(b.inPins)
		}
		bits := b.rng.Int63()
		for _, pin := range b.inPins[base:end] {
			v := bits&1 == 1
			bits >>= 1
			b.Golden.SetPin(pin, v)
			b.DUT.SetPin(pin, v)
		}
	}
	b.Golden.Step()
	b.DUT.Step()
	b.cycle++
	return b.Match()
}

// Match compares the settled outputs of both devices.
func (b *SLAAC1V) Match() bool {
	for _, id := range b.outNets {
		if b.Golden.NetValue(id) != b.DUT.NetValue(id) {
			return false
		}
	}
	return true
}

// StepN steps n clocks and returns the number of mismatching clocks and the
// first mismatching cycle index (-1 if none).
func (b *SLAAC1V) StepN(n int) (mismatches int, first int64) {
	first = -1
	for i := 0; i < n; i++ {
		if !b.Step() {
			mismatches++
			if first < 0 {
				first = b.cycle
			}
		}
	}
	return mismatches, first
}

// RunUntilMismatch steps at most n clocks, stopping early at the first
// mismatch; it reports whether a mismatch occurred.
func (b *SLAAC1V) RunUntilMismatch(n int) bool {
	for i := 0; i < n; i++ {
		if !b.Step() {
			return true
		}
	}
	return false
}

// ResetBoth resets user state in both devices (the "reset designs" step of
// Figs. 8 and 12). Configuration memory and half-latches are untouched.
func (b *SLAAC1V) ResetBoth() {
	b.Golden.Reset()
	b.DUT.Reset()
}

// StateEqual reports whether golden and DUT are fully state-identical —
// configuration memory plus all user and hidden state — the condition from
// which identical stimulus provably yields identical trajectories forever.
// Conformance harnesses use it to assert that repair genuinely restored the
// DUT rather than merely re-matching the observed outputs.
func (b *SLAAC1V) StateEqual() bool {
	return fpga.StateEqual(b.Golden, b.DUT)
}

// Geometry returns the device geometry.
func (b *SLAAC1V) Geometry() device.Geometry { return b.Placed.Geom }

// Outputs packs the first 64 compared output bits of the golden device and
// the DUT (LSB-first), for trace-style experiments like the paper's Fig. 7.
func (b *SLAAC1V) Outputs() (golden, dut uint64) {
	for i, id := range b.outNets {
		if i >= 64 {
			break
		}
		if b.Golden.NetValue(id) {
			golden |= 1 << uint(i)
		}
		if b.DUT.NetValue(id) {
			dut |= 1 << uint(i)
		}
	}
	return golden, dut
}

// MismatchBits returns the indices (into the flattened compared-output
// vector) currently disagreeing between golden and DUT — the raw material
// of the paper's bit-to-output correlation table (§III-A). The returned
// slice is a scratch buffer owned by the board and is overwritten by the
// next call; callers that retain it must copy.
func (b *SLAAC1V) MismatchBits() []int {
	out := b.mismatch[:0]
	for i, id := range b.outNets {
		if b.Golden.NetValue(id) != b.DUT.NetValue(id) {
			out = append(out, i)
		}
	}
	b.mismatch = out
	return out
}
