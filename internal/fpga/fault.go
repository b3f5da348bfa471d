package fpga

import (
	"repro/internal/device"
)

// This file hosts the fault surface of the device model:
//
//   - single configuration-bit upsets (what the paper's SEU simulator
//     injects through partial reconfiguration);
//   - hidden-state upsets — half-latch keepers, user flip-flops, and the
//     configuration control logic — which only the radiation environment
//     model can produce and which bitstream readback cannot observe;
//   - permanent stuck-at faults on routing segments for the BIST study.

// InjectBit flips one configuration bit in place and re-decodes the
// affected resource, emulating the effect of a bitstream SEU (or of the
// injector writing a corrupted frame). It returns the new bit value.
func (f *FPGA) InjectBit(a device.BitAddr) bool {
	v := f.cm.Flip(a)
	f.reDecodeBit(a)
	return v
}

// reDecodeBit re-decodes the smallest resource containing bit a.
func (f *FPGA) reDecodeBit(a device.BitAddr) {
	info := f.geom.Classify(a)
	switch info.Kind {
	case device.KindLUT, device.KindInMux, device.KindFF, device.KindOutMux, device.KindLongLine:
		f.decodeCLB(info.R, info.C, true)
		f.rebuildLLByOut()
		f.orderStale = true
	case device.KindBRAMContent:
		f.loadBRAMContent(f.bramIndex(info.C, info.R))
	case device.KindBRAMPort:
		f.decodeBRAM(info.C, info.R, true)
		f.rebuildLLByOut()
	}
}

// --- Hidden state: half-latches -------------------------------------------

// HalfLatchSite identifies one half-latch keeper.
type HalfLatchSite struct {
	Kind HalfLatchKind
	// R, C locate the CLB for input/CE keepers. Slot is the input-mux slot
	// for input keepers; FF the flip-flop index for CE keepers; LL the
	// dense long-line index for line keepers.
	R, C, Slot, FF, LL int
}

// HalfLatchKind classifies keeper sites.
type HalfLatchKind uint8

const (
	// HLInput: keeper on an undriven input-mux wire tap.
	HLInput HalfLatchKind = iota
	// HLCE: keeper supplying a flip-flop clock enable in CEHalfLatch mode.
	HLCE
	// HLLongLine: keeper on a long line with no enabled driver.
	HLLongLine
)

func (k HalfLatchKind) String() string {
	switch k {
	case HLInput:
		return "input"
	case HLCE:
		return "ce"
	case HLLongLine:
		return "longline"
	}
	return "unknown"
}

// HalfLatchSites enumerates every keeper site that currently exists on the
// device: undriven input taps, CE keepers of FFs configured in half-latch
// mode, and driverless long lines. The radiation model draws hidden-state
// upset targets from this census.
func (f *FPGA) HalfLatchSites() []HalfLatchSite {
	g := f.geom
	var out []HalfLatchSite
	for clbIdx := range f.clbs {
		r, c := clbIdx/g.Cols, clbIdx%g.Cols
		for s := 0; s < device.InMuxWays; s++ {
			if f.candID[clbIdx*device.InMuxWays+s] < 0 {
				out = append(out, HalfLatchSite{Kind: HLInput, R: r, C: c, Slot: s})
			}
		}
		for k := 0; k < device.FFsPerCLB; k++ {
			if f.clbs[clbIdx].ff[k].ceMode == device.CEHalfLatch {
				out = append(out, HalfLatchSite{Kind: HLCE, R: r, C: c, FF: k})
			}
		}
	}
	for ll := range f.llDrivers {
		if len(f.llDrivers[ll]) == 0 {
			out = append(out, HalfLatchSite{Kind: HLLongLine, LL: ll})
		}
	}
	return out
}

// FlipHalfLatch upsets one keeper. The upset is invisible to readback and
// survives partial reconfiguration; only FullConfigure (or a spontaneous
// recovery modelled by the radiation package) restores it.
func (f *FPGA) FlipHalfLatch(s HalfLatchSite) {
	g := f.geom
	switch s.Kind {
	case HLInput:
		i := (s.R*g.Cols+s.C)*device.InMuxWays + s.Slot
		f.inHL[i] = !f.inHL[i]
		// Only LUTs of this CLB can read its input keepers.
		f.scheduleCLB(s.R*g.Cols + s.C)
	case HLCE:
		// CE keepers are read at the clock edge only.
		i := (s.R*g.Cols+s.C)*device.FFsPerCLB + s.FF
		f.ceHL[i] = !f.ceHL[i]
	case HLLongLine:
		f.llHL[s.LL] = !f.llHL[s.LL]
		f.markLLStale(s.LL)
	}
}

// HalfLatchValue reads the current keeper value at a site.
func (f *FPGA) HalfLatchValue(s HalfLatchSite) bool {
	g := f.geom
	switch s.Kind {
	case HLInput:
		return f.inHL[(s.R*g.Cols+s.C)*device.InMuxWays+s.Slot]
	case HLCE:
		return f.ceHL[(s.R*g.Cols+s.C)*device.FFsPerCLB+s.FF]
	default:
		return f.llHL[s.LL]
	}
}

// RestoreHalfLatch puts a keeper back to its start-up value (spontaneous
// recovery, which proton testing occasionally observed).
func (f *FPGA) RestoreHalfLatch(s HalfLatchSite) {
	g := f.geom
	switch s.Kind {
	case HLInput:
		i := (s.R*g.Cols+s.C)*device.InMuxWays + s.Slot
		if !f.inHL[i] {
			f.inHL[i] = true
			f.scheduleCLB(s.R*g.Cols + s.C)
		}
	case HLCE:
		i := (s.R*g.Cols+s.C)*device.FFsPerCLB + s.FF
		f.ceHL[i] = true
	case HLLongLine:
		if !f.llHL[s.LL] {
			f.llHL[s.LL] = true
			f.markLLStale(s.LL)
		}
	}
}

// --- Hidden state: configuration control logic ----------------------------

// UpsetControlLogic models an SEU in the configuration state machines: the
// device becomes unprogrammed (outputs dead, readback junk) until a full
// reconfiguration.
func (f *FPGA) UpsetControlLogic() {
	f.unprogrammed = true
}

// --- Permanent faults ------------------------------------------------------

// SetStuck injects a permanent stuck-at fault on a routing segment: every
// input mux of CLB (seg.R, seg.C) selecting slot seg.S reads v regardless
// of the driving net. Used by the BIST permanent-fault study.
func (f *FPGA) SetStuck(seg device.Segment, v bool) {
	f.stuck[seg] = v
	f.hasStuck = true
	f.scheduleCLB(seg.R*f.geom.Cols + seg.C)
}

// ClearStuck removes one stuck-at fault.
func (f *FPGA) ClearStuck(seg device.Segment) {
	delete(f.stuck, seg)
	f.hasStuck = len(f.stuck) > 0
	f.scheduleCLB(seg.R*f.geom.Cols + seg.C)
}

// ClearAllStuck removes every permanent fault.
func (f *FPGA) ClearAllStuck() {
	for seg := range f.stuck {
		f.scheduleCLB(seg.R*f.geom.Cols + seg.C)
	}
	f.stuck = make(map[device.Segment]bool)
	f.hasStuck = false
}

// StuckFaults returns a copy of the active permanent-fault overlay.
func (f *FPGA) StuckFaults() map[device.Segment]bool {
	out := make(map[device.Segment]bool, len(f.stuck))
	for k, v := range f.stuck {
		out[k] = v
	}
	return out
}
