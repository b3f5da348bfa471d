package fpga

import (
	"repro/internal/device"
)

// Divergence-relevant device state, compared by board.SLAAC1V.StateEqual
// and the conformance checks. Two devices whose configuration memories
// are equal AND whose state below is equal will produce identical behaviour
// for identical future stimulus — every input to Settle/clock is either
// configuration (compared via bitstream.Memory), state compared here, or
// the externally-driven pins the board applies identically to both.
//
// BRAM content cache (bramMem) is deliberately absent: storeBRAMWord writes
// through to configuration memory, so the configuration comparison already
// covers it. SRL truth bits live in configuration memory too.

// CoreStateEqual compares the frequently-diverging user state of two
// devices: flip-flops, combinational values, nets, and BRAM output
// registers. Cheap relative to a configuration compare, so UserStateEqual
// checks it first and a still-diverged pair exits early.
func CoreStateEqual(a, b *FPGA) bool {
	if a.unprogrammed != b.unprogrammed || a.MaxSweeps != b.MaxSweeps {
		return false
	}
	for i, v := range a.ffVal {
		if v != b.ffVal[i] {
			return false
		}
	}
	for i, v := range a.netVal {
		if v != b.netVal[i] {
			return false
		}
	}
	for i, v := range a.lutVal {
		if v != b.lutVal[i] {
			return false
		}
	}
	for i, v := range a.bramOut {
		if v != b.bramOut[i] {
			return false
		}
	}
	for i, v := range a.bramInterference {
		if v != b.bramInterference[i] {
			return false
		}
	}
	return true
}

// HiddenStateEqual compares the hidden state a readback cannot observe:
// half-latch keepers and the permanent stuck-at overlay.
func HiddenStateEqual(a, b *FPGA) bool {
	for i, v := range a.inHL {
		if v != b.inHL[i] {
			return false
		}
	}
	for i, v := range a.llHL {
		if v != b.llHL[i] {
			return false
		}
	}
	for i, v := range a.ceHL {
		if v != b.ceHL[i] {
			return false
		}
	}
	if len(a.stuck) != len(b.stuck) {
		return false
	}
	for k, v := range a.stuck {
		if bv, ok := b.stuck[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// UserStateEqual reports whether two devices hold identical
// divergence-relevant state outside configuration memory.
func UserStateEqual(a, b *FPGA) bool {
	return CoreStateEqual(a, b) && HiddenStateEqual(a, b)
}

// StateEqual reports whether two devices are fully state-identical:
// configuration memory plus all user and hidden state. From this condition
// identical stimulus provably yields identical trajectories forever.
func StateEqual(a, b *FPGA) bool {
	return UserStateEqual(a, b) && a.cm.Equal(b.cm)
}

// StateHash folds all divergence-relevant state — configuration memory
// (which carries SRL truth bits and BRAM content), flip-flops, nets, BRAM
// output registers, and hidden state — into one 64-bit digest. Diagnostic
// companion to StateEqual: equal states hash equal; equality checks use
// the exact comparisons.
func (f *FPGA) StateHash() uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mixBools := func(s []bool) {
		var acc, n uint64
		for _, v := range s {
			acc <<= 1
			if v {
				acc |= 1
			}
			if n++; n == 64 {
				mix(acc)
				acc, n = 0, 0
			}
		}
		mix(acc<<1 | n)
	}
	if f.unprogrammed {
		mix(0xDEAD)
	}
	mixBools(f.ffVal)
	mixBools(f.netVal)
	mixBools(f.lutVal)
	mixBools(f.inHL)
	mixBools(f.llHL)
	mixBools(f.ceHL)
	mixBools(f.bramInterference)
	for _, v := range f.bramOut {
		mix(uint64(v))
	}
	// Stuck overlay: order-independent fold (map iteration is randomized).
	var stuckAcc uint64
	for k, v := range f.stuck {
		e := uint64(k.R)<<40 | uint64(k.C)<<20 | uint64(k.S)<<1
		if v {
			e |= 1
		}
		e *= 0x9E3779B97F4A7C15
		stuckAcc += e
	}
	mix(stuckAcc)
	return f.cm.Hash(h)
}

// HistoryCoupled reports whether the configuration carries live state that
// survives a campaign-style reset — SRL16 shift registers (truth bits are
// design state inside configuration memory), writable enabled BRAM ports
// (content persists across Reset), or a permanent stuck-at overlay. For
// such designs the cycles an injection actually simulates leak into the
// state every later injection observes, so convergence early exit (which
// skips cycles) must stay off to keep reports identical. Mirrors the
// volatility rule the cone triage uses.
func (f *FPGA) HistoryCoupled() bool {
	if f.hasStuck {
		return true
	}
	for i := range f.clbs {
		for l := 0; l < device.LUTsPerCLB; l++ {
			if f.clbs[i].lut[l].srl {
				return true
			}
		}
	}
	for i := range f.brams {
		if f.brams[i].en.valid && f.brams[i].we.valid {
			return true
		}
	}
	return false
}
