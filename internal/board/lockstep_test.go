package board

import (
	"testing"

	"repro/internal/device"
)

// TestLockedTracksInjectionAndRepair walks the lock detector through the
// campaign life cycle: locked after configuration, unlocked the moment a
// configuration bit is injected, locked again once the bit is repaired and
// user state has drained back into lock-step.
func TestLockedTracksInjectionAndRepair(t *testing.T) {
	bd := testbed(t)
	if !bd.Locked() {
		t.Fatal("freshly configured pair must be locked")
	}
	for i := 0; i < 20; i++ {
		bd.Step()
		if !bd.Locked() {
			t.Fatalf("identical-stimulus pair unlocked at cycle %d", i)
		}
	}

	// Find a bit whose injection visibly unlocks the pair: flip, check,
	// repair, until one diverges the configuration. Any bit must at least
	// unlock the config comparison.
	g := bd.Geometry()
	golden := bd.Golden.ConfigMemory()
	a := device.BitAddr(3 * int64(g.FrameLength())) // a frame well inside the CLB region
	bd.DUT.InjectBit(a)
	if bd.Locked() {
		t.Fatal("pair must unlock when DUT configuration diverges")
	}

	// Repair through the configuration port and reset user state: the pair
	// must re-lock.
	frame := a.Frame(g)
	if err := bd.Port.WriteFrame(golden.Frame(frame)); err != nil {
		t.Fatal(err)
	}
	bd.ResetBoth()
	if !bd.Locked() {
		t.Fatal("repaired and reset pair must re-lock")
	}
	for i := 0; i < 10; i++ {
		if !bd.Step() {
			t.Fatal("repaired pair mismatched")
		}
	}
	if !bd.Locked() {
		t.Fatal("repaired pair must stay locked")
	}
}

// TestLockedSeesHiddenDivergence: two devices with identical outputs but a
// diverged half-latch keeper must NOT report locked — hidden state can
// surface later, so crediting future cycles would be unsound.
func TestLockedSeesHiddenDivergence(t *testing.T) {
	bd := testbed(t)
	sites := bd.DUT.HalfLatchSites()
	if len(sites) == 0 {
		t.Skip("design exposes no half-latch sites")
	}
	s := sites[len(sites)/2]
	bd.DUT.FlipHalfLatch(s)
	bd.DUT.Settle()
	if bd.Locked() {
		t.Fatal("keeper divergence must unlock the pair")
	}
	bd.DUT.RestoreHalfLatch(s)
	bd.DUT.Settle()
	bd.ResetBoth()
	if !bd.Locked() {
		t.Fatal("restored keeper must re-lock the pair")
	}
}

// TestSetEventDrivenKeepsLockStep: toggling the kernel mid-run must not
// disturb lock-step behaviour.
func TestSetEventDrivenKeepsLockStep(t *testing.T) {
	bd := testbed(t)
	bd.SetEventDriven(false)
	for i := 0; i < 10; i++ {
		if !bd.Step() {
			t.Fatal("mismatch under sweep kernel")
		}
	}
	bd.SetEventDriven(true)
	for i := 0; i < 10; i++ {
		if !bd.Step() {
			t.Fatal("mismatch after re-enabling event kernel")
		}
	}
	if !bd.Locked() {
		t.Fatal("pair must be locked after identical stimulus")
	}
}
