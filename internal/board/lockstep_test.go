package board

import "testing"

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
	if !bd.StateEqual() {
		t.Fatal("pair must be state-identical after identical stimulus")
	}
}
