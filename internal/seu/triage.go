package seu

import (
	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/device"
)

// Campaign-scoped static triage. Before the first injection the campaign
// computes the cone of influence of the comparator's observed outputs over
// the golden decoded fabric (internal/fpga's SensitivityMask) and skips the
// board entirely for bits proven unable to affect any observation — the
// generalization of pad retirement from padding to all unused fabric. Skipped
// bits are tallied exactly as a benign injection would be, so reports stay
// byte-identical to triage-off runs; the analysis refuses to triage
// configurations with history-coupled state (SRL16, writable BRAM, stuck
// faults), where skipping an injection would perturb later outcomes.
type triage struct {
	mask *bitstream.Memory // set = potentially sensitive, clear = inert
}

// newTriage builds the sensitivity mask from the golden device. The mask is
// immutable afterwards and safe to share across campaign workers.
func newTriage(bd *board.SLAAC1V) *triage {
	mask, _ := bd.Golden.SensitivityMask(bd.OutputNetIDs())
	return &triage{mask: mask}
}

// inert reports whether bit a is provably unable to influence any observed
// output (false when triage is disabled).
func (t *triage) inert(a device.BitAddr) bool {
	return t != nil && !t.mask.Get(a)
}

// frameScrub tracks, per board replica, the DUT configuration-memory
// generation at which each frame was last verified equal to the campaign's
// golden snapshot. A frame whose generation has not moved since then is
// provably still golden, so post-injection scrubbing can skip the bit
// compare: the invariant is maintained by bitstream.Memory bumping the
// generation on every mutation.
type frameScrub struct {
	clean []uint64 // FrameGen+1 at last verification; 0 = never verified
}

func newFrameScrub(g device.Geometry) *frameScrub {
	return &frameScrub{clean: make([]uint64, g.TotalFrames())}
}

// isClean reports whether frame f is untouched since it was last verified
// equal to the golden snapshot.
func (fs *frameScrub) isClean(cm *bitstream.Memory, f int) bool {
	return fs.clean[f] == cm.FrameGen(f)+1
}

// markClean records that frame f currently equals the golden snapshot.
func (fs *frameScrub) markClean(cm *bitstream.Memory, f int) {
	fs.clean[f] = cm.FrameGen(f) + 1
}
