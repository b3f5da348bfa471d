package crosscheck

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/device"
	"repro/internal/seu"
)

// Metamorphic invariants: properties relating DIFFERENT campaigns (or a
// campaign to direct board manipulation) that must hold by construction of
// the simulator. Unlike the lattice sweep — which checks that equivalent
// configurations agree — these check that deliberately inequivalent
// configurations disagree in exactly the promised way.

func checkInvariants(d Design, p Params, ref *seu.Report) error {
	if err := checkBookkeeping(ref); err != nil {
		return fmt.Errorf("%s: bookkeeping: %w", d.Name, err)
	}
	if err := checkClassifyInvariance(d, p, ref); err != nil {
		return fmt.Errorf("%s: classify-invariance: %w", d.Name, err)
	}
	if err := checkMaxBitsPrefix(d, p, ref); err != nil {
		return fmt.Errorf("%s: maxbits-prefix: %w", d.Name, err)
	}
	if err := checkSampleMonotonic(d, p); err != nil {
		return fmt.Errorf("%s: sample-monotonicity: %w", d.Name, err)
	}
	if err := checkInertBits(d, p); err != nil {
		return fmt.Errorf("%s: inert-injection: %w", d.Name, err)
	}
	if err := checkRepairRestores(d, p, ref); err != nil {
		return fmt.Errorf("%s: repair-restores: %w", d.Name, err)
	}
	return nil
}

// checkBookkeeping validates a single report's internal consistency: counter
// relations, per-kind tallies, record ordering, and record/address kind
// agreement.
func checkBookkeeping(rep *seu.Report) error {
	if rep.Failures > rep.Injections || rep.Persistent > rep.Failures {
		return fmt.Errorf("counter order violated: injections=%d failures=%d persistent=%d",
			rep.Injections, rep.Failures, rep.Persistent)
	}
	if got := rep.InjectionsByKind.Total(); got != rep.Injections {
		return fmt.Errorf("InjectionsByKind totals %d, want %d", got, rep.Injections)
	}
	if got := rep.FailuresByKind.Total(); got != rep.Failures {
		return fmt.Errorf("FailuresByKind totals %d, want %d", got, rep.Failures)
	}
	if int64(len(rep.SensitiveBits)) != rep.Failures {
		return fmt.Errorf("%d bit records for %d failures", len(rep.SensitiveBits), rep.Failures)
	}
	var persistent int64
	for i, b := range rep.SensitiveBits {
		if i > 0 && rep.SensitiveBits[i-1].Addr >= b.Addr {
			return fmt.Errorf("records not strictly ascending at index %d (addr %d)", i, b.Addr)
		}
		if info := rep.Geom.Classify(b.Addr); info.Kind != b.Kind {
			return fmt.Errorf("record %d: kind %s but Classify says %s", b.Addr, b.Kind, info.Kind)
		}
		if b.Persistent {
			persistent++
		}
	}
	if persistent != rep.Persistent {
		return fmt.Errorf("%d persistent records for Persistent=%d", persistent, rep.Persistent)
	}
	return nil
}

// checkClassifyInvariance re-runs the reference campaign with the
// persistence-classification pass disabled: every sensitivity-related field
// must be unchanged (classification only appends a post-failure phase), and
// persistence must vanish.
func checkClassifyInvariance(d Design, p Params, ref *seu.Report) error {
	bd, err := board.New(d.Placed, p.BoardSeed)
	if err != nil {
		return err
	}
	opts := p.options(Reference())
	opts.ClassifyPersistence = false
	rep, err := seu.Run(bd, opts)
	if err != nil {
		return err
	}
	if rep.Persistent != 0 {
		return fmt.Errorf("Persistent=%d with classification off", rep.Persistent)
	}
	if rep.Injections != ref.Injections || rep.Failures != ref.Failures {
		return fmt.Errorf("injections/failures %d/%d, want %d/%d",
			rep.Injections, rep.Failures, ref.Injections, ref.Failures)
	}
	if len(rep.SensitiveBits) != len(ref.SensitiveBits) {
		return fmt.Errorf("%d records, want %d", len(rep.SensitiveBits), len(ref.SensitiveBits))
	}
	for i, b := range rep.SensitiveBits {
		r := ref.SensitiveBits[i]
		if b.Addr != r.Addr || b.Kind != r.Kind || b.FirstErrorCycle != r.FirstErrorCycle ||
			!intsEqual(b.FailedOutputs, r.FailedOutputs) {
			return fmt.Errorf("record %d (addr %d) changed under classification toggle", i, b.Addr)
		}
	}
	return nil
}

// checkMaxBitsPrefix halves the injection cap: the capped run must perform
// exactly MaxBits injections, and its sensitive-bit records must be an exact
// prefix of the reference's — the documented "first MaxBits selected bits in
// ascending address order" semantics.
func checkMaxBitsPrefix(d Design, p Params, ref *seu.Report) error {
	k := ref.Injections / 2
	if k == 0 {
		return nil
	}
	bd, err := board.New(d.Placed, p.BoardSeed)
	if err != nil {
		return err
	}
	opts := p.options(Reference())
	opts.MaxBits = k
	rep, err := seu.Run(bd, opts)
	if err != nil {
		return err
	}
	if rep.Injections != k {
		return fmt.Errorf("capped run injected %d bits, want exactly %d", rep.Injections, k)
	}
	if len(rep.SensitiveBits) > len(ref.SensitiveBits) {
		return fmt.Errorf("capped run found %d sensitive bits, reference only %d",
			len(rep.SensitiveBits), len(ref.SensitiveBits))
	}
	for i, b := range rep.SensitiveBits {
		if !recordsEqual(b, ref.SensitiveBits[i]) {
			return fmt.Errorf("record %d (addr %d) is not a prefix of the reference", i, b.Addr)
		}
	}
	return nil
}

// checkSampleMonotonic runs the campaign uncapped at two sampling rates: the
// per-bit hash selection guarantees the lower rate's injected set — and so
// its sensitive set — is a subset of the higher rate's, with identical
// per-record outcomes (stimulus depends only on (seed, address)).
func checkSampleMonotonic(d Design, p Params) error {
	run := func(sample float64) (*seu.Report, error) {
		bd, err := board.New(d.Placed, p.BoardSeed)
		if err != nil {
			return nil, err
		}
		opts := p.options(Reference())
		opts.Sample = sample
		opts.MaxBits = 0
		return seu.Run(bd, opts)
	}
	small, err := run(p.Sample / 2)
	if err != nil {
		return err
	}
	big, err := run(p.Sample)
	if err != nil {
		return err
	}
	if small.Injections > big.Injections {
		return fmt.Errorf("sample %g injected %d > sample %g's %d",
			p.Sample/2, small.Injections, p.Sample, big.Injections)
	}
	byAddr := make(map[device.BitAddr]seu.BitRecord, len(big.SensitiveBits))
	for _, b := range big.SensitiveBits {
		byAddr[b.Addr] = b
	}
	for _, b := range small.SensitiveBits {
		r, ok := byAddr[b.Addr]
		if !ok {
			return fmt.Errorf("bit %d sensitive at sample %g but absent at sample %g",
				b.Addr, p.Sample/2, p.Sample)
		}
		if !recordsEqual(b, r) {
			return fmt.Errorf("bit %d: record differs between sampling rates", b.Addr)
		}
	}
	return nil
}

// checkInertBits force-injects bits the static cone analysis classifies as
// provably inert and demands they live up to it: every observed clock must
// match, and after restoring the injected frame the configurations must be
// identical again and lock-step must continue. Full state equality is NOT
// asserted — an inert flip may legitimately disturb state outside the
// observed cone (unused FFs, keepers on unobserved wires); the cone only
// promises the comparator and the scrub can never see it. Skipped for
// history-coupled designs, where the mask is conservatively all-sensitive.
func checkInertBits(d Design, p Params) error {
	bd, err := board.New(d.Placed, p.BoardSeed)
	if err != nil {
		return err
	}
	if bd.DUT.HistoryCoupled() {
		return nil
	}
	mask, _ := bd.Golden.SensitivityMask(bd.OutputNetIDs())
	g := bd.Geometry()
	gm := bd.Golden.ConfigMemory()
	total := g.TotalBits()
	// Sample inert non-pad bits evenly across the address space; pad bits
	// are skipped because pad retirement already covers them and they carry no
	// decode at all.
	var picked []device.BitAddr
	stride := total/977 + 1
	for a := int64(0); a < total && len(picked) < 12; a += stride {
		addr := device.BitAddr(a)
		if mask.Get(addr) || g.Classify(addr).Kind == device.KindPad {
			continue
		}
		picked = append(picked, addr)
	}
	for _, a := range picked {
		bd.ResetCampaignState(mix(p.Seed, uint64(a)))
		bd.DUT.InjectBit(a)
		if bd.DUT.ConfigMemory().Get(a) == gm.Get(a) {
			return fmt.Errorf("bit %d: injection did not flip the stored bit", a)
		}
		for i := 0; i < p.ObserveCycles; i++ {
			if !bd.Step() {
				return fmt.Errorf("bit %d: output mismatch at cycle %d despite inert classification", a, i)
			}
		}
		if err := bd.Port.WriteFrame(gm.Frame(a.Frame(g))); err != nil {
			return fmt.Errorf("bit %d: repair: %w", a, err)
		}
		if diff := bd.DUT.ConfigMemory().DiffFrames(gm); len(diff) != 0 {
			return fmt.Errorf("bit %d: %d frames differ after frame restore", a, len(diff))
		}
		for i := 0; i < p.ObserveCycles; i++ {
			if !bd.Step() {
				return fmt.Errorf("bit %d: output mismatch at post-repair cycle %d", a, i)
			}
		}
	}
	return nil
}

// checkRepairRestores re-enacts the campaign's repair procedure on a few of
// the reference run's sensitive bits and checks its contract directly:
// scrubbing every differing frame restores configuration equality, and
// reset (with the campaign's full-reconfiguration fallback) re-synchronizes
// the outputs.
func checkRepairRestores(d Design, p Params, ref *seu.Report) error {
	n := len(ref.SensitiveBits)
	if n == 0 {
		return nil
	}
	idxs := []int{0, n / 2, n - 1}
	bd, err := board.New(d.Placed, p.BoardSeed)
	if err != nil {
		return err
	}
	gm := bd.Golden.ConfigMemory()
	prev := -1
	for _, idx := range idxs {
		if idx == prev {
			continue
		}
		prev = idx
		a := ref.SensitiveBits[idx].Addr
		bd.ResetCampaignState(mix(p.Seed, uint64(a)))
		bd.DUT.InjectBit(a)
		for i := 0; i < p.ObserveCycles; i++ {
			bd.Step()
		}
		dm := bd.DUT.ConfigMemory()
		for _, fidx := range dm.DiffFrames(gm) {
			if err := bd.Port.WriteFrame(gm.Frame(fidx)); err != nil {
				return fmt.Errorf("bit %d: scrubbing frame %d: %w", a, fidx, err)
			}
		}
		if left := dm.DiffFrames(gm); len(left) != 0 {
			return fmt.Errorf("bit %d: %d frames still differ after scrub", a, len(left))
		}
		bd.ResetBoth()
		if !bd.Match() {
			if err := bd.Port.FullConfigure(bitstream.Full(gm)); err != nil {
				return fmt.Errorf("bit %d: full reconfiguration: %w", a, err)
			}
			bd.ResetBoth()
			if !bd.Match() {
				return fmt.Errorf("bit %d: outputs disagree even after full reconfiguration and reset", a)
			}
		}
	}
	return nil
}

func recordsEqual(a, b seu.BitRecord) bool {
	return a.Addr == b.Addr && a.Kind == b.Kind && a.Persistent == b.Persistent &&
		a.FirstErrorCycle == b.FirstErrorCycle && intsEqual(a.FailedOutputs, b.FailedOutputs)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
