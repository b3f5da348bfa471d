package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/seu"
)

// item is one canonical output of an op: a campaign or mission report.
type item struct {
	key    string
	report []byte
	// bits are the campaign's sensitive bits (address, kind, persistence,
	// first-error cycle, failed outputs); direct sweeps only.
	bits []seu.BitRecord
}

// knobs are the report fields that name execution settings or carry
// diagnostics. Every setting produces the same result, so the digest leaves
// them out and the scalar oracle can reproduce a vector run's digest.
var knobs = []string{"kernel", "workers", "triage", "fastsim", "triage_skipped", "cycles_simulated", "cycles_skipped"}

// digest is the item's result digest: the SHA-256 of the report with the
// knob fields removed, plus its sensitive bits.
func (it item) digest() (string, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(it.report, &fields); err != nil {
		return "", fmt.Errorf("%s: %w", it.key, err)
	}
	for _, k := range knobs {
		delete(fields, k)
	}
	b, err := json.Marshal(fields) // sorted keys, compact values
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(b)
	if it.bits != nil {
		bits, err := json.Marshal(it.bits)
		if err != nil {
			return "", err
		}
		h.Write(bits)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sameResult checks that got carries want's result. It compares digests,
// not bytes: a campaign run as the service's 64-chunk plan can split the
// same cycles differently between cycles_simulated and cycles_skipped than
// RunContext does (VMULT 72, small, sample 0.03, seed 18: 12582/12377 vs
// 12629/12330), and those diagnostics are not part of the result.
func sameResult(got, want item) error {
	dg, err := got.digest()
	if err != nil {
		return err
	}
	dw, err := want.digest()
	if err != nil {
		return err
	}
	if dg != dw {
		return fmt.Errorf("%s: result digest %.12s, want %.12s", want.key, dg, dw)
	}
	return nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestFile holds the committed seed-1 result digests:
// scale → workload → item key → digest.
type digestFile map[string]map[string]map[string]string

//go:embed testdata/digests.json
var committedDigests []byte

// expectedDigests returns the committed digests for a run, or nil when none
// were committed for its seed.
func expectedDigests(scale, workload string, seed int64) (map[string]string, error) {
	if seed != 1 {
		return nil, nil
	}
	var df digestFile
	if err := json.Unmarshal(committedDigests, &df); err != nil {
		return nil, fmt.Errorf("committed digests: %w", err)
	}
	return df[scale][workload], nil
}

// checkOps applies the checks every workload shares and marks each op whose
// outputs fail them: each item's digest must match the committed one, and
// on a workload whose ops repeat the same items every op's bytes must equal
// the first op's.
func checkOps(recs []*opRecord, repeats bool, want map[string]string) {
	var first *opRecord
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		for _, it := range rec.items {
			d, err := it.digest()
			if err != nil {
				rec.err = err
				break
			}
			rec.digests = append(rec.digests, d)
			if w, ok := want[it.key]; ok && w != d {
				rec.err = fmt.Errorf("%s: result digest %.12s, committed %.12s", it.key, d, w)
				break
			}
		}
		if rec.err != nil || !repeats {
			continue
		}
		if first == nil {
			first = rec
			continue
		}
		if len(rec.items) != len(first.items) {
			rec.err = fmt.Errorf("op produced %d reports, first op %d", len(rec.items), len(first.items))
			continue
		}
		for i, it := range rec.items {
			if !bytes.Equal(it.report, first.items[i].report) || rec.digests[i] != first.digests[i] {
				rec.err = fmt.Errorf("%s: output differs from the first op of the same seed", it.key)
				break
			}
		}
	}
}

// updateDigests rewrites the committed digest file's entries for scale from
// a seed-1 run of every workload.
func updateDigests(path, scale string, results []*result) error {
	df := digestFile{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &df); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	df[scale] = map[string]map[string]string{}
	for _, res := range results {
		if res.Seed != 1 || !res.Correct {
			return fmt.Errorf("digests come from a correct seed-1 run; %s seed %d correct=%v", res.Workload, res.Seed, res.Correct)
		}
		df[scale][res.Workload] = res.Digests
	}
	b, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
