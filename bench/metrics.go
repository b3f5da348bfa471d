package main

import (
	"encoding/json"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opRecord is one timed op's outcome.
type opRecord struct {
	wall   time.Duration
	traced bool
	items  []item
	// digests are the items' result digests, filled by checkOps.
	digests []string
	// notes are per-op counts and timings the op read from the program:
	// counter deltas and job status timestamps.
	notes map[string]float64
	err   error
}

func (rec *opRecord) note(name string, v float64) {
	if rec != nil {
		rec.notes[name] += v
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// endToEnd derives the end-to-end metrics from the untraced ops.
func endToEnd(setups []float64, walls []float64, peakRSSMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"op_p50_s":    {median(walls), "s"},
		"op_p75_s":    {quantile(walls, 0.75), "s"},
		"peak_rss_mb": {peakRSSMB, "MB"},
	}
}

// busyMetrics are the per-layer busy times, each the summed duration of
// the named spans: per-layer name → span name.
var busyMetrics = [][2]string{
	{"place.build_place", "place.build_place"},
	{"board.new", "board.new"},
	{"board.compile_vector", "board.compile_vector"},
	{"fpga.sensitivity_mask", "fpga.sensitivity_mask"},
	{"seu.run", "seu.run"},
	{"seu.runner_setup", "seu.runner_setup"},
	{"seu.clone", "seu.clone"},
	{"seu.simulate", "seu.chunk"},
	{"seu.simulate_wall", "seu.simulate"},
	{"seu.assemble", "seu.assemble"},
	{"core.emit", "core.emit"},
	{"campaign.submit", "campaign.submit"},
	{"campaign.report", "campaign.report"},
	{"mission.build_model", "mission.build_model"},
	{"mission.run", "mission.run"},
	{"mission.marshal", "mission.marshal"},
}

// latencyMetrics are medians of single calls: per-layer name → span name.
var latencyMetrics = [][2]string{
	{"seu.chunk_p50", "seu.chunk"},
	{"fabric.blob_put_p50", "fabric.blob_put"},
	{"fabric.blob_get_p50", "fabric.blob_get"},
	{"fabric.http_lease_p50", "fabric.http_lease"},
	{"fabric.http_complete_p50", "fabric.http_complete"},
	{"fabric.http_blob_p50", "fabric.http_blob"},
}

// layers are the repo's modules the spans are named after.
var layers = []string{"place", "board", "fpga", "seu", "core", "campaign", "fabric", "mission"}

// campaignCounts are the fields of a campaign report the seu counts come
// from; a mission report has none of them.
type campaignCounts struct {
	Injections      *int64           `json:"injections"`
	Failures        int64            `json:"failures"`
	TriageSkipped   int64            `json:"triage_skipped"`
	CyclesSimulated int64            `json:"cycles_simulated"`
	CyclesSkipped   int64            `json:"cycles_skipped"`
	ByKind          map[string]int64 `json:"injections_by_kind"`
}

// perLayer derives the per-layer metrics of a traced run. Times and counts
// are per traced op (means); a _pct figure is a busy time as a share of the
// traced op's wall. Busy times of calls that run concurrently add up, so a
// layer's share can pass 100%; self times use unions and do not.
func perLayer(recs []*opRecord, spans []span) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	var traced, untraced []float64
	notes := map[string]float64{}
	var counts campaignCounts
	counts.ByKind = map[string]int64{}
	var bits int64
	for _, rec := range recs {
		if !rec.traced {
			untraced = append(untraced, rec.wall.Seconds())
			continue
		}
		traced = append(traced, rec.wall.Seconds())
		for k, v := range rec.notes {
			notes[k] += v
		}
		for _, it := range rec.items {
			var c campaignCounts
			if json.Unmarshal(it.report, &c) != nil || c.Injections == nil {
				continue
			}
			bits += *c.Injections
			counts.Failures += c.Failures
			counts.TriageSkipped += c.TriageSkipped
			counts.CyclesSimulated += c.CyclesSimulated
			counts.CyclesSkipped += c.CyclesSkipped
			for k, v := range c.ByKind {
				counts.ByKind[k] += v
			}
		}
	}
	n := float64(len(traced))
	if n == 0 {
		return m
	}
	opWall := 0.0
	for _, w := range traced {
		opWall += w
	}
	opWall /= n
	perOp := func(v float64) float64 { return v / n }
	share := func(v float64) float64 { return 100 * v / opWall }

	byID := make(map[int64]span, len(spans))
	busy := map[string]float64{}
	durs := map[string][]float64{}
	for _, s := range spans {
		byID[s.ID] = s
		busy[s.Name] += secs(s.dur())
		durs[s.Name] = append(durs[s.Name], secs(s.dur()))
	}
	timed := func(name string, v float64) {
		set(name+"_s", "s", v)
		set(name+"_pct", "%", share(v))
	}
	for _, bm := range busyMetrics {
		timed(bm[0], perOp(busy[bm[1]]))
	}
	// Pre-planning is what NewChunkRunner does besides the triage mask and
	// the vector compile, which the probes time on their own.
	timed("seu.preplan", perOp(busy["seu.runner_setup"]-busy["fpga.sensitivity_mask"]-busy["board.compile_vector"]))
	timed("campaign.queue_wait", perOp(notes["campaign.queue_wait_s"]))
	timed("campaign.run", perOp(notes["campaign.run_s"]))
	timed("fabric.blob", perOp(busy["fabric.blob_put"]+busy["fabric.blob_get"]))
	timed("fabric.http", perOp(busy["fabric.http_lease"]+busy["fabric.http_complete"]+busy["fabric.http_blob"]+busy["fabric.http_other"]))
	for _, lm := range latencyMetrics {
		set(lm[0]+"_s", "s", median(durs[lm[1]]))
	}

	// The slowest chunk of each campaign sets its simulate wall.
	chunks := map[int64][]float64{}
	for _, s := range spans {
		if s.Name == "seu.chunk" {
			chunks[s.Parent] = append(chunks[s.Parent], secs(s.dur()))
		}
	}
	var maxSum, skew float64
	for _, cs := range chunks {
		mx := quantile(cs, 1)
		maxSum += mx
		if p50 := median(cs); p50 > 0 {
			skew = max(skew, mx/p50)
		}
	}
	timed("seu.chunk_max", perOp(maxSum))
	set("seu.chunk_skew", "ratio", skew)

	// Layer self times, over the ops' span trees (the probes are not part
	// of any op's wall).
	rootOf := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	tree := map[int64][]span{}
	for _, s := range spans {
		if r := rootOf(s); r.Name == "op" && s.ID != r.ID {
			tree[r.ID] = append(tree[r.ID], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op" {
			for l, v := range layerSelf(s, tree[s.ID]) {
				self[l] += secs(v)
			}
		}
	}
	for _, l := range layers {
		set(l+".self_pct", "%", share(perOp(self[l])))
	}
	set("bench.unattributed_pct", "%", share(perOp(self[""])))

	pad := counts.ByKind["pad"] + counts.ByKind["extra"]
	sim := bits - pad - counts.TriageSkipped
	simBusy := busy["seu.chunk"]
	set("seu.bits", "count", perOp(float64(bits)))
	set("seu.pad_skipped", "count", perOp(float64(pad)))
	set("seu.triage_skipped", "count", perOp(float64(counts.TriageSkipped)))
	set("seu.sim_injections", "count", perOp(float64(sim)))
	set("seu.failures", "count", perOp(float64(counts.Failures)))
	set("seu.sim_failure_ratio", "ratio", ratio(float64(counts.Failures), float64(sim)))
	set("seu.cycles_simulated", "count", perOp(float64(counts.CyclesSimulated)))
	set("seu.cycles_skipped", "count", perOp(float64(counts.CyclesSkipped)))
	set("seu.early_exit_ratio", "ratio", ratio(float64(counts.CyclesSkipped), float64(counts.CyclesSimulated+counts.CyclesSkipped)))
	// Cost per bit and per simulated injection come from the chunk-API
	// decomposition, the only place simulate time is visible from outside.
	if simBusy > 0 {
		set("seu.ns_per_bit", "ns", 1e9*simBusy/float64(bits))
		set("seu.ns_per_sim_inj", "ns", 1e9*simBusy/float64(max(sim, 1)))
	}
	set("seu.bits_per_s", "1/s", ratio(float64(bits), simBusy))
	set("seu.sim_inj_per_s", "1/s", ratio(float64(sim), simBusy))

	for _, k := range noteCounts {
		set(k, "count", perOp(notes[k]))
	}
	set("campaign.chunks_per_job", "count", perOp(notes["campaign.chunks_per_job"]))
	set("fabric.blob_puts", "count", perOp(float64(len(durs["fabric.blob_put"]))))
	set("fabric.blob_gets", "count", perOp(float64(len(durs["fabric.blob_get"]))))
	var blobBytes, leases, empty, requests float64
	for _, s := range spans {
		switch s.Name {
		case "fabric.blob_put", "fabric.blob_get":
			blobBytes += float64(s.Bytes)
		case "fabric.http_lease":
			leases++
			if s.Empty {
				empty++
			}
		}
		if s.layer() == "fabric" && s.Name != "fabric.blob_put" && s.Name != "fabric.blob_get" {
			requests++
		}
	}
	set("fabric.blob_bytes", "count", perOp(blobBytes))
	set("fabric.http_requests", "count", perOp(requests))
	set("fabric.lease_empty_ratio", "ratio", ratio(empty, leases))
	set("fabric.commit_ratio", "ratio", ratio(notes["fabric.chunks_committed"], notes["fabric.leases_issued"]))
	set("mission.board_days_per_s", "1/s", ratio(notes["mission.board_days"], busy["mission.run"]))

	set("bench.traced_op_s", "s", median(traced))
	if len(untraced) > 0 {
		set("bench.trace_overhead_pct", "%", 100*(median(traced)/median(untraced)-1))
	}
	return m
}

// noteCounts are the per-op counter deltas reported as counts.
var noteCounts = []string{
	"seu.vector_sweeps", "seu.vector_drains", "seu.vector_lanes_refilled", "seu.vector_fast_forward_cycles",
	"seu.plan_cache_hits", "seu.plan_cache_misses", "seu.pool_hits", "seu.pool_misses",
	"campaign.jobs_failed",
	"fabric.leases_issued", "fabric.leases_expired", "fabric.leases_stolen",
	"fabric.chunks_committed", "fabric.commit_rejects", "fabric.divergent_duplicates",
	"mission.strikes",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
