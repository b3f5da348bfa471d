// Command bench is the repository benchmark. It drives six workloads
// through the repo's public functions — direct seu sweeps from a campaign
// spec to its canonical report, campaign-service jobs in process and over
// the distributed fabric, and the fleet mission simulator — checks every
// output, and prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a run with spans around each call into a layer.
//
// Run it from the repository root with bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload dense-small -seed 1
//	bash bench/run.sh -workload all -seed 1 -out all.json
//	bash bench/run.sh -workload all -seed 1 -sets 2 -trace 1 -out bench/results/BENCH_PR11.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any op failed or produced a wrong output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/seu"
)

// instance is one workload brought up in this process.
type instance interface {
	// setUp brings the workload's stack up and runs one untimed warm-up op
	// of its cheapest item.
	setUp() error
	// op runs timed op i, recording spans under root (nil when untraced).
	op(i int, root *openSpan, rec *opRecord) error
	// probe times, under root, the layers the op's calls hide, and checks
	// what it recomputes against the op's items.
	probe(i int, root *openSpan, items []item) error
	tearDown()
}

// verifier is an instance with a check of its own beyond checkOps; it
// marks the ops whose outputs fail it.
type verifier interface {
	verify(recs []*opRecord)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// nominal is one op's wall time on the reference 2-core box. A full run
	// does -seconds/nominal ops, at least minOps: the count never depends on
	// the machine's speed, so every run of a seed does the same work.
	nominal time.Duration
	minOps  int
	// smokeOps is the op count at -scale smoke.
	smokeOps int
	// repeats marks workloads whose ops all produce the same outputs.
	repeats bool
	make    func(r *run, smoke bool) instance
}

func (w workload) ops(seconds int, smoke bool) int {
	if smoke {
		return w.smokeOps
	}
	return max(w.minOps, int(float64(seconds)*float64(time.Second)/float64(w.nominal)+0.5))
}

var workloads = []workload{
	{
		// Exhaustive vector sweeps of dense catalogue designs: the vector
		// drain does nearly all the work.
		name:    "dense-small",
		nominal: 2 * time.Second, minOps: 3, smokeOps: 2, repeats: true,
		make: func(r *run, smoke bool) instance {
			w := &sweep{r: r, geom: device.Small(), sample: 1, warmSample: 1,
				keys: []string{"LFSR 72", "VMULT 72", "MULT 48"}}
			if smoke {
				w.sample, w.warmSample = smokeSample, smokeSample
			}
			w.place = catalogRound(w.keys)
			return w
		},
	},
	{
		// Stress designs whose injections the vector kernel demotes to the
		// scalar fallback and carry lanes; one design's chunk dominates.
		name:    "demoted-small",
		nominal: 4500 * time.Millisecond, minOps: 3, smokeOps: 2, repeats: true,
		make: func(r *run, smoke bool) instance {
			w := &sweep{r: r, geom: device.Small(), sample: 0.15, warmSample: 0.15,
				keys: []string{"srl", "bram", "mix"}, place: stressRound}
			if smoke {
				w.sample, w.warmSample = smokeSample/2, smokeSample/2
			}
			return w
		},
	},
	{
		// The paper's Fig. 8 full-device exhaustive sweep: set-up, pre-plan
		// and padding heavy. MULT 48 does not place on this geometry.
		name:    "fig8-xqvr1000",
		nominal: 6 * time.Second, minOps: 3, smokeOps: 2, repeats: true,
		make: func(r *run, smoke bool) instance {
			w := &sweep{r: r, geom: device.XQVR1000(), sample: 1, warmSample: 0.1,
				keys: []string{"LFSR 72", "VMULT 72"}}
			if smoke {
				w.sample, w.warmSample = 0.002, 0.002
			}
			w.place = catalogRound(w.keys)
			return w
		},
	},
	{
		// Campaign-service jobs on the in-process pool: place, runner set-up
		// and checkpoints weigh as much as simulation.
		name:    "service-local",
		nominal: 150 * time.Millisecond, minOps: 40, smokeOps: 4,
		make: func(r *run, smoke bool) instance {
			return &service{r: r, sample: jobSample(smoke)}
		},
	},
	{
		// The same job stream leased over HTTP to two worker nodes at the
		// shipped defaults: the idle poll, not compute, sets job latency.
		name:    "service-fabric",
		nominal: 750 * time.Millisecond, minOps: 40, smokeOps: 4,
		make: func(r *run, smoke bool) instance {
			return &service{r: r, sample: jobSample(smoke), fabric: true}
		},
	},
	{
		// The fleet mission simulator, which uses no seu code: every seu
		// change must leave it unchanged.
		name:    "mission-paper",
		nominal: 2500 * time.Millisecond, minOps: 3, smokeOps: 2, repeats: true,
		make: func(r *run, smoke bool) instance {
			if smoke {
				return &fleet{r: r, boards: 2, duration: 48 * time.Hour, strikes: 1000}
			}
			return &fleet{r: r, boards: 8, duration: 14 * 24 * time.Hour, strikes: 48000}
		},
	},
}

// smokeSample is the dense sweeps' sample at -scale smoke, small enough
// for the scalar oracle to recompute in seconds.
const smokeSample = 0.02

func jobSample(smoke bool) float64 {
	if smoke {
		return 0.01
	}
	return 0.03
}

// setups is how many times a run sets its workload up; setup_s is their
// median.
const setups = 5

// maxWorkers caps every worker pool: one client drives at most this many
// workers, or fewer on a smaller machine.
const maxWorkers = 2

// run is the state one workload run shares with its instance.
type run struct {
	ctx     context.Context
	seed    int64
	workers int
	tmp     string  // scratch directory inside the checkout
	tr      *tracer // nil for an untraced run
}

// envInfo records what the numbers were measured on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			e.Commit = rev
			if vcs["vcs.modified"] == "true" {
				e.Commit += "+dirty"
			}
		}
	}
	return e
}

// result is one workload run's full record (the -out file).
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Scale     string            `json:"scale"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       envInfo           `json:"env"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	SetupS    []float64         `json:"setup_s"`
	OpS       []float64         `json:"op_s"`
	TracedOpS []float64         `json:"traced_op_s,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Digests maps each item to its result digest and Reports to the
	// SHA-256 of its report bytes.
	Digests map[string]string `json:"digests,omitempty"`
	Reports map[string]string `json:"report_sha256,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	out      string
	// dir holds everything a run writes: service state under run/, spans
	// under spans/.
	dir string
}

func main() {
	start := time.Now()
	o := options{dir: ".bench_build"}
	var trace, sets int
	var update string
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the campaigns, stress designs, jobs and missions")
	flag.IntVar(&o.seconds, "seconds", 10, "target measuring time; sets the op count from each workload's nominal op time")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: spans around each layer call (kept in .bench_build/spans/) and per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "full or smoke (seconds-long inputs for tests)")
	flag.StringVar(&o.out, "out", "", "write the full result JSON here")
	flag.IntVar(&sets, "sets", 1, "with -workload all: untraced sets to run (a traced set follows with -trace 1)")
	flag.StringVar(&update, "update", "", "with -workload all -seed 1: rewrite this committed digest file for -scale")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.scale != "full" && o.scale != "smoke" || o.seconds < 1 || sets < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad flags: -trace 0|1, -scale full|smoke, -seconds >= 1, -sets >= 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o, sets, update))
	}
	w, ok := lookup(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res := runOne(start, w, o, update != "")
	printResult(res)
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(driverLine(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs one workload in this process: set-ups, then ops in a closed
// loop, then the checks. A traced run alternates untraced and traced ops,
// so the difference between the two is the tracing overhead.
func runOne(start time.Time, w workload, o options, skipDigests bool) *result {
	res := &result{Workload: w.name, Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Traced: o.trace, Env: environment()}
	fail := func(err error) *result {
		res.Errors = append(res.Errors, err.Error())
		res.Attempted, res.Failed = max(res.Attempted, 1), max(res.Failed, 1)
		return res
	}
	tmp, err := filepath.Abs(filepath.Join(o.dir, "run"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		return fail(err)
	}
	r := &run{ctx: context.Background(), seed: o.seed, workers: min(maxWorkers, runtime.GOMAXPROCS(0)), tmp: tmp}
	if o.trace {
		r.tr = newTracer()
	}
	inst := w.make(r, o.scale == "smoke")
	defer inst.tearDown()
	for k := 0; k < setups; k++ {
		t := time.Now()
		if k == 0 {
			t = start
		}
		if err := inst.setUp(); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
	}

	var recs []*opRecord
	for i := 0; i < w.ops(o.seconds, o.scale == "smoke"); i++ {
		rec := &opRecord{traced: r.tr != nil && i%2 == 1, notes: map[string]float64{}}
		var root *openSpan
		if rec.traced {
			root = r.tr.root("op", i)
		}
		// Each op starts from a collected heap, so neither its time nor the
		// peak RSS depends on where the previous op left the GC cycle.
		runtime.GC()
		before := seuCounters()
		t := time.Now()
		rec.err = inst.op(i, root, rec)
		rec.wall = time.Since(t)
		root.end()
		after := seuCounters()
		for k, v := range after {
			rec.notes[k] += v - before[k]
		}
		if rec.err == nil && rec.traced {
			p := r.tr.root("probe", i)
			rec.err = inst.probe(i, p, rec.items)
			p.end()
		}
		recs = append(recs, rec)
	}
	inst.tearDown()

	var want map[string]string
	if !skipDigests {
		if want, err = expectedDigests(o.scale, w.name, o.seed); err != nil {
			return fail(err)
		}
	}
	checkOps(recs, w.repeats, want)
	if v, ok := inst.(verifier); ok {
		v.verify(recs)
	}

	res.Digests, res.Reports = map[string]string{}, map[string]string{}
	for i, rec := range recs {
		res.Attempted++
		if rec.err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("op %d: %v", i, rec.err))
			continue
		}
		for j, it := range rec.items {
			if _, seen := res.Digests[it.key]; !seen {
				res.Digests[it.key], res.Reports[it.key] = rec.digests[j], sha(it.report)
			}
		}
		if rec.traced {
			res.TracedOpS = append(res.TracedOpS, rec.wall.Seconds())
		} else {
			res.OpS = append(res.OpS, rec.wall.Seconds())
		}
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	if r.tr != nil {
		res.PerLayer = perLayer(recs, r.tr.snapshot())
		path := filepath.Join(o.dir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := r.tr.write(path); err != nil {
			return fail(err)
		}
	} else {
		res.EndToEnd = endToEnd(res.SetupS, res.OpS, peakRSSMB())
	}
	return res
}

// seuCounters reads the program's process-wide seu counters.
func seuCounters() map[string]float64 {
	sw, dr, rf, ff := seu.VectorKernelStats()
	ph, pm := seu.PlanCacheStats()
	oh, om := seu.PoolStats()
	return map[string]float64{
		"seu.vector_sweeps": float64(sw), "seu.vector_drains": float64(dr),
		"seu.vector_lanes_refilled": float64(rf), "seu.vector_fast_forward_cycles": float64(ff),
		"seu.plan_cache_hits": float64(ph), "seu.plan_cache_misses": float64(pm),
		"seu.pool_hits": float64(oh), "seu.pool_misses": float64(om),
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// aliases are the names the end-to-end metrics go by on each kind of
// workload.
func aliases(workload string) map[string]string {
	switch {
	case strings.HasPrefix(workload, "service"):
		return map[string]string{"op_p50_s": "job_p50_s", "op_p75_s": "job_p75_s"}
	case strings.HasPrefix(workload, "mission"):
		return map[string]string{"op_p50_s": "mission_s"}
	}
	return map[string]string{"op_p50_s": "sweep_s"}
}

func printResult(res *result) {
	fmt.Printf("# %s seed %d scale %s: %d ops, %d failed; nproc %d GOMAXPROCS %d %s commit %s\n",
		res.Workload, res.Seed, res.Scale, res.Attempted, res.Failed,
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit)
	for _, e := range res.Errors {
		fmt.Printf("# error: %s\n", e)
	}
	ms := res.EndToEnd
	if res.Traced {
		ms = res.PerLayer
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	al := aliases(res.Workload)
	for _, k := range names {
		label := k
		if a, ok := al[k]; ok && !res.Traced {
			label = k + " (" + a + ")"
		}
		fmt.Printf("%-36s %14.6g %s\n", label, ms[k].Value, ms[k].Unit)
	}
	if !res.Traced {
		fmt.Printf("%-36s %14.6g %s\n", "error_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "failed/attempted")
	}
}

// driverMetrics are the metrics of the final output line; with -trace 1
// the per-layer ones. They mirror BENCHMARK.json.
var driverMetrics = struct{ endToEnd, perLayer []string }{
	endToEnd: []string{"setup_s", "op_p50_s", "op_p75_s", "peak_rss_mb"},
	perLayer: []string{
		"place.build_place_pct", "place.self_pct",
		"board.new_pct", "board.compile_vector_pct", "board.self_pct",
		"fpga.sensitivity_mask_pct",
		"seu.run_pct", "seu.runner_setup_pct", "seu.preplan_pct", "seu.simulate_pct", "seu.simulate_wall_pct",
		"seu.chunk_max_pct", "seu.chunk_skew", "seu.assemble_pct", "seu.self_pct",
		"seu.bits_per_s", "seu.sim_inj_per_s",
		"seu.bits", "seu.pad_skipped", "seu.triage_skipped", "seu.sim_injections", "seu.failures",
		"seu.sim_failure_ratio", "seu.cycles_simulated", "seu.cycles_skipped", "seu.early_exit_ratio",
		"seu.vector_sweeps", "seu.vector_drains", "seu.vector_lanes_refilled", "seu.vector_fast_forward_cycles",
		"seu.plan_cache_hits", "seu.plan_cache_misses", "seu.pool_hits", "seu.pool_misses",
		"core.emit_pct", "core.self_pct",
		"campaign.submit_pct", "campaign.queue_wait_pct", "campaign.run_pct", "campaign.report_pct",
		"campaign.self_pct", "campaign.chunks_per_job",
		"fabric.blob_pct", "fabric.blob_puts", "fabric.blob_gets", "fabric.blob_bytes",
		"fabric.http_pct", "fabric.http_requests", "fabric.lease_empty_ratio",
		"fabric.leases_issued", "fabric.leases_expired", "fabric.leases_stolen", "fabric.chunks_committed",
		"fabric.commit_ratio", "fabric.self_pct",
		"mission.build_model_pct", "mission.run_pct", "mission.marshal_pct", "mission.strikes",
		"mission.board_days_per_s", "mission.self_pct",
		"bench.traced_op_s", "bench.trace_overhead_pct", "bench.unattributed_pct",
	},
}

// driverLine renders the final output line.
func driverLine(res *result) string {
	names, from := driverMetrics.endToEnd, res.EndToEnd
	if res.Traced {
		names, from = driverMetrics.perLayer, res.PerLayer
	}
	ms := make(map[string]metric, len(names))
	for _, n := range names {
		if m, ok := from[n]; ok {
			ms[n] = m
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	return string(b)
}

// runAll re-executes the benchmark once per workload and set, so no
// process-wide cache, pool or counter carries warmth from one workload into
// the next and peak RSS is each workload's own. It checks that the local
// and fabric services returned identical report bytes for every job both
// ran, and returns the exit status.
func runAll(o options, sets int, update string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir := filepath.Join(o.dir, "all")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type set struct {
		Traced  bool      `json:"traced"`
		Results []*result `json:"results"`
	}
	var all []set
	plan := make([]bool, sets)
	if o.trace {
		plan = append(plan, true)
	}
	ok := true
	for _, traced := range plan {
		s := set{Traced: traced}
		for _, w := range workloads {
			out := filepath.Join(dir, w.name+".json")
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-scale", o.scale, "-trace", map[bool]string{false: "0", true: "1"}[traced], "-out", out}
			if update != "" {
				args = append(args, "-update", update)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res result
			b, err := os.ReadFile(out)
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			os.Remove(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v (child: %v)\n", w.name, err, runErr)
				ok = false
				continue
			}
			ok = ok && res.Correct && runErr == nil
			s.Results = append(s.Results, &res)
		}
		if err := sameJobReports(s.Results); err != nil {
			fmt.Printf("# error: %v\n", err)
			ok = false
		}
		all = append(all, s)
	}
	if update != "" && ok {
		if err := updateDigests(update, o.scale, all[0].Results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, struct {
			Env  envInfo `json:"env"`
			Sets []set   `json:"sets"`
		}{environment(), all}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Printf("{\"correct\": %v}\n", ok)
	if !ok {
		return 1
	}
	return 0
}

// sameJobReports checks that the in-process and the fabric service
// returned byte-identical reports for every job both ran.
func sameJobReports(results []*result) error {
	var local, fab *result
	for _, r := range results {
		switch r.Workload {
		case "service-local":
			local = r
		case "service-fabric":
			fab = r
		}
	}
	if local == nil || fab == nil {
		return nil
	}
	compared := 0
	for k, h := range local.Reports {
		if fh, ok := fab.Reports[k]; ok {
			compared++
			if fh != h {
				return fmt.Errorf("%s: service-local and service-fabric reports differ", k)
			}
		}
	}
	if compared == 0 {
		return errors.New("service-local and service-fabric ran no job in common")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
