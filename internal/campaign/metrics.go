package campaign

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/seu"
)

// Metrics is the scheduler's observability plane, exposed in Prometheus
// text format by the /metrics endpoint. Everything here is diagnostics —
// nothing feeds back into scheduling, and none of it touches report
// determinism.
type Metrics struct {
	mu sync.Mutex

	poolSize int

	jobsStarted  int64
	jobsFinished map[State]int64
	chunksRun    int64
	checkpoints  int64
	lastCkpt     time.Time
	injections   int64
	failures     int64
	workersBusy  int
	started      time.Time

	// fabricStats, when set, snapshots the embedded coordinator for the
	// fabric gauge/counter block. Nil on single-node daemons, which still
	// emit the block (as zeros) so scrapes see a stable metric set.
	fabricStats func() fabric.CoordStats

	// rate window: cumulative injection samples, pruned past rateWindow.
	samples []rateSample
}

type rateSample struct {
	at  time.Time
	cum int64
}

const rateWindow = 60 * time.Second

func newMetrics(poolSize int) *Metrics {
	return &Metrics{
		poolSize:     poolSize,
		jobsFinished: make(map[State]int64),
		started:      time.Now(),
	}
}

// SetFabricSource wires the coordinator snapshot the fabric metric block
// reads. Called once at scheduler construction, before any scrape.
func (m *Metrics) SetFabricSource(fn func() fabric.CoordStats) {
	m.mu.Lock()
	m.fabricStats = fn
	m.mu.Unlock()
}

func (m *Metrics) jobStarted() {
	m.mu.Lock()
	m.jobsStarted++
	m.mu.Unlock()
}

func (m *Metrics) jobFinished(st State) {
	m.mu.Lock()
	m.jobsFinished[st]++
	m.mu.Unlock()
}

func (m *Metrics) workerBusy(delta int) {
	m.mu.Lock()
	m.workersBusy += delta
	m.mu.Unlock()
}

// checkpointed records one persisted chunk and its share of the campaign.
func (m *Metrics) checkpointed(injections, failures int64) {
	now := time.Now()
	m.mu.Lock()
	m.chunksRun++
	m.checkpoints++
	m.lastCkpt = now
	m.injections += injections
	m.failures += failures
	m.samples = append(m.samples, rateSample{at: now, cum: m.injections})
	m.prune(now)
	m.mu.Unlock()
}

func (m *Metrics) prune(now time.Time) {
	cut := 0
	for cut < len(m.samples) && now.Sub(m.samples[cut].at) > rateWindow {
		cut++
	}
	m.samples = m.samples[cut:]
}

// injectionsPerSecond is the rate over the trailing window. With fewer than
// two samples in the window the rate is 0 — a daemon idle for a minute
// reads 0, not a stale burst.
func (m *Metrics) injectionsPerSecond(now time.Time) float64 {
	m.prune(now)
	if len(m.samples) == 0 {
		return 0
	}
	first := m.samples[0]
	dt := now.Sub(first.at).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(m.injections-first.cum) / dt
}

// WritePrometheus renders the metrics plane. jobsByState is the scheduler's
// live queue snapshot (current jobs by state, including terminal ones still
// on disk).
func (m *Metrics) WritePrometheus(w io.Writer, jobsByState map[State]int) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP campaignd_jobs Current jobs by state.\n# TYPE campaignd_jobs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "campaignd_jobs{state=%q} %d\n", st, jobsByState[st])
	}

	fmt.Fprintf(w, "# HELP campaignd_jobs_started_total Jobs the scheduler has started running.\n# TYPE campaignd_jobs_started_total counter\ncampaignd_jobs_started_total %d\n", m.jobsStarted)
	fmt.Fprintf(w, "# HELP campaignd_jobs_finished_total Jobs finished, by terminal state.\n# TYPE campaignd_jobs_finished_total counter\n")
	states := make([]string, 0, len(m.jobsFinished))
	for st := range m.jobsFinished {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "campaignd_jobs_finished_total{state=%q} %d\n", st, m.jobsFinished[State(st)])
	}

	fmt.Fprintf(w, "# HELP campaignd_injections_total Injections covered by checkpointed chunks.\n# TYPE campaignd_injections_total counter\ncampaignd_injections_total %d\n", m.injections)
	fmt.Fprintf(w, "# HELP campaignd_failures_total Sensitive bits found in checkpointed chunks.\n# TYPE campaignd_failures_total counter\ncampaignd_failures_total %d\n", m.failures)
	fmt.Fprintf(w, "# HELP campaignd_injections_per_second Injection throughput over the trailing 60s.\n# TYPE campaignd_injections_per_second gauge\ncampaignd_injections_per_second %g\n", m.injectionsPerSecond(now))

	fmt.Fprintf(w, "# HELP campaignd_checkpoints_total Chunk checkpoints written.\n# TYPE campaignd_checkpoints_total counter\ncampaignd_checkpoints_total %d\n", m.checkpoints)
	age := -1.0 // no checkpoint written yet
	if !m.lastCkpt.IsZero() {
		age = now.Sub(m.lastCkpt).Seconds()
	}
	fmt.Fprintf(w, "# HELP campaignd_checkpoint_age_seconds Seconds since the last checkpoint write (-1 before the first).\n# TYPE campaignd_checkpoint_age_seconds gauge\ncampaignd_checkpoint_age_seconds %g\n", age)

	fmt.Fprintf(w, "# HELP campaignd_workers Worker pool size.\n# TYPE campaignd_workers gauge\ncampaignd_workers %d\n", m.poolSize)
	fmt.Fprintf(w, "# HELP campaignd_workers_busy Workers currently executing a shard.\n# TYPE campaignd_workers_busy gauge\ncampaignd_workers_busy %d\n", m.workersBusy)
	util := 0.0
	if m.poolSize > 0 {
		util = float64(m.workersBusy) / float64(m.poolSize)
	}
	fmt.Fprintf(w, "# HELP campaignd_worker_utilization Busy fraction of the worker pool.\n# TYPE campaignd_worker_utilization gauge\ncampaignd_worker_utilization %g\n", util)

	fmt.Fprintf(w, "# HELP campaignd_uptime_seconds Seconds since the daemon started.\n# TYPE campaignd_uptime_seconds gauge\ncampaignd_uptime_seconds %g\n", now.Sub(m.started).Seconds())

	// Vector-kernel activity (process-wide): how much settling work the
	// event-driven drain actually performed, how often retired lanes were
	// refilled mid-batch, and how many simulated cycles the per-lane
	// convergence credit skipped.
	sweeps, drains, refills, ffwd := seu.VectorKernelStats()
	fmt.Fprintf(w, "# HELP campaignd_vector_sweeps_total Worklist rounds drained by the vector kernel (one round is one sweep-equivalent).\n# TYPE campaignd_vector_sweeps_total counter\ncampaignd_vector_sweeps_total %d\n", sweeps)
	fmt.Fprintf(w, "# HELP campaignd_vector_worklist_drains_total Vector Settle calls that found pending work.\n# TYPE campaignd_vector_worklist_drains_total counter\ncampaignd_vector_worklist_drains_total %d\n", drains)
	fmt.Fprintf(w, "# HELP campaignd_vector_lane_refills_total Retired vector lanes refilled with queued injections mid-batch.\n# TYPE campaignd_vector_lane_refills_total counter\ncampaignd_vector_lane_refills_total %d\n", refills)
	fmt.Fprintf(w, "# HELP campaignd_vector_fastforward_cycles_total Simulated cycles skipped by per-lane convergence credit.\n# TYPE campaignd_vector_fastforward_cycles_total counter\ncampaignd_vector_fastforward_cycles_total %d\n", ffwd)

	// Distributed fabric. Coordinator state when this daemon embeds one,
	// zeros otherwise — the metric set stays stable across configurations.
	var fs fabric.CoordStats
	if m.fabricStats != nil {
		fs = m.fabricStats()
	}
	fmt.Fprintf(w, "# HELP campaignd_fabric_workers Live fabric worker nodes (heartbeat within TTL).\n# TYPE campaignd_fabric_workers gauge\ncampaignd_fabric_workers %d\n", fs.Workers)
	fmt.Fprintf(w, "# HELP campaignd_fabric_leases_active Chunk leases currently held by workers.\n# TYPE campaignd_fabric_leases_active gauge\ncampaignd_fabric_leases_active %d\n", fs.LeasesActive)
	fmt.Fprintf(w, "# HELP campaignd_fabric_queue_depth Chunks waiting for a worker lease.\n# TYPE campaignd_fabric_queue_depth gauge\ncampaignd_fabric_queue_depth %d\n", fs.QueueDepth)
	fmt.Fprintf(w, "# HELP campaignd_fabric_leases_issued_total Chunk leases issued to workers.\n# TYPE campaignd_fabric_leases_issued_total counter\ncampaignd_fabric_leases_issued_total %d\n", fs.LeasesIssued)
	fmt.Fprintf(w, "# HELP campaignd_fabric_leases_expired_total Leases expired (deadline passed or worker lost).\n# TYPE campaignd_fabric_leases_expired_total counter\ncampaignd_fabric_leases_expired_total %d\n", fs.LeasesExpired)
	fmt.Fprintf(w, "# HELP campaignd_fabric_leases_stolen_total Expired chunks re-issued to another worker.\n# TYPE campaignd_fabric_leases_stolen_total counter\ncampaignd_fabric_leases_stolen_total %d\n", fs.LeasesStolen)
	fmt.Fprintf(w, "# HELP campaignd_fabric_chunks_committed_total Chunk results validated and committed, first-valid-wins.\n# TYPE campaignd_fabric_chunks_committed_total counter\ncampaignd_fabric_chunks_committed_total %d\n", fs.ChunksCommitted)
	fmt.Fprintf(w, "# HELP campaignd_fabric_commit_rejects_total Claimed results that failed validation and were re-queued.\n# TYPE campaignd_fabric_commit_rejects_total counter\ncampaignd_fabric_commit_rejects_total %d\n", fs.CommitRejects)
	fmt.Fprintf(w, "# HELP campaignd_fabric_divergent_duplicates_total Duplicate completions whose bytes differed from the committed result (determinism violations).\n# TYPE campaignd_fabric_divergent_duplicates_total counter\ncampaignd_fabric_divergent_duplicates_total %d\n", fs.DivergentDuplicates)

	// Blob store traffic (process-wide across every store instance, like
	// the kernel counters above).
	puts, gets, deletes, badBlobs, retained := fabric.StoreStats()
	fmt.Fprintf(w, "# HELP campaignd_blob_puts_total Blobs written to checkpoint stores (deduplicated puts included).\n# TYPE campaignd_blob_puts_total counter\ncampaignd_blob_puts_total %d\n", puts)
	fmt.Fprintf(w, "# HELP campaignd_blob_gets_total Blob reads from checkpoint stores.\n# TYPE campaignd_blob_gets_total counter\ncampaignd_blob_gets_total %d\n", gets)
	fmt.Fprintf(w, "# HELP campaignd_blob_deletes_total Blobs deleted from checkpoint stores.\n# TYPE campaignd_blob_deletes_total counter\ncampaignd_blob_deletes_total %d\n", deletes)
	fmt.Fprintf(w, "# HELP campaignd_blob_validation_failures_total Blob reads whose content hash did not match their key.\n# TYPE campaignd_blob_validation_failures_total counter\ncampaignd_blob_validation_failures_total %d\n", badBlobs)
	fmt.Fprintf(w, "# HELP campaignd_blob_retention_deletes_total Blobs reclaimed by retention sweeps (pinned blobs are never swept).\n# TYPE campaignd_blob_retention_deletes_total counter\ncampaignd_blob_retention_deletes_total %d\n", retained)
}
