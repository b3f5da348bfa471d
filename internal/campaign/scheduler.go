package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bist"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fpga"
	"repro/internal/payload"
	"repro/internal/seu"
)

// Config sizes the scheduler.
type Config struct {
	// Dir is the checkpoint root; every job persists its state under
	// Dir/<jobID>. Required.
	Dir string
	// Workers bounds the worker pool SEU chunks shard across.
	// <= 0 means GOMAXPROCS.
	Workers int
	// Chunks caps the number of checkpoint units an SEU sweep is decomposed
	// into — the resume granularity. <= 0 means DefaultChunks.
	Chunks int
	// Blobs is the checkpoint blob store chunk results persist into.
	// nil means a local DirStore under Dir/blobs.
	Blobs fabric.BlobStore
	// Coordinator, when set, leases SEU chunks to fabric worker nodes
	// instead of running them on the local pool. Workers must share (or
	// reach) the same blob store.
	Coordinator *fabric.Coordinator
	// Retention bounds the blob store; the zero policy never deletes.
	// Blobs referenced by a resumable job's manifest are pinned and
	// never swept regardless of policy.
	Retention fabric.RetentionPolicy
}

// DefaultChunks keeps checkpoints frequent enough that a killed daemon
// rarely loses more than a couple percent of a sweep.
const DefaultChunks = 64

// errDrained marks a job interrupted by graceful shutdown: its completed
// chunks are on disk and it goes back to the queue for the next daemon.
var errDrained = errors.New("campaign: scheduler draining")

// Scheduler runs jobs one at a time in submission order, sharding each SEU
// sweep across the worker pool. All state changes persist through the store
// before they are observable over the API, so a crash at any point resumes
// cleanly.
type Scheduler struct {
	cfg     Config
	st      *store
	broker  *broker
	Metrics *Metrics

	mu        sync.Mutex
	jobs      map[string]*Status
	order     []string // submission order of job IDs
	cancels   map[string]context.CancelFunc
	cancelReq map[string]bool
	draining  bool

	kick     chan struct{}
	drainCh  chan struct{}
	drainOne sync.Once
	runCtx   context.Context
	runStop  context.CancelFunc
	wg       sync.WaitGroup
}

// New opens (or creates) the checkpoint root, re-queues every job the
// previous daemon left unfinished, and starts the dispatcher.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("campaign: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Chunks <= 0 {
		cfg.Chunks = DefaultChunks
	}
	if cfg.Blobs == nil {
		blobs, err := fabric.NewDirStore(filepath.Join(cfg.Dir, "blobs"))
		if err != nil {
			return nil, err
		}
		cfg.Blobs = blobs
	}
	s := &Scheduler{
		cfg:       cfg,
		st:        newStore(cfg.Dir, cfg.Blobs),
		broker:    newBroker(),
		Metrics:   newMetrics(cfg.Workers),
		jobs:      make(map[string]*Status),
		cancels:   make(map[string]context.CancelFunc),
		cancelReq: make(map[string]bool),
		kick:      make(chan struct{}, 1),
		drainCh:   make(chan struct{}),
	}
	if cfg.Coordinator != nil {
		s.Metrics.SetFabricSource(cfg.Coordinator.Stats)
	}
	s.runCtx, s.runStop = context.WithCancel(context.Background())
	persisted, err := s.st.loadAll()
	if err != nil {
		return nil, err
	}
	for _, stat := range persisted {
		if stat.State == StateRunning {
			// The previous daemon died mid-job; its finished chunks are on
			// disk, so the job simply re-queues and resumes.
			stat.State = StateQueued
			stat.StartedAt = nil
			if err := s.st.saveStatus(stat); err != nil {
				return nil, err
			}
		}
		if stat.State != StateDone {
			// Resumable: its checkpoint blobs must survive retention. Pins
			// land before the first sweep can run.
			s.st.pinJob(stat.ID)
		}
		s.jobs[stat.ID] = stat
		s.order = append(s.order, stat.ID)
	}
	s.wg.Add(1)
	go s.dispatch()
	if cfg.Retention.Enabled() {
		s.wg.Add(1)
		go s.retentionLoop()
	}
	return s, nil
}

// retentionLoop periodically sweeps the blob store under the configured
// policy, always excluding pinned (live-manifest-referenced) blobs.
func (s *Scheduler) retentionLoop() {
	defer s.wg.Done()
	every := s.cfg.Retention.SweepEvery
	if every <= 0 {
		every = time.Minute
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_, _ = s.SweepRetention()
		case <-s.drainCh:
			return
		case <-s.runCtx.Done():
			return
		}
	}
}

// SweepRetention runs one retention pass now, returning how many blobs it
// deleted. Safe at any time: blobs referenced by a resumable job's
// manifest are pinned under the same lock that commits them.
func (s *Scheduler) SweepRetention() (int, error) {
	return fabric.SweepRetention(s.cfg.Blobs, s.cfg.Retention, s.st.isPinned)
}

// Submit registers a job. Submission is idempotent on the content-addressed
// ID: an already queued, running, or done job returns its current status
// untouched, while a failed or cancelled job re-queues and — because its
// chunk checkpoints were retained — resumes where it stopped.
func (s *Scheduler) Submit(spec JobSpec) (*Status, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	id := spec.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if stat, ok := s.jobs[id]; ok {
		if stat.State == StateFailed || stat.State == StateCancelled {
			stat.State = StateQueued
			stat.Error = ""
			stat.StartedAt = nil
			stat.FinishedAt = nil
			if err := s.st.saveStatus(stat); err != nil {
				return nil, err
			}
			s.broker.publish(event(stat))
			s.kickLocked()
		}
		out := *stat
		return &out, nil
	}
	stat := &Status{
		ID:          id,
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
	}
	if err := s.st.saveStatus(stat); err != nil {
		return nil, err
	}
	s.jobs[id] = stat
	s.order = append(s.order, id)
	s.broker.publish(event(stat))
	s.kickLocked()
	out := *stat
	return &out, nil
}

// Cancel stops a job. A queued job goes straight to cancelled; a running
// job is interrupted at its next chunk boundary (checkpoints already written
// survive, so resubmitting the same spec resumes rather than restarts).
func (s *Scheduler) Cancel(id string) (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stat, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown job %q", id)
	}
	switch stat.State {
	case StateQueued:
		stat.State = StateCancelled
		now := time.Now().UTC()
		stat.FinishedAt = &now
		if err := s.st.saveStatus(stat); err != nil {
			return nil, err
		}
		s.Metrics.jobFinished(StateCancelled)
		s.broker.publish(event(stat))
	case StateRunning:
		s.cancelReq[id] = true
		if cancel := s.cancels[id]; cancel != nil {
			cancel()
		}
	}
	out := *stat
	return &out, nil
}

// Get returns a copy of the job's status.
func (s *Scheduler) Get(id string) (*Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stat, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	out := *stat
	return &out, true
}

// List returns all jobs in submission order.
func (s *Scheduler) List() []*Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Status, 0, len(s.order))
	for _, id := range s.order {
		stat := *s.jobs[id]
		out = append(out, &stat)
	}
	return out
}

// JobsByState snapshots the queue for the metrics plane.
func (s *Scheduler) JobsByState() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int)
	for _, stat := range s.jobs {
		out[stat.State]++
	}
	return out
}

// Report returns the final report's exact persisted bytes. Only done jobs
// have one.
func (s *Scheduler) Report(id string) ([]byte, error) {
	stat, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown job %q", id)
	}
	if stat.State != StateDone {
		return nil, fmt.Errorf("campaign: job %q is %s, no report", id, stat.State)
	}
	return s.st.loadReport(id)
}

// Subscribe returns a channel of progress events for one job ("" = all) and
// a cancel func the caller must invoke when done.
func (s *Scheduler) Subscribe(job string) (<-chan Event, func()) {
	ch, cancel := s.broker.subscribe(job)
	return ch, cancel
}

// Stop drains the scheduler: no new jobs or chunks start, in-flight chunks
// finish and checkpoint, and the running job (if interrupted) re-queues.
// If draining outlives grace, the running work is cancelled hard — losing at
// most the in-flight chunks, never the checkpointed ones.
func (s *Scheduler) Stop(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainOne.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.runStop()
		<-done
	}
	s.runStop()
}

func (s *Scheduler) kickLocked() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// update applies fn to the job under the lock, persists, and publishes.
func (s *Scheduler) update(id string, fn func(*Status)) {
	s.mu.Lock()
	stat, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	fn(stat)
	// Persistence failure here is not fatal: the in-memory state stays
	// authoritative for this process and the next transition retries.
	_ = s.st.saveStatus(stat)
	ev := event(stat)
	s.mu.Unlock()
	s.broker.publish(ev)
}

// nextQueued returns the oldest queued job ID, or "".
func (s *Scheduler) nextQueued() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ""
	}
	for _, id := range s.order {
		if s.jobs[id].State == StateQueued {
			return id
		}
	}
	return ""
}

// dispatch runs jobs one at a time in submission order. Intra-job chunk
// parallelism uses the full worker pool, so a single active job already
// saturates it; running jobs serially keeps progress (and checkpoint
// density) concentrated instead of spread thin.
func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	for {
		id := s.nextQueued()
		if id == "" {
			select {
			case <-s.kick:
				continue
			case <-s.drainCh:
				return
			case <-s.runCtx.Done():
				return
			}
		}
		s.runJob(id)
	}
}

// runJob executes one job and applies the terminal (or re-queue) transition.
func (s *Scheduler) runJob(id string) {
	jobCtx, jobCancel := context.WithCancel(s.runCtx)
	defer jobCancel()

	s.mu.Lock()
	stat, ok := s.jobs[id]
	if !ok || stat.State != StateQueued {
		s.mu.Unlock()
		return
	}
	stat.State = StateRunning
	now := time.Now().UTC()
	stat.StartedAt = &now
	stat.Error = ""
	s.cancels[id] = jobCancel
	delete(s.cancelReq, id)
	_ = s.st.saveStatus(stat)
	spec := stat.Spec
	ev := event(stat)
	s.mu.Unlock()
	s.broker.publish(ev)
	s.Metrics.jobStarted()

	var err error
	switch spec.Kind {
	case KindSEU:
		err = s.runSEU(jobCtx, id, spec.SEU)
	case KindBIST:
		err = s.runBIST(jobCtx, id, spec.BIST)
	case KindMission:
		err = s.runMission(jobCtx, id, spec.Mission)
	default:
		err = fmt.Errorf("campaign: unknown job kind %q", spec.Kind)
	}

	s.mu.Lock()
	delete(s.cancels, id)
	cancelled := s.cancelReq[id]
	delete(s.cancelReq, id)
	s.mu.Unlock()

	var final State
	switch {
	case err == nil:
		final = StateDone
	case cancelled:
		final = StateCancelled
	case errors.Is(err, errDrained) || errors.Is(err, context.Canceled):
		// Shutdown, not failure: back to the queue with checkpoints intact.
		final = StateQueued
	default:
		final = StateFailed
	}
	s.update(id, func(st *Status) {
		st.State = final
		if final == StateQueued {
			st.StartedAt = nil
			return
		}
		fin := time.Now().UTC()
		st.FinishedAt = &fin
		if final == StateFailed {
			st.Error = err.Error()
		}
	})
	if final == StateDone {
		// The report is assembled and persisted; the job's chunk blobs are
		// no longer load-bearing, so release them to retention.
		s.st.unpinJob(id)
	}
	if final.Terminal() {
		s.Metrics.jobFinished(final)
	}
}

// runSEU executes an injection campaign as a checkpointed chunk sweep.
func (s *Scheduler) runSEU(ctx context.Context, id string, spec *core.CampaignSpec) error {
	cfg, err := spec.Resolve()
	if err != nil {
		return err
	}
	p, err := core.Build(cfg, spec.Design)
	if err != nil {
		return err
	}
	bd, err := core.Testbed(cfg, p)
	if err != nil {
		return err
	}
	opts := cfg.CampaignOptions(true)
	plan := seu.PlanChunks(cfg.Geom, opts, s.cfg.Chunks)
	have, err := s.st.loadChunks(id, plan)
	if err != nil {
		return err
	}

	results := make([]*seu.ChunkResult, 0, len(plan))
	var pending []seu.ChunkSpec
	var doneInj, doneFail int64
	for _, cs := range plan {
		if cr, ok := have[cs.Index]; ok {
			results = append(results, cr)
			doneInj += cr.Injections
			doneFail += cr.Failures
		} else {
			pending = append(pending, cs)
		}
	}
	s.update(id, func(st *Status) {
		st.ChunksTotal = len(plan)
		st.ChunksDone = len(results)
		st.Injections = doneInj
		st.Failures = doneFail
	})

	// committed folds one freshly checkpointed chunk into the run: the
	// queue layer's bookkeeping, shared by both executors.
	var resMu sync.Mutex
	committed := func(cr *seu.ChunkResult) {
		resMu.Lock()
		results = append(results, cr)
		resMu.Unlock()
		s.Metrics.checkpointed(cr.Injections, cr.Failures)
		s.update(id, func(st *Status) {
			st.ChunksDone++
			st.Injections += cr.Injections
			st.Failures += cr.Failures
		})
	}

	// Exactly two executors: the fabric's leased workers, or the in-process
	// runner and its clones, which only the local branch needs to build.
	if len(pending) > 0 {
		var runErr error
		if s.cfg.Coordinator != nil {
			runErr = s.runFabricChunks(ctx, id, *spec, pending, committed)
		} else {
			base, err := seu.NewChunkRunner(bd, opts)
			if err != nil {
				return err
			}
			runErr = seu.RunChunks(ctx, base, pending, s.cfg.Workers, s.drainCh, s.Metrics.workerBusy, func(cs seu.ChunkSpec, cr *seu.ChunkResult) error {
				if err := s.st.saveChunk(id, cs, cr); err != nil {
					return err
				}
				committed(cr)
				return nil
			})
		}
		if runErr != nil {
			return runErr
		}
	}

	resMu.Lock()
	got := len(results)
	resMu.Unlock()
	if got < len(plan) {
		// The executor stopped early on a graceful drain. Everything
		// completed is checkpointed.
		if err := ctx.Err(); err != nil {
			return err
		}
		return errDrained
	}

	rep := seu.AssembleReport(bd, results)
	b, err := reportJSON(core.NewCampaignReport(rep, cfg))
	if err != nil {
		return err
	}
	return s.st.saveReport(id, b)
}

// runFabricChunks leases pending chunks to fabric worker nodes through the
// coordinator. Workers upload results to the shared blob store; the
// coordinator hash-validates each claimed blob and calls back here exactly
// once per chunk, where the already-stored blob is committed into the
// job's manifest — the same commit point the local path uses, so reports
// are byte-identical across backends.
func (s *Scheduler) runFabricChunks(ctx context.Context, id string, spec core.CampaignSpec, pending []seu.ChunkSpec, committed func(*seu.ChunkResult)) error {
	// RunJob takes no stop channel, so graceful drain maps onto context
	// cancellation, which RunJob honors between commits. Chunks
	// already committed stay in the manifest, so the next daemon resumes.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-s.drainCh:
			cancel()
		case <-fctx.Done():
		}
	}()
	return s.cfg.Coordinator.RunJob(fctx, id, spec, pending, func(cs seu.ChunkSpec, cr *seu.ChunkResult, key string) error {
		if err := s.st.commitChunk(id, cs, key); err != nil {
			return err
		}
		committed(cr)
		return nil
	})
}

// bistReport is the persisted outcome of a BIST job.
type bistReport struct {
	Geometry string               `json:"geometry"`
	Wire     *bist.WireTestReport `json:"wire,omitempty"`
	CLB      *bist.CLBTestReport  `json:"clb,omitempty"`
	BRAM     *bist.BRAMTestReport `json:"bram,omitempty"`
	Healthy  bool                 `json:"healthy"`
	Summary  []string             `json:"summary"`
}

// runBIST runs the enabled self-tests on a freshly configured idle device.
func (s *Scheduler) runBIST(ctx context.Context, id string, spec *BISTSpec) error {
	g, err := core.ParseGeometry(spec.Geom)
	if err != nil {
		return err
	}
	f := fpga.New(g)
	if err := f.FullConfigure(fpga.NewConfigBuilder(g).FullBitstream()); err != nil {
		return err
	}
	port := fpga.NewPort(f)

	total := 0
	for _, on := range []bool{spec.Wire, spec.CLB, spec.BRAM} {
		if on {
			total++
		}
	}
	s.update(id, func(st *Status) { st.ChunksTotal = total })
	step := func() {
		s.update(id, func(st *Status) { st.ChunksDone++ })
	}

	out := bistReport{Geometry: g.String(), Healthy: true}
	if spec.Wire {
		rep, err := bist.WireTestContext(ctx, f, port)
		if err != nil {
			return err
		}
		out.Wire = rep
		out.Healthy = out.Healthy && len(rep.Faults) == 0
		out.Summary = append(out.Summary, rep.String())
		step()
	}
	if spec.CLB {
		rep, err := bist.CLBTestContext(ctx, f, port)
		if err != nil {
			return err
		}
		out.CLB = rep
		out.Healthy = out.Healthy && len(rep.Faults) == 0
		out.Summary = append(out.Summary, rep.String())
		step()
	}
	if spec.BRAM {
		rep, err := bist.BRAMTestContext(ctx, f, port)
		if err != nil {
			return err
		}
		out.BRAM = rep
		out.Healthy = out.Healthy && len(rep.Faults) == 0
		out.Summary = append(out.Summary, rep.String())
		step()
	}
	b, err := reportJSON(out)
	if err != nil {
		return err
	}
	return s.st.saveReport(id, b)
}

// missionReport is the persisted outcome of a scrub-mission job.
type missionReport struct {
	Design               string         `json:"design"`
	Geometry             string         `json:"geometry"`
	DurationSeconds      float64        `json:"duration_seconds"`
	Upsets               int            `json:"upsets"`
	UpsetsByKind         map[string]int `json:"upsets_by_kind"`
	ConfigUpsets         int            `json:"config_upsets"`
	HiddenUpsets         int            `json:"hidden_upsets"`
	Detections           int            `json:"detections"`
	Repairs              int            `json:"repairs"`
	FullReconfigs        int            `json:"full_reconfigs"`
	MeanDetectionLatency float64        `json:"mean_detection_latency_seconds"`
	Availability         float64        `json:"availability"`
	ScanCycleSeconds     float64        `json:"scan_cycle_seconds"`
}

// runMission drives the nine-FPGA payload through the orbit environment.
func (s *Scheduler) runMission(ctx context.Context, id string, spec *MissionSpec) error {
	g, err := core.ParseGeometry(spec.Geom)
	if err != nil {
		return err
	}
	dur, err := time.ParseDuration(spec.Duration)
	if err != nil {
		return err
	}
	cfg := core.Config{Geom: g, Seed: spec.Seed, Sample: 1}
	p, err := core.Build(cfg, spec.Design)
	if err != nil {
		return err
	}
	sys, err := payload.New(p, spec.Seed)
	if err != nil {
		return err
	}
	s.update(id, func(st *Status) { st.ChunksTotal = 1 })
	mopts := payload.MissionOptions{Duration: dur, Seed: spec.Seed}
	if spec.PeriodicFullReconfig != "" {
		refresh, err := time.ParseDuration(spec.PeriodicFullReconfig)
		if err != nil {
			return err
		}
		mopts.PeriodicFullReconfig = refresh
	}
	rep, err := sys.RunMissionContext(ctx, mopts)
	if err != nil {
		return err
	}
	out := missionReport{
		Design:               spec.Design,
		Geometry:             g.String(),
		DurationSeconds:      rep.Duration.Seconds(),
		Upsets:               rep.Upsets,
		UpsetsByKind:         make(map[string]int, len(rep.UpsetsByKind)),
		ConfigUpsets:         rep.ConfigUpsets,
		HiddenUpsets:         rep.HiddenUpsets,
		Detections:           rep.Detections,
		Repairs:              rep.Repairs,
		FullReconfigs:        rep.FullReconfigs,
		MeanDetectionLatency: rep.MeanDetectionLatency.Seconds(),
		Availability:         rep.Availability,
		ScanCycleSeconds:     rep.ScanCycle.Seconds(),
	}
	for k, n := range rep.UpsetsByKind {
		out.UpsetsByKind[k.String()] = n
	}
	s.update(id, func(st *Status) { st.ChunksDone = 1 })
	b, err := reportJSON(out)
	if err != nil {
		return err
	}
	return s.st.saveReport(id, b)
}

// reportJSON renders a final report exactly the way the CLI tools do
// (json.Encoder with two-space indent), so e.g. an SEU job's report.json is
// byte-identical to `seusim -json` for the same campaign.
func reportJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
