package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/seu"
)

// The lease protocol. The coordinator owns a queue of (job, chunk) tasks.
// A worker leases a task, runs it, Puts the serialized result into the blob
// store, and reports the blob key. Leases carry deadlines: a worker that
// stalls (or dies, or whose heartbeats stop) loses its lease, the chunk
// re-queues, and another worker steals it. Nothing a worker says is
// trusted: the coordinator fetches the claimed blob itself (the store
// hash-validates it), checks the payload against the leased chunk spec, and
// only then commits. Commits are idempotent first-valid-wins — chunk
// results are deterministic functions of (campaign spec, chunk spec), so a
// straggler finishing after its lease was stolen produces the same bytes,
// the same blob key, and a no-op duplicate commit. A duplicate whose blob
// key differs from the committed one would be a determinism violation and
// is counted and rejected rather than absorbed.

// Task is one leased unit of work: a chunk of a job's sweep, plus the full
// campaign spec the worker needs to rebuild the board it runs on.
type Task struct {
	Job   string            `json:"job"`
	Spec  core.CampaignSpec `json:"spec"`
	Chunk seu.ChunkSpec     `json:"chunk"`
}

// Lease is a task issued to one worker until a deadline.
type Lease struct {
	ID       string    `json:"id"`
	Task     Task      `json:"task"`
	Deadline time.Time `json:"deadline"`
}

// ChunkPayload is the blob-store encoding of one completed chunk: the spec
// it answers paired with its result. The same encoding is a local daemon's
// chunk checkpoint and a remote worker's result upload — which is why any
// node can resume any job from the shared store.
type ChunkPayload struct {
	Spec   seu.ChunkSpec    `json:"spec"`
	Result *seu.ChunkResult `json:"result"`
}

// CommitFunc persists one validated chunk result (already stored under
// blobKey). The coordinator guarantees at most one call per chunk.
type CommitFunc func(chunk seu.ChunkSpec, cr *seu.ChunkResult, blobKey string) error

// CoordConfig sizes a coordinator.
type CoordConfig struct {
	// Store is where workers upload results and the coordinator validates
	// them. Required.
	Store BlobStore
	// LeaseTTL is how long a worker holds a chunk before it is re-issued.
	// <= 0 means 30s.
	LeaseTTL time.Duration
	// WorkerTTL drops a worker (and expires its leases) after this long
	// without a heartbeat. <= 0 means 3×LeaseTTL.
	WorkerTTL time.Duration
	// MaxAttempts fails the job after a chunk accumulates this many
	// worker-reported errors plus validation rejections (a deterministic
	// failure — crashing worker, corrupt store entry, a build that keeps
	// producing mismatched payloads — would otherwise re-issue forever).
	// <= 0 means 3.
	MaxAttempts int
	// SweepEvery is the lease/worker expiry scan cadence. <= 0 means
	// LeaseTTL/4.
	SweepEvery time.Duration
}

func (c CoordConfig) withDefaults() CoordConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 3 * c.LeaseTTL
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.LeaseTTL / 4
	}
	return c
}

// CoordStats snapshots the coordinator's counters for the metrics plane.
type CoordStats struct {
	Workers             int
	LeasesActive        int
	LeasesParked        int // lease requests waiting for work
	QueueDepth          int
	LeasesIssued        uint64
	LeasesExpired       uint64
	LeasesStolen        uint64
	ChunksCommitted     uint64
	CommitRejects       uint64
	DivergentDuplicates uint64
}

type taskKey struct {
	job   string
	index int
}

type workerState struct {
	id       string
	name     string
	cpus     int
	lastSeen time.Time
	leases   map[string]bool
}

type jobState struct {
	id        string
	spec      core.CampaignSpec
	chunks    map[int]seu.ChunkSpec
	committed map[int]string // chunk index → committed blob key
	failures  map[int]int
	reissued  map[int]bool // chunk re-queued after a lease expiry → next issue is a steal
	commit    CommitFunc
	remaining int
	err       error
	closeOnce sync.Once
	finished  chan struct{}
}

func (j *jobState) finish(err error) {
	j.closeOnce.Do(func() {
		j.err = err
		close(j.finished)
	})
}

type leaseState struct {
	id       string
	worker   string
	key      taskKey
	deadline time.Time
}

// Coordinator runs the lease protocol for the jobs the scheduler hands it.
type Coordinator struct {
	cfg CoordConfig

	mu      sync.Mutex
	workers map[string]*workerState
	jobs    map[string]*jobState
	queue   []taskKey
	leases  map[string]*leaseState
	nextID  uint64
	// wake is closed (and replaced) whenever the queue grows or a worker
	// is dropped, releasing every parked Lease to re-check.
	wake   chan struct{}
	parked int

	issued    uint64
	expired   uint64
	stolen    uint64
	committed uint64
	rejects   uint64
	divergent uint64
	stopOnce  sync.Once
	closed    context.Context // done once Close is called
	markClose context.CancelFunc
	wg        sync.WaitGroup
}

// NewCoordinator starts a coordinator (and its lease-expiry sweeper).
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fabric: CoordConfig.Store is required")
	}
	c := &Coordinator{
		cfg:     cfg.withDefaults(),
		workers: make(map[string]*workerState),
		jobs:    make(map[string]*jobState),
		leases:  make(map[string]*leaseState),
		wake:    make(chan struct{}),
	}
	c.closed, c.markClose = context.WithCancel(context.Background())
	c.wg.Add(1)
	go c.sweeper()
	return c, nil
}

// Close stops the expiry sweeper and releases every parked Lease; later
// leases fail with ErrClosed. Jobs still waiting in RunJob keep waiting on
// their contexts. A daemon closes its coordinator when its drain starts, so
// parked lease requests do not hold up the HTTP shutdown.
func (c *Coordinator) Close() {
	c.stopOnce.Do(c.markClose)
	c.wg.Wait()
}

// LeaseTTL reports the configured lease duration (workers size their
// completion retries off it).
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// Register adds (or refreshes) a worker and returns its identity plus the
// cadence contract: how long leases last and how often to heartbeat.
func (c *Coordinator) Register(name string, cpus int) RegisterReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := fmt.Sprintf("w%06d", c.nextID)
	c.workers[id] = &workerState{
		id: id, name: name, cpus: cpus,
		lastSeen: time.Now(), leases: make(map[string]bool),
	}
	return RegisterReply{
		Worker:          id,
		LeaseTTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis: (c.cfg.WorkerTTL / 3).Milliseconds(),
	}
}

// ErrUnknownWorker tells a worker its registration lapsed; it re-registers.
var ErrUnknownWorker = fmt.Errorf("fabric: unknown worker (re-register)")

// Heartbeat refreshes a worker's liveness.
func (c *Coordinator) Heartbeat(worker string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[worker]
	if !ok {
		return ErrUnknownWorker
	}
	ws.lastSeen = time.Now()
	return nil
}

// ErrClosed answers a lease request to a closed coordinator.
var ErrClosed = fmt.Errorf("fabric: coordinator closed")

// Lease issues the next pending chunk to worker. When the queue is empty it
// parks until work is queued, ctx ends, the coordinator closes or wait
// elapses, and returns a nil lease if none arrived; wait <= 0 returns at
// once.
func (c *Coordinator) Lease(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		if c.closed.Err() != nil {
			return nil, ErrClosed
		}
		if ctx.Err() != nil { // the requester left; issue it nothing
			return nil, nil
		}
		c.mu.Lock()
		l, err := c.leaseLocked(worker)
		if l != nil || err != nil || wait <= 0 {
			c.mu.Unlock()
			return l, err
		}
		wake := c.wake
		c.parked++
		c.mu.Unlock()
		timedOut := false
		select {
		case <-wake:
		case <-ctx.Done():
		case <-c.closed.Done():
		case <-timeout:
			timedOut = true
		}
		c.mu.Lock()
		c.parked--
		c.mu.Unlock()
		if timedOut {
			return nil, nil
		}
	}
}

// leaseLocked dequeues the next live chunk for worker, or returns nil.
func (c *Coordinator) leaseLocked(worker string) (*Lease, error) {
	now := time.Now()
	ws, ok := c.workers[worker]
	if !ok {
		return nil, ErrUnknownWorker
	}
	ws.lastSeen = now
	for len(c.queue) > 0 {
		k := c.queue[0]
		c.queue = c.queue[1:]
		j, ok := c.jobs[k.job]
		if !ok {
			continue // job finished or was withdrawn; stale entry
		}
		if _, done := j.committed[k.index]; done {
			continue
		}
		c.nextID++
		ls := &leaseState{
			id:       fmt.Sprintf("l%06d", c.nextID),
			worker:   worker,
			key:      k,
			deadline: now.Add(c.cfg.LeaseTTL),
		}
		c.leases[ls.id] = ls
		ws.leases[ls.id] = true
		c.issued++
		if j.reissued[k.index] {
			c.stolen++
			delete(j.reissued, k.index)
		}
		return &Lease{
			ID:       ls.id,
			Task:     Task{Job: k.job, Spec: j.spec, Chunk: j.chunks[k.index]},
			Deadline: ls.deadline,
		}, nil
	}
	return nil, nil
}

// Complete processes a worker's completion report for a lease: a blob key
// on success, or an error string for a chunk the worker could not run.
func (c *Coordinator) Complete(worker, leaseID, blobKey, workerErr string) (CompleteReply, error) {
	c.mu.Lock()
	if ws, ok := c.workers[worker]; ok {
		ws.lastSeen = time.Now()
	}
	ls, ok := c.leases[leaseID]
	if !ok || ls.worker != worker {
		// Expired, stolen, or never ours: the canonical result will come (or
		// already came) from the current leaseholder.
		c.mu.Unlock()
		return CompleteReply{Stale: true}, nil
	}
	c.releaseLeaseLocked(ls)
	j, ok := c.jobs[ls.key.job]
	if !ok {
		c.mu.Unlock()
		return CompleteReply{Stale: true}, nil
	}
	chunk := j.chunks[ls.key.index]
	if committedKey, done := j.committed[ls.key.index]; done {
		reply := CompleteReply{Accepted: true, Duplicate: true}
		if workerErr == "" && blobKey != committedKey {
			// A duplicate completion must be byte-identical to the committed
			// result; a different key means non-deterministic execution.
			c.divergent++
			reply = CompleteReply{Rejected: true,
				Reason: fmt.Sprintf("duplicate result %s diverges from committed %s", blobKey, committedKey)}
		}
		c.mu.Unlock()
		return reply, nil
	}
	if workerErr != "" {
		j.failures[ls.key.index]++
		if j.failures[ls.key.index] >= c.cfg.MaxAttempts {
			err := fmt.Errorf("fabric: chunk %d failed %d times, last on %s: %s",
				ls.key.index, j.failures[ls.key.index], worker, workerErr)
			c.mu.Unlock()
			j.finish(err)
			return CompleteReply{Accepted: true}, nil
		}
		c.enqueueLocked(ls.key)
		c.mu.Unlock()
		return CompleteReply{Accepted: true}, nil
	}
	// Chunk is now in limbo (not leased, not queued, not committed) while we
	// validate outside the lock; a validation failure re-queues it.
	c.mu.Unlock()

	cr, verr := c.validate(chunk, blobKey)
	c.mu.Lock()
	if cur, ok := c.jobs[ls.key.job]; !ok || cur != j {
		// The job finished or was withdrawn (and possibly resubmitted as a
		// fresh jobState) while we validated; this completion is stale.
		c.mu.Unlock()
		return CompleteReply{Stale: true}, nil
	}
	if verr != nil {
		// Rejections spend the same failure budget as worker errors: a
		// deterministic validation failure must fail the job, not re-issue
		// the chunk forever.
		c.rejects++
		j.failures[ls.key.index]++
		if j.failures[ls.key.index] >= c.cfg.MaxAttempts {
			err := fmt.Errorf("fabric: chunk %d failed %d times, last rejected from %s: %w",
				ls.key.index, j.failures[ls.key.index], worker, verr)
			c.mu.Unlock()
			j.finish(err)
			return CompleteReply{Rejected: true, Reason: verr.Error()}, nil
		}
		c.enqueueLocked(ls.key)
		c.mu.Unlock()
		return CompleteReply{Rejected: true, Reason: verr.Error()}, nil
	}
	if committedKey, done := j.committed[ls.key.index]; done {
		// Lost a validate race; first valid commit already won.
		reply := CompleteReply{Accepted: true, Duplicate: true}
		if blobKey != committedKey {
			c.divergent++
			reply = CompleteReply{Rejected: true,
				Reason: fmt.Sprintf("duplicate result %s diverges from committed %s", blobKey, committedKey)}
		}
		c.mu.Unlock()
		return reply, nil
	}
	j.committed[ls.key.index] = blobKey
	commit := j.commit
	c.committed++
	c.mu.Unlock()

	if err := commit(chunk, cr, blobKey); err != nil {
		j.finish(fmt.Errorf("fabric: committing chunk %d: %w", chunk.Index, err))
		return CompleteReply{Accepted: true}, nil
	}
	// remaining counts down only after the commit callback returns, so the
	// goroutine landing the final chunk cannot finish(nil) while another
	// chunk's commit (manifest write) is still in flight — RunJob's caller
	// must observe every committed result.
	c.mu.Lock()
	j.remaining--
	last := j.remaining == 0
	c.mu.Unlock()
	if last {
		j.finish(nil)
	}
	return CompleteReply{Accepted: true}, nil
}

// validate fetches the claimed blob (hash-checked by the store), decodes
// it, and verifies it answers exactly the leased chunk.
func (c *Coordinator) validate(chunk seu.ChunkSpec, blobKey string) (*seu.ChunkResult, error) {
	if !ValidKey(blobKey) {
		return nil, fmt.Errorf("malformed blob key %q", blobKey)
	}
	b, err := c.cfg.Store.Get(blobKey)
	if err != nil {
		return nil, fmt.Errorf("fetching result blob: %w", err)
	}
	var cp ChunkPayload
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("decoding result blob %s: %w", blobKey, err)
	}
	if cp.Result == nil {
		return nil, fmt.Errorf("result blob %s has no result", blobKey)
	}
	if cp.Spec != chunk || cp.Result.Index != chunk.Index {
		return nil, fmt.Errorf("result blob %s answers chunk %+v, leased %+v", blobKey, cp.Spec, chunk)
	}
	return cp.Result, nil
}

// RunJob enqueues a job's pending chunks and blocks until every chunk has
// committed (via commit, at most once per chunk), the job fails, or ctx is
// cancelled. On cancellation the job is withdrawn: queued chunks are
// dropped and in-flight completions turn into stale no-ops — already
// committed chunks are persisted and a later RunJob of the remainder
// resumes them.
func (c *Coordinator) RunJob(ctx context.Context, id string, spec core.CampaignSpec, chunks []seu.ChunkSpec, commit CommitFunc) error {
	if len(chunks) == 0 {
		return nil
	}
	j := &jobState{
		id:        id,
		spec:      spec,
		chunks:    make(map[int]seu.ChunkSpec, len(chunks)),
		committed: make(map[int]string),
		failures:  make(map[int]int),
		reissued:  make(map[int]bool),
		commit:    commit,
		remaining: len(chunks),
		finished:  make(chan struct{}),
	}
	c.mu.Lock()
	if _, dup := c.jobs[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("fabric: job %s already on the fabric", id)
	}
	c.jobs[id] = j
	for _, cs := range chunks {
		j.chunks[cs.Index] = cs
		c.queue = append(c.queue, taskKey{job: id, index: cs.Index})
	}
	c.wakeLocked()
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.jobs, id) // stale queue entries and leases skip/expire lazily
		c.mu.Unlock()
	}()
	select {
	case <-j.finished:
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CoordStats{
		Workers:             len(c.workers),
		LeasesActive:        len(c.leases),
		LeasesParked:        c.parked,
		QueueDepth:          len(c.queue),
		LeasesIssued:        c.issued,
		LeasesExpired:       c.expired,
		LeasesStolen:        c.stolen,
		ChunksCommitted:     c.committed,
		CommitRejects:       c.rejects,
		DivergentDuplicates: c.divergent,
	}
}

// releaseLeaseLocked detaches a lease from its worker and the live set.
func (c *Coordinator) releaseLeaseLocked(ls *leaseState) {
	delete(c.leases, ls.id)
	if ws, ok := c.workers[ls.worker]; ok {
		delete(ws.leases, ls.id)
	}
}

// expireLeaseLocked re-queues an expired lease's chunk for stealing.
func (c *Coordinator) expireLeaseLocked(ls *leaseState) {
	c.releaseLeaseLocked(ls)
	c.expired++
	j, ok := c.jobs[ls.key.job]
	if !ok {
		return
	}
	if _, done := j.committed[ls.key.index]; done {
		return
	}
	j.reissued[ls.key.index] = true
	c.enqueueLocked(ls.key)
}

// enqueueLocked queues a chunk and wakes the parked leases.
func (c *Coordinator) enqueueLocked(k taskKey) {
	c.queue = append(c.queue, k)
	c.wakeLocked()
}

// wakeLocked releases every parked Lease to re-check the queue.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// sweeper expires overdue leases and silent workers.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-c.closed.Done():
			return
		}
		now := time.Now()
		c.mu.Lock()
		for _, ls := range c.leases {
			if now.After(ls.deadline) {
				c.expireLeaseLocked(ls)
			}
		}
		for id, ws := range c.workers {
			if now.Sub(ws.lastSeen) > c.cfg.WorkerTTL {
				for lid := range ws.leases {
					if ls, ok := c.leases[lid]; ok {
						c.expireLeaseLocked(ls)
					}
				}
				delete(c.workers, id)
				c.wakeLocked() // a parked lease of the dropped worker must learn it
			}
		}
		c.mu.Unlock()
	}
}
