package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/seu"
)

// The worker agent. cmd/campaignworker is a thin main around RunWorker; the
// logic lives here so the fault-injection tests can run real workers
// in-process against an httptest coordinator.
//
// A worker is stateless: it rebuilds a board from the campaign spec carried
// in each lease (caching one chunk runner per job per slot, since every
// chunk of a job shares a spec), uploads the serialized result to the blob
// store, and reports the key. If its lease expired meanwhile the
// coordinator answers "stale" and the work is simply dropped — results are
// deterministic, so whoever stole the lease produced the same bytes.

// WorkerOptions configures a worker node.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Blob is the blob store base URL ("" = the coordinator, which embeds
	// the blob server).
	Blob string
	// Name labels the worker in coordinator logs/metrics.
	Name string
	// Slots is the number of chunks run concurrently (<= 0 = GOMAXPROCS).
	Slots int
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// RunWorker registers against the coordinator and processes leases until
// ctx is cancelled. It retries registration until the coordinator is
// reachable, and re-registers whenever the coordinator forgets it.
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	if opt.Coordinator == "" {
		return fmt.Errorf("fabric: WorkerOptions.Coordinator is required")
	}
	if opt.Blob == "" {
		opt.Blob = opt.Coordinator
	}
	if opt.Slots <= 0 {
		opt.Slots = runtime.GOMAXPROCS(0)
	}
	if opt.Client == nil {
		opt.Client = &http.Client{Timeout: 30 * time.Second}
	}
	w := &workerAgent{opt: opt, blobs: NewHTTPStore(opt.Blob)}
	if err := w.registerUntil(ctx); err != nil {
		return err
	}

	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(hbCtx)
	}()
	for i := 0; i < opt.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(ctx)
		}()
	}
	wg.Wait()
	return nil
}

// errorBackoff is how long a worker waits before retrying a coordinator
// request that failed. It also paces lease requests a coordinator answers
// empty at once (one that does not long poll), so an idle worker never
// spins.
const errorBackoff = 250 * time.Millisecond

type workerAgent struct {
	opt   WorkerOptions
	blobs *HTTPStore

	mu  sync.Mutex
	id  string
	hb  time.Duration
	ttl time.Duration
}

func (w *workerAgent) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// post sends a JSON request to the coordinator; cancelling ctx aborts it,
// parked lease included. A 404 means the registration lapsed —
// ErrUnknownWorker for callers to re-register on.
func (w *workerAgent) post(ctx context.Context, path string, req, reply any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	url := strings.TrimRight(w.opt.Coordinator, "/") + path
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.opt.Client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := readBounded(resp.Body, maxWireBytes)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		return ErrUnknownWorker
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("fabric: %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	if reply == nil {
		return nil
	}
	return json.Unmarshal(body, reply)
}

func (w *workerAgent) register(ctx context.Context) error {
	var reply RegisterReply
	err := w.post(ctx, "/api/v1/fabric/register", RegisterRequest{
		Name: w.opt.Name, CPUs: runtime.GOMAXPROCS(0),
	}, &reply)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.id = reply.Worker
	w.hb = time.Duration(reply.HeartbeatMillis) * time.Millisecond
	w.ttl = time.Duration(reply.LeaseTTLMillis) * time.Millisecond
	w.mu.Unlock()
	return nil
}

// registerUntil retries registration until it lands or ctx ends.
func (w *workerAgent) registerUntil(ctx context.Context) error {
	for {
		err := w.register(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-time.After(errorBackoff):
		case <-ctx.Done():
			return fmt.Errorf("fabric: registering with %s: %w (last: %v)", w.opt.Coordinator, ctx.Err(), err)
		}
	}
}

func (w *workerAgent) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		hb := w.hb
		w.mu.Unlock()
		if hb <= 0 {
			hb = time.Second
		}
		select {
		case <-time.After(hb):
		case <-ctx.Done():
			return
		}
		err := w.post(ctx, "/api/v1/fabric/heartbeat", HeartbeatRequest{Worker: w.workerID()}, nil)
		if err == ErrUnknownWorker {
			_ = w.register(ctx) // dropped (e.g. a delayed heartbeat); rejoin
		}
	}
}

// slotLoop leases and runs chunks on one execution slot. The coordinator
// parks an idle lease request until work arrives, so an empty reply is
// re-sent at once; a failed one waits errorBackoff.
func (w *workerAgent) slotLoop(ctx context.Context) {
	var cache *slotRunner
	for ctx.Err() == nil {
		var reply LeaseReply
		start := time.Now()
		err := w.post(ctx, "/api/v1/fabric/lease", LeaseRequest{Worker: w.workerID()}, &reply)
		if err == ErrUnknownWorker {
			if err := w.registerUntil(ctx); err != nil {
				return
			}
			continue
		}
		if err == nil && reply.Lease != nil {
			w.runLease(ctx, reply.Lease, &cache)
			continue
		}
		pause := errorBackoff
		if err == nil {
			pause -= time.Since(start) // a long poll that waited re-leases at once
		}
		if pause > 0 {
			select {
			case <-time.After(pause):
			case <-ctx.Done():
				return
			}
		}
	}
}

// slotRunner caches one job's chunk runner on a slot — every chunk of a
// job shares a campaign spec, so consecutive leases of the same job skip
// the board rebuild.
type slotRunner struct {
	job    string
	runner *seu.ChunkRunner
}

func (w *workerAgent) runLease(ctx context.Context, lease *Lease, cache **slotRunner) {
	runner, err := w.runnerFor(lease, cache)
	var blobKey string
	if err == nil {
		var cr *seu.ChunkResult
		cr, err = runner.Run(ctx, lease.Task.Chunk)
		if err == nil {
			blobKey, err = PutChunk(w.blobs, lease.Task.Chunk, cr)
		}
	}
	if ctx.Err() != nil {
		return // killed mid-chunk; the lease will expire and be stolen
	}
	req := CompleteRequest{Worker: w.workerID(), Lease: lease.ID, Blob: blobKey}
	if err != nil {
		req.Error = err.Error()
		*cache = nil // the cached board may be mid-corruption; rebuild
	}
	// Retry transient completion failures within the lease window; past it
	// the lease is stolen anyway and the result is redundant.
	deadline := time.Now().Add(w.leaseTTL())
	for {
		var reply CompleteReply
		cerr := w.post(ctx, "/api/v1/fabric/complete", req, &reply)
		if cerr == nil || cerr == ErrUnknownWorker || time.Now().After(deadline) || ctx.Err() != nil {
			return
		}
		select {
		case <-time.After(errorBackoff):
		case <-ctx.Done():
			return
		}
	}
}

func (w *workerAgent) leaseTTL() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ttl <= 0 {
		return 30 * time.Second
	}
	return w.ttl
}

func (w *workerAgent) runnerFor(lease *Lease, cache **slotRunner) (*seu.ChunkRunner, error) {
	if c := *cache; c != nil && c.job == lease.Task.Job {
		return c.runner, nil
	}
	cfg, err := lease.Task.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	p, err := core.Build(cfg, lease.Task.Spec.Design)
	if err != nil {
		return nil, err
	}
	bd, err := core.Testbed(cfg, p)
	if err != nil {
		return nil, err
	}
	runner, err := seu.NewChunkRunner(bd, cfg.CampaignOptions(true))
	if err != nil {
		return nil, err
	}
	*cache = &slotRunner{job: lease.Task.Job, runner: runner}
	return runner, nil
}
