package fabric

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seu"
)

// The coordinator tests drive the lease protocol with fabricated chunk
// results — no boards, no simulation — so lease expiry, stealing,
// idempotent commit, and validation rejects are each exercised
// deterministically.

func testCoord(t *testing.T, cfg CoordConfig) (*Coordinator, BlobStore) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, cfg.Store
}

func testChunks(n int) []seu.ChunkSpec {
	out := make([]seu.ChunkSpec, n)
	for i := range out {
		out[i] = seu.ChunkSpec{Index: i, Lo: int64(i) * 100, Hi: int64(i+1) * 100}
	}
	return out
}

// fakeResult fabricates a deterministic result for a chunk.
func fakeResult(cs seu.ChunkSpec) *seu.ChunkResult {
	return &seu.ChunkResult{
		Index:            cs.Index,
		Injections:       cs.Hi - cs.Lo,
		Failures:         int64(cs.Index % 3),
		InjectionsByKind: seu.KindCounts{},
		FailuresByKind:   seu.KindCounts{},
	}
}

// putResult uploads a chunk payload the way a worker would.
func putResult(t *testing.T, s BlobStore, cs seu.ChunkSpec, cr *seu.ChunkResult) string {
	t.Helper()
	b, err := json.Marshal(ChunkPayload{Spec: cs, Result: cr})
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.Put(b)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// startJob launches RunJob in the background with a commit recorder.
type jobRun struct {
	mu      sync.Mutex
	commits map[int]string // chunk index → blob key
	done    chan error
}

func startJob(c *Coordinator, id string, chunks []seu.ChunkSpec) *jobRun {
	jr := &jobRun{commits: make(map[int]string), done: make(chan error, 1)}
	go func() {
		jr.done <- c.RunJob(context.Background(), id, core.CampaignSpec{Design: "LFSR 18", Geom: "tiny", Seed: 1}, chunks,
			func(cs seu.ChunkSpec, cr *seu.ChunkResult, key string) error {
				jr.mu.Lock()
				jr.commits[cs.Index] = key
				jr.mu.Unlock()
				return nil
			})
	}()
	return jr
}

// waitQueue blocks until RunJob's background enqueue reaches depth n.
func waitQueue(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for c.Stats().QueueDepth < n {
		select {
		case <-deadline:
			t.Fatalf("queue never reached depth %d", n)
		case <-time.After(time.Millisecond):
		}
	}
}

func (jr *jobRun) wait(t *testing.T) {
	t.Helper()
	select {
	case err := <-jr.done:
		if err != nil {
			t.Fatalf("RunJob: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJob did not finish")
	}
}

func TestLeaseRunCommitLifecycle(t *testing.T) {
	c, store := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	chunks := testChunks(4)
	jr := startJob(c, "j1", chunks)
	waitQueue(t, c, len(chunks))

	reg := c.Register("node-a", 4)
	if reg.Worker == "" || reg.LeaseTTLMillis != time.Minute.Milliseconds() {
		t.Fatalf("bad register reply %+v", reg)
	}
	seen := make(map[int]bool)
	for i := 0; i < len(chunks); i++ {
		lease, err := c.Lease(context.Background(), reg.Worker, 0)
		if err != nil || lease == nil {
			t.Fatalf("lease %d: (%v, %v)", i, lease, err)
		}
		if lease.Task.Job != "j1" || seen[lease.Task.Chunk.Index] {
			t.Fatalf("bad or repeated task %+v", lease.Task)
		}
		seen[lease.Task.Chunk.Index] = true
		key := putResult(t, store, lease.Task.Chunk, fakeResult(lease.Task.Chunk))
		reply, err := c.Complete(reg.Worker, lease.ID, key, "")
		if err != nil || !reply.Accepted || reply.Duplicate {
			t.Fatalf("complete: (%+v, %v)", reply, err)
		}
	}
	jr.wait(t)
	if len(jr.commits) != len(chunks) {
		t.Fatalf("committed %d chunks, want %d", len(jr.commits), len(chunks))
	}
	if lease, err := c.Lease(context.Background(), reg.Worker, 0); err != nil || lease != nil {
		t.Fatalf("queue should be empty, got (%v, %v)", lease, err)
	}
	st := c.Stats()
	if st.ChunksCommitted != uint64(len(chunks)) || st.LeasesIssued != uint64(len(chunks)) || st.LeasesStolen != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnknownWorkerMustReregister(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{})
	if err := c.Heartbeat("w999999"); err != ErrUnknownWorker {
		t.Fatalf("heartbeat for stranger = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Lease(context.Background(), "w999999", 0); err != ErrUnknownWorker {
		t.Fatalf("lease for stranger = %v, want ErrUnknownWorker", err)
	}
}

// A worker that leases a chunk and goes silent loses it: the sweeper
// expires the lease, the chunk re-queues, and the next lease counts as
// stolen. The straggler's eventual completion is answered Stale and its
// result discarded — commit ran exactly once, with the thief's key.
func TestLeaseExpiryStealsChunk(t *testing.T) {
	c, store := testCoord(t, CoordConfig{
		LeaseTTL:   30 * time.Millisecond,
		WorkerTTL:  10 * time.Minute, // isolate lease expiry from worker expiry
		SweepEvery: 5 * time.Millisecond,
	})
	chunks := testChunks(1)
	jr := startJob(c, "j1", chunks)
	waitQueue(t, c, len(chunks))

	slow := c.Register("slow", 1)
	thief := c.Register("thief", 1)
	lease, err := c.Lease(context.Background(), slow.Worker, 0)
	if err != nil || lease == nil {
		t.Fatalf("lease: (%v, %v)", lease, err)
	}

	// The slow worker stalls past its deadline; the thief polls until the
	// chunk comes back around.
	var stolen *Lease
	deadline := time.After(5 * time.Second)
	for stolen == nil {
		l, err := c.Lease(context.Background(), thief.Worker, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			stolen = l
			break
		}
		select {
		case <-deadline:
			t.Fatal("expired chunk never re-issued")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if stolen.Task.Chunk != lease.Task.Chunk {
		t.Fatalf("thief got %+v, want %+v", stolen.Task.Chunk, lease.Task.Chunk)
	}

	key := putResult(t, store, stolen.Task.Chunk, fakeResult(stolen.Task.Chunk))
	reply, err := c.Complete(thief.Worker, stolen.ID, key, "")
	if err != nil || !reply.Accepted {
		t.Fatalf("thief complete: (%+v, %v)", reply, err)
	}
	jr.wait(t)

	// The straggler finally reports the same deterministic bytes.
	lateReply, err := c.Complete(slow.Worker, lease.ID, key, "")
	if err != nil || !lateReply.Stale {
		t.Fatalf("straggler complete = (%+v, %v), want stale", lateReply, err)
	}
	if len(jr.commits) != 1 || jr.commits[0] != key {
		t.Fatalf("commits = %+v, want exactly {0: %s}", jr.commits, key)
	}
	st := c.Stats()
	if st.LeasesExpired < 1 || st.LeasesStolen < 1 {
		t.Fatalf("stats %+v, want ≥1 expired and ≥1 stolen", st)
	}
}

// A worker whose heartbeats stop is dropped wholesale: its leases expire,
// its chunks re-queue, and its next call is told to re-register.
func TestSilentWorkerDropped(t *testing.T) {
	c, store := testCoord(t, CoordConfig{
		LeaseTTL:   10 * time.Minute, // isolate worker expiry from lease expiry
		WorkerTTL:  30 * time.Millisecond,
		SweepEvery: 5 * time.Millisecond,
	})
	chunks := testChunks(1)
	jr := startJob(c, "j1", chunks)
	waitQueue(t, c, len(chunks))

	dead := c.Register("dead", 1)
	if _, err := c.Lease(context.Background(), dead.Worker, 0); err != nil {
		t.Fatal(err)
	}

	// The live worker heartbeats while waiting for the dead one's chunk.
	live := c.Register("live", 1)
	var stolen *Lease
	deadline := time.After(5 * time.Second)
	for stolen == nil {
		if err := c.Heartbeat(live.Worker); err != nil {
			t.Fatal(err)
		}
		l, err := c.Lease(context.Background(), live.Worker, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			stolen = l
			break
		}
		select {
		case <-deadline:
			t.Fatal("dead worker's chunk never re-issued")
		case <-time.After(2 * time.Millisecond):
		}
	}
	key := putResult(t, store, stolen.Task.Chunk, fakeResult(stolen.Task.Chunk))
	if reply, err := c.Complete(live.Worker, stolen.ID, key, ""); err != nil || !reply.Accepted {
		t.Fatalf("complete: (%+v, %v)", reply, err)
	}
	jr.wait(t)
	if err := c.Heartbeat(dead.Worker); err != ErrUnknownWorker {
		t.Fatalf("dead worker heartbeat = %v, want ErrUnknownWorker", err)
	}
}

// The coordinator never trusts a worker's claim: a blob that fails hash
// validation, or answers a different chunk than leased, is rejected and the
// chunk re-issued. MaxAttempts is raised above the reject count here —
// rejections spend the failure budget, and this test wants the chunk to
// survive all of them and still complete.
func TestCompleteRejectsInvalidResults(t *testing.T) {
	mem := NewMemStore()
	c, _ := testCoord(t, CoordConfig{Store: mem, LeaseTTL: time.Minute, MaxAttempts: 10})
	chunks := testChunks(1)
	jr := startJob(c, "j1", chunks)
	waitQueue(t, c, len(chunks))
	reg := c.Register("node", 1)

	cases := []struct {
		name string
		key  func(lease *Lease) string
	}{
		{"malformed key", func(*Lease) string { return "not-a-key" }},
		{"missing blob", func(*Lease) string { return HashKey([]byte("never stored")) }},
		{"wrong chunk", func(lease *Lease) string {
			wrong := seu.ChunkSpec{Index: 99, Lo: 0, Hi: 1}
			return putResult(t, mem, wrong, fakeResult(wrong))
		}},
		{"corrupt blob", func(lease *Lease) string {
			key := putResult(t, mem, lease.Task.Chunk, fakeResult(lease.Task.Chunk))
			if !mem.CorruptForTest(key) {
				t.Fatal("no blob to corrupt")
			}
			return key
		}},
	}
	for _, tc := range cases {
		lease, err := c.Lease(context.Background(), reg.Worker, 0)
		if err != nil || lease == nil {
			t.Fatalf("%s: lease = (%v, %v)", tc.name, lease, err)
		}
		reply, err := c.Complete(reg.Worker, lease.ID, tc.key(lease), "")
		if err != nil || !reply.Rejected {
			t.Fatalf("%s: complete = (%+v, %v), want rejected", tc.name, reply, err)
		}
	}
	if got := c.Stats().CommitRejects; got != uint64(len(cases)) {
		t.Fatalf("CommitRejects = %d, want %d", got, len(cases))
	}

	// After every rejection the chunk is still completable. Note the honest
	// re-Put repairs the entry the corrupt-blob case poisoned — same bytes,
	// same key, verify-then-overwrite — with no manual store surgery.
	lease, err := c.Lease(context.Background(), reg.Worker, 0)
	if err != nil || lease == nil {
		t.Fatalf("final lease = (%v, %v)", lease, err)
	}
	key := putResult(t, mem, lease.Task.Chunk, fakeResult(lease.Task.Chunk))
	if reply, err := c.Complete(reg.Worker, lease.ID, key, ""); err != nil || !reply.Accepted {
		t.Fatalf("honest complete: (%+v, %v)", reply, err)
	}
	jr.wait(t)
}

// A chunk whose results keep failing validation — a worker build that
// consistently produces mismatched payloads, say — fails the job once the
// rejections exhaust MaxAttempts, instead of re-issuing forever.
func TestRepeatedValidationRejectsFailJob(t *testing.T) {
	c, store := testCoord(t, CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 2})
	jr := startJob(c, "j1", testChunks(1))
	waitQueue(t, c, 1)
	reg := c.Register("node", 1)
	wrong := seu.ChunkSpec{Index: 99, Lo: 0, Hi: 1}
	for i := 0; i < 2; i++ {
		lease, err := c.Lease(context.Background(), reg.Worker, 0)
		if err != nil || lease == nil {
			t.Fatalf("lease %d: (%v, %v)", i, lease, err)
		}
		key := putResult(t, store, wrong, fakeResult(wrong))
		if reply, err := c.Complete(reg.Worker, lease.ID, key, ""); err != nil || !reply.Rejected {
			t.Fatalf("reject %d: (%+v, %v)", i, reply, err)
		}
	}
	select {
	case err := <-jr.done:
		if err == nil || !strings.Contains(err.Error(), "rejected") {
			t.Fatalf("RunJob error = %v, want a validation-reject failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job did not fail after MaxAttempts validation rejects")
	}
}

// A chunk that keeps failing on workers fails the job after MaxAttempts —
// a deterministic crash must not re-issue forever.
func TestRepeatedWorkerErrorsFailJob(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute, MaxAttempts: 2})
	jr := startJob(c, "j1", testChunks(1))
	waitQueue(t, c, 1)
	reg := c.Register("node", 1)
	for i := 0; i < 2; i++ {
		lease, err := c.Lease(context.Background(), reg.Worker, 0)
		if err != nil || lease == nil {
			t.Fatalf("lease %d: (%v, %v)", i, lease, err)
		}
		if reply, err := c.Complete(reg.Worker, lease.ID, "", "board exploded"); err != nil || !reply.Accepted {
			t.Fatalf("error report %d: (%+v, %v)", i, reply, err)
		}
	}
	select {
	case err := <-jr.done:
		if err == nil || !strings.Contains(err.Error(), "board exploded") {
			t.Fatalf("RunJob error = %v, want the worker failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job did not fail after MaxAttempts")
	}
}

// Duplicate completions commit at most once. Identical bytes (same blob
// key) are absorbed as no-ops; divergent bytes are a determinism violation
// and rejected. The duplicate window is raced here by constructing the
// coordinator state directly — two leases can't coexist via the public
// path, but a commit can land between a validate and its re-check.
func TestDuplicateCommitIdempotent(t *testing.T) {
	c, store := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	chunks := testChunks(1)
	jr := startJob(c, "j1", chunks)
	waitQueue(t, c, len(chunks))
	reg := c.Register("node", 1)

	lease, err := c.Lease(context.Background(), reg.Worker, 0)
	if err != nil || lease == nil {
		t.Fatalf("lease: (%v, %v)", lease, err)
	}
	key := putResult(t, store, lease.Task.Chunk, fakeResult(lease.Task.Chunk))
	if reply, err := c.Complete(reg.Worker, lease.ID, key, ""); err != nil || !reply.Accepted {
		t.Fatalf("first complete: (%+v, %v)", reply, err)
	}
	jr.wait(t)
	if len(jr.commits) != 1 {
		t.Fatalf("commits = %d, want 1", len(jr.commits))
	}

	// Forge the straggler states directly against a live job copy.
	j := &jobState{
		id: "j2", chunks: map[int]seu.ChunkSpec{0: chunks[0]},
		committed: map[int]string{0: key}, failures: map[int]int{},
		reissued: map[int]bool{}, remaining: 0, finished: make(chan struct{}),
		commit: func(seu.ChunkSpec, *seu.ChunkResult, string) error {
			t.Error("duplicate triggered a second commit")
			return nil
		},
	}
	c.mu.Lock()
	c.jobs["j2"] = j
	c.leases["ldup"] = &leaseState{id: "ldup", worker: reg.Worker, key: taskKey{job: "j2", index: 0}, deadline: time.Now().Add(time.Minute)}
	c.leases["ldiv"] = &leaseState{id: "ldiv", worker: reg.Worker, key: taskKey{job: "j2", index: 0}, deadline: time.Now().Add(time.Minute)}
	c.workers[reg.Worker].leases["ldup"] = true
	c.workers[reg.Worker].leases["ldiv"] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.jobs, "j2")
		c.mu.Unlock()
	}()

	// Identical duplicate: absorbed.
	reply, err := c.Complete(reg.Worker, "ldup", key, "")
	if err != nil || !reply.Accepted || !reply.Duplicate {
		t.Fatalf("identical duplicate = (%+v, %v), want accepted duplicate", reply, err)
	}
	// Divergent duplicate: different bytes for the same chunk.
	divergent, err := store.Put([]byte(`{"spec":{"index":0},"result":{"index":0,"injections":12345}}`))
	if err != nil {
		t.Fatal(err)
	}
	reply, err = c.Complete(reg.Worker, "ldiv", divergent, "")
	if err != nil || !reply.Rejected {
		t.Fatalf("divergent duplicate = (%+v, %v), want rejected", reply, err)
	}
	if got := c.Stats().DivergentDuplicates; got != 1 {
		t.Fatalf("DivergentDuplicates = %d, want 1", got)
	}
}

// Cancelling RunJob withdraws the job: queued chunks evaporate and a
// re-run of the remaining chunks picks up where the commits stopped.
func TestRunJobCancellationWithdraws(t *testing.T) {
	c, store := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	chunks := testChunks(3)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	committed := make(map[int]string)
	done := make(chan error, 1)
	go func() {
		done <- c.RunJob(ctx, "j1", core.CampaignSpec{Design: "LFSR 18", Geom: "tiny", Seed: 1}, chunks,
			func(cs seu.ChunkSpec, cr *seu.ChunkResult, key string) error {
				mu.Lock()
				committed[cs.Index] = key
				mu.Unlock()
				return nil
			})
	}()
	waitQueue(t, c, len(chunks))
	reg := c.Register("node", 1)
	lease, err := c.Lease(context.Background(), reg.Worker, 0)
	if err != nil || lease == nil {
		t.Fatalf("lease: (%v, %v)", lease, err)
	}
	key := putResult(t, store, lease.Task.Chunk, fakeResult(lease.Task.Chunk))
	if reply, err := c.Complete(reg.Worker, lease.ID, key, ""); err != nil || !reply.Accepted {
		t.Fatalf("complete: (%+v, %v)", reply, err)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("RunJob = %v, want context.Canceled", err)
	}
	if len(committed) != 1 {
		t.Fatalf("committed %d chunks before cancel, want 1", len(committed))
	}

	// Remaining chunks re-run under a fresh RunJob (the scheduler resumes
	// with only the pending chunks).
	var rest []seu.ChunkSpec
	for _, cs := range chunks {
		if _, ok := committed[cs.Index]; !ok {
			rest = append(rest, cs)
		}
	}
	// The withdrawn job left stale queue entries behind; leases for them are
	// skipped lazily, so poll until the resumed job's chunks come through.
	jr := startJob(c, "j1", rest)
	for range rest {
		var lease *Lease
		deadline := time.After(5 * time.Second)
		for lease == nil {
			l, err := c.Lease(context.Background(), reg.Worker, 0)
			if err != nil {
				t.Fatal(err)
			}
			if l != nil {
				lease = l
				break
			}
			select {
			case <-deadline:
				t.Fatal("resumed chunk never issued")
			case <-time.After(time.Millisecond):
			}
		}
		key := putResult(t, store, lease.Task.Chunk, fakeResult(lease.Task.Chunk))
		if reply, err := c.Complete(reg.Worker, lease.ID, key, ""); err != nil || !reply.Accepted {
			t.Fatalf("resume complete: (%+v, %v)", reply, err)
		}
	}
	jr.wait(t)
	if len(jr.commits) != len(rest) {
		t.Fatalf("resume committed %d, want %d", len(jr.commits), len(rest))
	}
}
