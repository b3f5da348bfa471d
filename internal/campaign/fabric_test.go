package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
)

// fabricRig is a whole distributed deployment in one process: a coordinator
// with an embedded blob server (what `campaignd -fabric=coordinator` runs),
// schedulers wired through it, and in-process worker nodes speaking the
// real HTTP protocol against an httptest listener.
type fabricRig struct {
	store *fabric.MemStore
	coord *fabric.Coordinator
	srv   *httptest.Server

	mu      sync.Mutex
	scheds  []*Scheduler
	cancels []context.CancelFunc
	wg      sync.WaitGroup
}

func newFabricRig(t *testing.T, leaseTTL time.Duration) *fabricRig {
	t.Helper()
	store := fabric.NewMemStore()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Store:      store,
		LeaseTTL:   leaseTTL,
		SweepEvery: leaseTTL / 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/fabric/", fabric.Handler(coord))
	mux.Handle("/api/v1/blobs", fabric.BlobHandler(store))
	mux.Handle("/api/v1/blobs/", fabric.BlobHandler(store))
	srv := httptest.NewServer(mux)
	rig := &fabricRig{store: store, coord: coord, srv: srv}
	t.Cleanup(func() {
		rig.mu.Lock()
		scheds := rig.scheds
		rig.mu.Unlock()
		for _, s := range scheds {
			s.Stop(time.Minute)
		}
		rig.killAllWorkers()
		rig.wg.Wait()
		rig.srv.Close()
		rig.coord.Close()
	})
	return rig
}

// newScheduler starts a scheduler on dir wired through the rig's coordinator
// and blob store: the deployment's daemon, or a restart of it on the same
// state directory.
func (rig *fabricRig) newScheduler(t *testing.T, dir string) *Scheduler {
	t.Helper()
	sched, err := New(Config{Dir: dir, Workers: 1, Blobs: rig.store, Coordinator: rig.coord})
	if err != nil {
		t.Fatal(err)
	}
	rig.mu.Lock()
	rig.scheds = append(rig.scheds, sched)
	rig.mu.Unlock()
	return sched
}

// startWorker boots one worker node; the returned cancel is its kill switch
// (a cancelled worker stops mid-lease without completing, like a SIGKILL).
func (rig *fabricRig) startWorker(name string, slots int) context.CancelFunc {
	ctx, cancel := context.WithCancel(context.Background())
	rig.mu.Lock()
	rig.cancels = append(rig.cancels, cancel)
	rig.mu.Unlock()
	rig.wg.Add(1)
	go func() {
		defer rig.wg.Done()
		fabric.RunWorker(ctx, fabric.WorkerOptions{
			Coordinator: rig.srv.URL,
			Name:        name,
			Slots:       slots,
		})
	}()
	return cancel
}

func (rig *fabricRig) killAllWorkers() {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	for _, cancel := range rig.cancels {
		cancel()
	}
}

// A 3-worker fabric must produce a report byte-identical to the
// single-node scheduler and the direct `seusim -json` oracle.
func TestFabricReportByteIdentical(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	rig := newFabricRig(t, time.Minute)
	sched := rig.newScheduler(t, t.TempDir())
	for i, name := range []string{"node-a", "node-b", "node-c"} {
		rig.startWorker(name, 1+i%2)
	}

	stat, err := sched.Submit(JobSpec{Kind: KindSEU, SEU: &spec})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, sched, stat.ID, StateDone)
	if fin.ChunksDone != fin.ChunksTotal || fin.ChunksTotal < 2 {
		t.Fatalf("chunks done %d/%d, want a complete multi-chunk sweep", fin.ChunksDone, fin.ChunksTotal)
	}
	got, err := sched.Report(stat.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fabric report differs from direct run:\nfabric: %s\ndirect: %s", got, want)
	}
	st := rig.coord.Stats()
	if st.ChunksCommitted != uint64(fin.ChunksTotal) {
		t.Fatalf("coordinator committed %d chunks, want %d", st.ChunksCommitted, fin.ChunksTotal)
	}
}

// Killing a worker mid-run (its leases never complete, expire, and are
// stolen by the survivors) must not change a byte of the final report.
func TestFabricWorkerKilledMidRun(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	// Leases short enough that the victim's chunks re-issue quickly, but
	// with ample margin over a chunk's runtime (which balloons under
	// -race) — honest completions must not routinely outlive their lease.
	rig := newFabricRig(t, 2*time.Second)
	sched := rig.newScheduler(t, t.TempDir())
	victimKill := rig.startWorker("victim", 2)
	rig.startWorker("survivor-a", 1)
	rig.startWorker("survivor-b", 1)

	job := JobSpec{Kind: KindSEU, SEU: &spec}
	events, unsub := sched.Subscribe(job.ID())
	defer unsub()
	stat, err := sched.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the victim as soon as the sweep has visibly started — whatever it
	// holds at that instant is abandoned mid-chunk.
	deadline := time.After(2 * time.Minute)
waitProgress:
	for {
		select {
		case ev := <-events:
			if ev.ChunksDone >= 1 {
				break waitProgress
			}
		case <-deadline:
			t.Fatal("no progress before kill point")
		}
	}
	victimKill()

	fin := waitState(t, sched, stat.ID, StateDone)
	got, err := sched.Report(stat.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs after killing a worker mid-run (chunks %d/%d)", fin.ChunksDone, fin.ChunksTotal)
	}
}

// readManifest returns the blob keys a job's manifest references.
func readManifest(t *testing.T, dir, id string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, id, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Chunks []struct {
			Blob string `json:"blob"`
		} `json:"chunks"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m.Chunks))
	for _, c := range m.Chunks {
		keys = append(keys, c.Blob)
	}
	return keys
}

// drainAfterChunks runs the job until at least min chunks checkpoint, then
// drain-stops the scheduler, leaving a resumable manifest behind.
func drainAfterChunks(t *testing.T, s *Scheduler, job JobSpec, min int) *Status {
	t.Helper()
	events, unsub := s.Subscribe(job.ID())
	defer unsub()
	stat, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case ev := <-events:
			if ev.ChunksDone >= min {
				s.Stop(time.Minute)
				return stat
			}
		case <-deadline:
			t.Fatal("no progress before drain point")
		}
	}
}

// A corrupted checkpoint blob must be rejected by hash validation on
// resume and recomputed — never folded into the report.
func TestFabricCorruptBlobRejectedOnResume(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	dir := t.TempDir()
	mem := fabric.NewMemStore()

	s, err := New(Config{Dir: dir, Workers: 2, Blobs: mem})
	if err != nil {
		t.Fatal(err)
	}
	stat := drainAfterChunks(t, s, JobSpec{Kind: KindSEU, SEU: &spec}, 2)

	keys := readManifest(t, dir, stat.ID)
	if len(keys) < 2 {
		t.Fatalf("only %d checkpoints persisted before drain", len(keys))
	}
	if !mem.CorruptForTest(keys[0]) {
		t.Fatalf("manifest references blob %s but the store has no bytes for it", keys[0])
	}

	s2, err := New(Config{Dir: dir, Workers: 2, Blobs: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop(time.Minute)
	if _, err := s2.Submit(JobSpec{Kind: KindSEU, SEU: &spec}); err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, stat.ID, StateDone)
	got, err := s2.Report(stat.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report differs after resuming past a corrupted checkpoint blob")
	}
}

// Retention must never delete blobs a resumable job's manifest references,
// even with the most aggressive policy, and even while sweeps race the
// resume. Unpinned garbage in the same store is still collected.
func TestFabricRetentionPinsLiveManifests(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	dir := t.TempDir()
	mem := fabric.NewMemStore()

	s, err := New(Config{Dir: dir, Workers: 2, Blobs: mem})
	if err != nil {
		t.Fatal(err)
	}
	stat := drainAfterChunks(t, s, JobSpec{Kind: KindSEU, SEU: &spec}, 2)
	keys := readManifest(t, dir, stat.ID)
	if len(keys) == 0 {
		t.Fatal("no checkpoints persisted before drain")
	}
	garbage, err := mem.Put([]byte("orphaned upload no manifest ever committed"))
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic half: a fresh store over the same dir pins the drained
	// job's manifest before any sweep can run, so a delete-everything policy
	// only reaps the garbage.
	st2 := newStore(dir, mem)
	for _, jobStat := range mustLoadAll(t, st2) {
		if jobStat.State != StateDone {
			st2.pinJob(jobStat.ID)
		}
	}
	if _, err := fabric.SweepRetention(mem, fabric.RetentionPolicy{MaxAge: time.Nanosecond}, st2.isPinned); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Get(garbage); err == nil {
		t.Fatal("unpinned garbage survived a delete-everything sweep")
	}
	for _, key := range keys {
		if _, err := mem.Get(key); err != nil {
			t.Fatalf("pinned checkpoint %s was swept: %v", key, err)
		}
	}

	// Racing half: resume under the same policy with sweeps hammering the
	// store concurrently; the report must still assemble byte-identically.
	s2, err := New(Config{Dir: dir, Workers: 2, Blobs: mem,
		Retention: fabric.RetentionPolicy{MaxAge: time.Nanosecond, SweepEvery: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop(time.Minute)
	stopSweeps := make(chan struct{})
	var sweepWG sync.WaitGroup
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		for {
			select {
			case <-stopSweeps:
				return
			default:
				s2.SweepRetention()
			}
		}
	}()
	if _, err := s2.Submit(JobSpec{Kind: KindSEU, SEU: &spec}); err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, stat.ID, StateDone)
	close(stopSweeps)
	sweepWG.Wait()
	got, err := s2.Report(stat.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report differs after retention sweeps raced the resume")
	}
}

func mustLoadAll(t *testing.T, st *store) []*Status {
	t.Helper()
	all, err := st.loadAll()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// The metrics plane exposes the fabric and blob counter blocks — with live
// coordinator numbers when one is embedded.
func TestMetricsExposeFabricCounters(t *testing.T) {
	spec := testSpec()
	rig := newFabricRig(t, time.Minute)
	sched := rig.newScheduler(t, t.TempDir())
	rig.startWorker("node-a", 2)
	stat, err := sched.Submit(JobSpec{Kind: KindSEU, SEU: &spec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sched, stat.ID, StateDone)

	var buf bytes.Buffer
	sched.Metrics.WritePrometheus(&buf, sched.JobsByState())
	text := buf.String()
	for _, name := range []string{
		"campaignd_fabric_workers",
		"campaignd_fabric_leases_active",
		"campaignd_fabric_queue_depth",
		"campaignd_fabric_leases_issued_total",
		"campaignd_fabric_leases_expired_total",
		"campaignd_fabric_leases_stolen_total",
		"campaignd_fabric_chunks_committed_total",
		"campaignd_fabric_commit_rejects_total",
		"campaignd_fabric_divergent_duplicates_total",
		"campaignd_blob_puts_total",
		"campaignd_blob_gets_total",
		"campaignd_blob_deletes_total",
		"campaignd_blob_validation_failures_total",
		"campaignd_blob_retention_deletes_total",
	} {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("metrics missing %s", name)
		}
	}
	if !strings.Contains(text, "campaignd_fabric_workers 1") {
		t.Error("campaignd_fabric_workers should report the one live worker")
	}
	var issued uint64
	if st := rig.coord.Stats(); st.LeasesIssued == 0 {
		t.Errorf("coordinator issued %d leases, want > 0", issued)
	}
}

// The load-test harness drives a live campaignd API and reports per-op
// latency; errors against a healthy server should be zero.
func TestLoadTestHarness(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop(time.Minute)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	spec := testSpec()
	body, err := json.Marshal(JobSpec{Kind: KindSEU, SEU: &spec})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fabric.LoadTest(context.Background(), fabric.LoadTestOptions{
		Server:     srv.URL,
		Clients:    8,
		Requests:   20,
		SubmitBody: body,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load test saw %d errors (rate %.3f): %+v", rep.Errors, rep.ErrorRate, rep.ByOp)
	}
	if rep.Requests != 8*20 {
		t.Fatalf("load test made %d requests, want %d", rep.Requests, 8*20)
	}
	for _, op := range []string{"submit", "list", "status", "metrics", "stream"} {
		st := rep.ByOp[op]
		if st == nil || st.Requests == 0 {
			t.Fatalf("op %s never exercised: %+v", op, rep.ByOp)
		}
	}
	if rep.P99Ms < rep.P50Ms {
		t.Fatalf("p99 %.3fms < p50 %.3fms", rep.P99Ms, rep.P50Ms)
	}
}
