package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/seu"
)

// service is a campaign-service workload: one client submits a stream of
// SEU jobs to an in-process scheduler, each only after the previous one's
// report is in hand (a closed loop), and each job is timed from Submit to
// its report bytes. With fabric set the scheduler leases chunks through a
// fabric.Coordinator over HTTP to two in-process worker nodes of one slot
// each, all at their shipped defaults (30 s lease TTL, 500 ms idle poll).
type service struct {
	r      *run
	fabric bool
	sample float64

	dir     string
	warmups int
	sched   *campaign.Scheduler
	coord   *fabric.Coordinator
	srv     *httptest.Server
	stop    context.CancelFunc
	nodes   sync.WaitGroup
}

// jobDesigns is the stream's design rotation; job i sweeps jobDesigns[i%3]
// with seed -seed + i/3.
var jobDesigns = []string{"MULT 48", "LFSR 72", "VMULT 72"}

// fabricNodes is the number of worker nodes; each runs one slot.
const fabricNodes = 2

func (w *service) spec(design string, seed int64, sample float64) campaign.JobSpec {
	return campaign.JobSpec{Kind: campaign.KindSEU, SEU: &core.CampaignSpec{
		Design: design, Geom: "small", Seed: seed, Sample: sample,
		Workers: w.r.workers, Kernel: "vector",
	}}
}

func (w *service) jobSpec(i int) campaign.JobSpec {
	return w.spec(jobDesigns[i%len(jobDesigns)], w.r.seed+int64(i/len(jobDesigns)), w.sample)
}

// storeBlobs is how many blobs the checkpoint store holds before the first
// set-up, as a daemon's store does after some 60 jobs. On the reference box
// the first ~50 jobs against an empty store run slower than the rest: over
// four alternating runs each, a run's median job took 128–150 ms with an
// empty store and 101–122 ms with this one, so an empty store would time a
// state no long-running daemon is in.
const storeBlobs = 4096

// setUp (re)starts the scheduler (and fabric) over the workload's state
// directory, as a daemon restart would, and runs one warm-up job that is not
// in the stream. The first call creates the directory and fills its store.
func (w *service) setUp() error {
	w.stopStack()
	if w.dir == "" {
		dir, err := os.MkdirTemp(w.r.tmp, "service-")
		if err != nil {
			return err
		}
		w.dir = dir
		if err := fillStore(filepath.Join(dir, "blobs"), storeBlobs); err != nil {
			return err
		}
	}
	dirStore, err := fabric.NewDirStore(filepath.Join(w.dir, "blobs"))
	if err != nil {
		return err
	}
	blobs := &timedStore{BlobStore: dirStore, tr: w.r.tr}
	cfg := campaign.Config{Dir: w.dir, Workers: w.r.workers, Blobs: blobs}
	if w.fabric {
		if w.coord, err = fabric.NewCoordinator(fabric.CoordConfig{Store: blobs}); err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/api/v1/fabric/", fabric.Handler(w.coord))
		mux.Handle("/api/v1/blobs", fabric.BlobHandler(blobs))
		mux.Handle("/api/v1/blobs/", fabric.BlobHandler(blobs))
		w.srv = httptest.NewServer(timedHandler(w.r.tr, mux))
		cfg.Coordinator = w.coord
	}
	if w.sched, err = campaign.New(cfg); err != nil {
		return err
	}
	if w.fabric {
		if err := w.startNodes(); err != nil {
			return err
		}
	}
	// Jobs are content-addressed, so each warm-up needs a spec of its own.
	w.warmups++
	_, _, err = w.job(w.spec("LFSR 72", w.r.seed+warmSeedOffset+int64(w.warmups), w.sample/3), nil, nil)
	return err
}

// warmSeedOffset keeps warm-up job seeds clear of the stream's.
const warmSeedOffset = 1 << 20

// fillStore puts n distinct blobs into a DirStore at dir.
func fillStore(dir string, n int) error {
	st, err := fabric.NewDirStore(dir)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := st.Put([]byte(fmt.Sprintf(`{"filler":%d,"pad":"%0480d"}`, i, 0))); err != nil {
			return err
		}
	}
	return nil
}

// startNodes starts the worker nodes and waits until both have registered.
func (w *service) startNodes() error {
	ctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	for n := 0; n < fabricNodes; n++ {
		w.nodes.Add(1)
		go func() {
			defer w.nodes.Done()
			// RunWorker fails only if it never registers, which the wait
			// below reports.
			_ = fabric.RunWorker(ctx, fabric.WorkerOptions{
				Coordinator: w.srv.URL, Name: fmt.Sprintf("node%d", n), Slots: 1,
			})
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for w.coord.Stats().Workers < fabricNodes {
		if time.Now().After(deadline) {
			return errors.New("fabric workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (w *service) tearDown() {
	w.stopStack()
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// stopStack stops the scheduler, the worker nodes and the coordinator.
func (w *service) stopStack() {
	if w.sched != nil {
		w.sched.Stop(time.Minute)
		w.sched = nil
	}
	if w.stop != nil {
		w.stop()
		w.nodes.Wait()
		w.stop = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.coord != nil {
		w.coord.Close()
		w.coord = nil
	}
}

func (w *service) op(i int, root *openSpan, rec *opRecord) error {
	var before fabric.CoordStats
	if w.coord != nil {
		before = w.coord.Stats()
	}
	b, st, err := w.job(w.jobSpec(i), root, rec)
	if err != nil {
		return err
	}
	rec.items = append(rec.items, item{key: fmt.Sprintf("job%02d", i), report: b})
	rec.note("campaign.queue_wait_s", st.StartedAt.Sub(st.SubmittedAt).Seconds())
	rec.note("campaign.run_s", st.FinishedAt.Sub(*st.StartedAt).Seconds())
	rec.note("campaign.chunks_per_job", float64(st.ChunksTotal))
	if w.coord != nil {
		after := w.coord.Stats()
		rec.note("fabric.leases_issued", float64(after.LeasesIssued-before.LeasesIssued))
		rec.note("fabric.leases_expired", float64(after.LeasesExpired-before.LeasesExpired))
		rec.note("fabric.leases_stolen", float64(after.LeasesStolen-before.LeasesStolen))
		rec.note("fabric.chunks_committed", float64(after.ChunksCommitted-before.ChunksCommitted))
		rec.note("fabric.commit_rejects", float64(after.CommitRejects-before.CommitRejects))
		rec.note("fabric.divergent_duplicates", float64(after.DivergentDuplicates-before.DivergentDuplicates))
	}
	return nil
}

// job submits spec and returns its report bytes once done. Completion comes
// from the job's event stream, not from polling.
func (w *service) job(spec campaign.JobSpec, root *openSpan, rec *opRecord) ([]byte, *campaign.Status, error) {
	id := spec.ID()
	events, cancel := w.sched.Subscribe(id)
	defer cancel()
	sp := root.child("campaign.submit")
	_, err := w.sched.Submit(spec)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	wait := root.child("campaign.wait")
	w.r.tr.setCurrent(wait)
	st, err := w.await(id, events)
	w.r.tr.setCurrent(nil)
	wait.end()
	if err != nil {
		return nil, nil, err
	}
	if st.State != campaign.StateDone {
		rec.note("campaign.jobs_failed", 1)
		return nil, nil, fmt.Errorf("job %s (%s seed %d) %s: %s", id, spec.SEU.Design, spec.SEU.Seed, st.State, st.Error)
	}
	sp = root.child("campaign.report")
	b, err := w.sched.Report(id)
	sp.end()
	return b, st, err
}

// jobTimeout bounds one job, so a wedged service fails the run instead of
// hanging it.
const jobTimeout = 60 * time.Second

func (w *service) await(id string, events <-chan campaign.Event) (*campaign.Status, error) {
	deadline := time.After(jobTimeout)
	for {
		select {
		case ev := <-events:
			if !ev.Final {
				continue
			}
		case <-time.After(time.Second):
			// The broker drops events a slow subscriber has no room for;
			// this finds a job whose final event was dropped.
		case <-deadline:
			return nil, fmt.Errorf("job %s not done after %v", id, jobTimeout)
		}
		if st, ok := w.sched.Get(id); ok && st.State.Terminal() {
			return st, nil
		}
	}
}

// oracleJobs is how many of the stream's jobs are re-run on the direct path.
const oracleJobs = 6

// verify re-runs the first jobs of the stream through seusim -json's direct
// path; the service promises byte-identical reports.
func (w *service) verify(recs []*opRecord) {
	for i, rec := range recs[:min(oracleJobs, len(recs))] {
		if rec.err == nil {
			rec.err = w.direct(i, rec.items[0])
		}
	}
}

func (w *service) direct(i int, it item) error {
	spec := w.jobSpec(i).SEU
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
	rep, err := seu.RunContext(w.r.ctx, bd, cfg.CampaignOptions(true))
	if err != nil {
		return err
	}
	b, err := reportJSON(core.NewCampaignReport(rep, cfg))
	if err != nil {
		return err
	}
	if err := sameResult(item{key: it.key, report: b}, it); err != nil {
		return fmt.Errorf("service vs direct sweep: %w", err)
	}
	return nil
}

// probe times placement of the job's design, which the scheduler does
// inside the job where the benchmark cannot span it.
func (w *service) probe(i int, root *openSpan, _ []item) error {
	spec := w.jobSpec(i).SEU
	cfg, err := spec.Resolve()
	if err != nil {
		return err
	}
	sp := root.child("place.build_place")
	_, err = core.Build(cfg, spec.Design)
	sp.end()
	return err
}

// timedStore is the checkpoint blob store with its calls timed.
type timedStore struct {
	fabric.BlobStore
	tr *tracer
}

func (s *timedStore) Put(b []byte) (string, error) {
	sp := s.tr.current().child("fabric.blob_put")
	key, err := s.BlobStore.Put(b)
	if sp != nil {
		sp.s.Bytes = int64(len(b))
	}
	sp.end()
	return key, err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	sp := s.tr.current().child("fabric.blob_get")
	b, err := s.BlobStore.Get(key)
	if sp != nil {
		sp.s.Bytes = int64(len(b))
	}
	sp.end()
	return b, err
}

// timedHandler times the coordinator's HTTP requests by route.
func timedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "fabric.http_other"
		switch p := r.URL.Path; {
		case strings.HasSuffix(p, "/fabric/lease"):
			name = "fabric.http_lease"
		case strings.HasSuffix(p, "/fabric/complete"):
			name = "fabric.http_complete"
		case strings.HasPrefix(p, "/api/v1/blobs"):
			name = "fabric.http_blob"
		}
		sp := tr.current().child(name)
		if sp == nil {
			h.ServeHTTP(w, r)
			return
		}
		sw := &leaseSniffer{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		sp.s.Empty = sw.empty
		sp.end()
	})
}

// leaseSniffer notes a lease reply that carried no lease.
type leaseSniffer struct {
	http.ResponseWriter
	empty bool
}

func (s *leaseSniffer) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(`"lease":null`)) {
		s.empty = true
	}
	return s.ResponseWriter.Write(b)
}
