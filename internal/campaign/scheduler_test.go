package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seu"
)

// testSpec is the campaign the scheduler tests revolve around: small enough
// to finish in seconds, large enough to split into many chunks.
func testSpec() core.CampaignSpec {
	return core.CampaignSpec{Design: "LFSR 18", Geom: "tiny", Seed: 1, Sample: 0.2, Workers: 1}
}

// refReportBytes runs the campaign directly (no scheduler, no checkpoints)
// and renders it exactly as `seusim -json` would — the byte-identity oracle.
func refReportBytes(t *testing.T, spec core.CampaignSpec) []byte {
	t.Helper()
	cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(cfg, spec.Design)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := core.Testbed(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := seu.Run(bd, cfg.CampaignOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := reportJSON(core.NewCampaignReport(rep, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestScheduler(t *testing.T, dir string, workers int) *Scheduler {
	t.Helper()
	s, err := New(Config{Dir: dir, Workers: workers, Chunks: 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitState polls until the job reaches want (fatal on timeout or on
// reaching a different terminal state).
func waitState(t *testing.T, s *Scheduler, id string, want State) *Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		stat, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if stat.State == want {
			return stat
		}
		if stat.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, stat.State, stat.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %s", id, want)
	return nil
}

// chunkFileCount counts the checkpoints a job's manifest references.
func chunkFileCount(t *testing.T, dir, id string) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, id, "manifest.json"))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Chunks []json.RawMessage `json:"chunks"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return len(m.Chunks)
}

func TestSEUJobMatchesDirectRun(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	dir := t.TempDir()
	s := newTestScheduler(t, dir, 4)
	defer s.Stop(time.Minute)

	stat, err := s.Submit(JobSpec{Kind: KindSEU, SEU: &spec})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, stat.ID, StateDone)
	if fin.ChunksDone != fin.ChunksTotal || fin.ChunksTotal < 2 {
		t.Fatalf("chunks done %d/%d, want a complete multi-chunk sweep", fin.ChunksDone, fin.ChunksTotal)
	}
	got, err := s.Report(stat.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scheduled report differs from direct run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// Idempotent resubmission of a done job returns it untouched.
	again, err := s.Submit(JobSpec{Kind: KindSEU, SEU: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != stat.ID || again.State != StateDone {
		t.Fatalf("resubmit returned %s/%s, want %s/done", again.ID, again.State, stat.ID)
	}
}

// executor is one of the scheduler's two SEU execution backends. open
// returns a function that starts a scheduler on a state directory;
// schedulers it starts share one blob store (and, on the fabric, one
// coordinator and its worker nodes), as restarts of one deployment would.
type executor struct {
	name string
	open func(t *testing.T) func(dir string) *Scheduler
}

// executors returns the in-process pool at each of poolSizes and a fabric
// of two worker nodes.
func executors(poolSizes ...int) []executor {
	var out []executor
	for _, workers := range poolSizes {
		out = append(out, executor{fmt.Sprintf("local-%d", workers), func(t *testing.T) func(string) *Scheduler {
			return func(dir string) *Scheduler { return newTestScheduler(t, dir, workers) }
		}})
	}
	return append(out, executor{"fabric-2", func(t *testing.T) func(string) *Scheduler {
		rig := newFabricRig(t, time.Minute)
		rig.startWorker("node-a", 1)
		rig.startWorker("node-b", 1)
		return func(dir string) *Scheduler { return rig.newScheduler(t, dir) }
	}})
}

// TestCheckpointResumeByteIdentical kills the scheduler at a randomized
// chunk boundary mid-sweep, restarts it on the same state directory, and
// requires every committed chunk to be on disk and the resumed job's final
// report to be byte-identical to an uninterrupted run — on the local pool
// at sizes 1 and 4 and on the fabric.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	rng := rand.New(rand.NewSource(7))
	for _, ex := range executors(1, 4) {
		killAfter := 1 + rng.Intn(8)
		t.Run(ex.name, func(t *testing.T) {
			start := ex.open(t)
			dir := t.TempDir()
			s := start(dir)

			job := JobSpec{Kind: KindSEU, SEU: &spec}
			events, unsub := s.Subscribe(job.ID())
			stat, err := s.Submit(job)
			if err != nil {
				t.Fatal(err)
			}
			// Stop once a randomized number of chunks has checkpointed.
			deadline := time.After(2 * time.Minute)
		waitKill:
			for {
				select {
				case ev := <-events:
					if ev.ChunksDone >= killAfter || ev.Final {
						break waitKill
					}
				case <-deadline:
					t.Fatalf("no progress before kill point %d", killAfter)
				}
			}
			unsub()
			s.Stop(time.Minute) // drain: in-flight chunks checkpoint, job re-queues

			persisted := chunkFileCount(t, dir, stat.ID)
			mid, ok := s.Get(stat.ID)
			if !ok {
				t.Fatal("job lost across Stop")
			}
			if mid.State != StateQueued && mid.State != StateDone {
				t.Fatalf("state after drain is %s, want queued or done", mid.State)
			}
			t.Logf("drained %s with %d chunks checkpointed", mid.State, persisted)
			if persisted < mid.ChunksDone {
				t.Fatalf("%d chunks committed but only %d checkpointed", mid.ChunksDone, persisted)
			}
			if mid.State == StateQueued && persisted == 0 {
				t.Fatal("drained mid-sweep but no chunk checkpoints on disk")
			}

			// "Restarted daemon": a fresh scheduler on the same directory
			// picks the queued job up by itself and resumes from the
			// checkpoints.
			s2 := start(dir)
			defer s2.Stop(time.Minute)
			fin := waitState(t, s2, stat.ID, StateDone)
			got, err := s2.Report(stat.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed report differs from uninterrupted run (killed after %d of %d chunks)",
					persisted, fin.ChunksTotal)
			}
		})
	}
}

// TestCancelResubmitResumes cancels a running job, then resubmits the same
// spec: the content-addressed ID must map it onto its retained checkpoints
// and the final report must match an uninterrupted run byte for byte — on
// the local pool and on the fabric.
func TestCancelResubmitResumes(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	for _, ex := range executors(2) {
		t.Run(ex.name, func(t *testing.T) {
			dir := t.TempDir()
			s := ex.open(t)(dir)
			defer s.Stop(time.Minute)

			job := JobSpec{Kind: KindSEU, SEU: &spec}
			events, unsub := s.Subscribe(job.ID())
			stat, err := s.Submit(job)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.After(2 * time.Minute)
		waitProgress:
			for {
				select {
				case ev := <-events:
					if ev.ChunksDone >= 1 || ev.Final {
						break waitProgress
					}
				case <-deadline:
					t.Fatal("no chunk completed before cancel")
				}
			}
			unsub()
			if _, err := s.Cancel(stat.ID); err != nil {
				t.Fatal(err)
			}
			// The job either lands cancelled or — if the cancel raced the
			// last chunk — done; both keep their checkpoints.
			var mid *Status
			for waited := 0; ; waited++ {
				st, ok := s.Get(stat.ID)
				if !ok {
					t.Fatal("job lost after cancel")
				}
				if st.State.Terminal() {
					mid = st
					break
				}
				if waited > 20000 {
					t.Fatal("timeout waiting for cancel to land")
				}
				time.Sleep(5 * time.Millisecond)
			}
			persisted := chunkFileCount(t, dir, stat.ID)
			t.Logf("cancel landed %s with %d chunks checkpointed", mid.State, persisted)
			if persisted < mid.ChunksDone {
				t.Fatalf("%d chunks committed but only %d checkpointed", mid.ChunksDone, persisted)
			}
			if mid.State == StateCancelled && persisted == 0 {
				t.Fatal("cancelled job retained no checkpoints")
			}

			resub, err := s.Submit(job)
			if err != nil {
				t.Fatal(err)
			}
			if resub.ID != stat.ID {
				t.Fatalf("resubmitted job got new ID %s, want %s", resub.ID, stat.ID)
			}
			waitState(t, s, stat.ID, StateDone)
			got, err := s.Report(stat.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("cancel+resubmit report differs from uninterrupted run")
			}
		})
	}
}

func TestBISTAndMissionJobs(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir, 2)
	defer s.Stop(time.Minute)

	bistJob := JobSpec{Kind: KindBIST, BIST: &BISTSpec{Geom: "tiny", Wire: true, CLB: true, BRAM: true}}
	bs, err := s.Submit(bistJob)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, bs.ID, StateDone)
	if fin.ChunksDone != 3 {
		t.Fatalf("bist chunks done = %d, want 3", fin.ChunksDone)
	}
	b, err := s.Report(bs.ID)
	if err != nil {
		t.Fatal(err)
	}
	var brep struct {
		Healthy bool     `json:"healthy"`
		Summary []string `json:"summary"`
	}
	if err := json.Unmarshal(b, &brep); err != nil {
		t.Fatal(err)
	}
	if !brep.Healthy || len(brep.Summary) != 3 {
		t.Fatalf("bist report: healthy=%v summary=%d, want healthy with 3 entries", brep.Healthy, len(brep.Summary))
	}

	missionJob := JobSpec{Kind: KindMission, Mission: &MissionSpec{
		Design: "LFSR 18", Geom: "tiny", Seed: 3, Duration: "30m",
	}}
	ms, err := s.Submit(missionJob)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, ms.ID, StateDone)
	mb, err := s.Report(ms.ID)
	if err != nil {
		t.Fatal(err)
	}
	var mrep missionReport
	if err := json.Unmarshal(mb, &mrep); err != nil {
		t.Fatal(err)
	}
	if mrep.Availability <= 0 || mrep.Availability > 1 {
		t.Fatalf("mission availability %v out of range", mrep.Availability)
	}
}

func TestSpecValidation(t *testing.T) {
	seuSpec := testSpec()
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no payload", JobSpec{Kind: KindSEU}},
		{"two payloads", JobSpec{Kind: KindSEU, SEU: &seuSpec, BIST: &BISTSpec{Wire: true}}},
		{"kind mismatch", JobSpec{Kind: KindBIST, SEU: &seuSpec}},
		{"unknown kind", JobSpec{Kind: "fuzz", SEU: &seuSpec}},
		{"empty bist", JobSpec{Kind: KindBIST, BIST: &BISTSpec{}}},
		{"bad geometry", JobSpec{Kind: KindBIST, BIST: &BISTSpec{Geom: "huge", Wire: true}}},
		{"bad duration", JobSpec{Kind: KindMission, Mission: &MissionSpec{Design: "LFSR 18", Duration: "soon"}}},
		{"no design", JobSpec{Kind: KindSEU, SEU: &core.CampaignSpec{Sample: 1}}},
		{"retired kernel auto", JobSpec{Kind: KindSEU, SEU: &core.CampaignSpec{Design: "LFSR 18", Sample: 1, Kernel: "auto"}}},
		{"retired kernel event", JobSpec{Kind: KindSEU, SEU: &core.CampaignSpec{Design: "LFSR 18", Sample: 1, Kernel: "event"}}},
		{"retired kernel vector-sweep", JobSpec{Kind: KindSEU, SEU: &core.CampaignSpec{Design: "LFSR 18", Sample: 1, Kernel: "vector-sweep"}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
	ok := JobSpec{Kind: KindSEU, SEU: &seuSpec}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if id := ok.ID(); len(id) != 13 || id[0] != 'j' {
		t.Fatalf("unexpected job ID form %q", id)
	}
	if ok.ID() != (JobSpec{Kind: KindSEU, SEU: &seuSpec}).ID() {
		t.Fatal("identical specs produced different IDs")
	}
}
