package fabric

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The long poll lease contract: a parked Lease answers as soon as work is
// queued and otherwise returns empty on wait, ctx cancel or Close.

// parkWait is the wait a parked lease is given when the test expects it to
// be woken; no wake-up should come anywhere near it.
const parkWait = 30 * time.Second

// wokenWithin bounds how long a woken lease may take to answer.
const wokenWithin = 2 * time.Second

type leaseResult struct {
	lease *Lease
	err   error
}

// parkLease starts Lease in the background and returns once it is parked
// (the coordinator's parked count has grown by one).
func parkLease(t *testing.T, c *Coordinator, ctx context.Context, worker string, wait time.Duration) <-chan leaseResult {
	t.Helper()
	before := c.Stats().LeasesParked
	ch := make(chan leaseResult, 1)
	go func() {
		l, err := c.Lease(ctx, worker, wait)
		ch <- leaseResult{l, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().LeasesParked <= before {
		if time.Now().After(deadline) {
			t.Fatal("lease never parked")
		}
		time.Sleep(time.Millisecond)
	}
	return ch
}

func awaitLease(t *testing.T, ch <-chan leaseResult, within time.Duration) leaseResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(within):
		t.Fatalf("parked lease did not return within %v", within)
		return leaseResult{}
	}
}

// wantChunk requires the parked lease to answer with a chunk promptly.
func wantChunk(t *testing.T, ch <-chan leaseResult) *Lease {
	t.Helper()
	r := awaitLease(t, ch, wokenWithin)
	if r.err != nil || r.lease == nil {
		t.Fatalf("woken lease = (%v, %v), want a chunk", r.lease, r.err)
	}
	return r.lease
}

func TestParkedLeaseWokenByRunJob(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	w := c.Register("parked", 1).Worker
	ch := parkLease(t, c, context.Background(), w, parkWait)
	startJob(c, "j1", testChunks(1))
	if l := wantChunk(t, ch); l.Task.Job != "j1" {
		t.Fatalf("leased %+v, want job j1", l.Task)
	}
}

func TestParkedLeaseWokenByExpiry(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: 300 * time.Millisecond, WorkerTTL: time.Minute, SweepEvery: 5 * time.Millisecond})
	startJob(c, "j1", testChunks(1))
	waitQueue(t, c, 1)
	slow := c.Register("slow", 1).Worker
	if l, err := c.Lease(context.Background(), slow, 0); err != nil || l == nil {
		t.Fatalf("first lease: (%v, %v)", l, err)
	}
	thief := c.Register("thief", 1).Worker
	ch := parkLease(t, c, context.Background(), thief, parkWait)
	wantChunk(t, ch)
	if st := c.Stats(); st.LeasesStolen != 1 {
		t.Fatalf("stolen = %d, want 1", st.LeasesStolen)
	}
}

func TestParkedLeaseWokenByWorkerError(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	startJob(c, "j1", testChunks(1))
	waitQueue(t, c, 1)
	a := c.Register("a", 1).Worker
	l, err := c.Lease(context.Background(), a, 0)
	if err != nil || l == nil {
		t.Fatalf("first lease: (%v, %v)", l, err)
	}
	ch := parkLease(t, c, context.Background(), c.Register("b", 1).Worker, parkWait)
	if _, err := c.Complete(a, l.ID, "", "board exploded"); err != nil {
		t.Fatal(err)
	}
	wantChunk(t, ch)
}

func TestParkedLeaseWokenByValidationReject(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	startJob(c, "j1", testChunks(1))
	waitQueue(t, c, 1)
	a := c.Register("a", 1).Worker
	l, err := c.Lease(context.Background(), a, 0)
	if err != nil || l == nil {
		t.Fatalf("first lease: (%v, %v)", l, err)
	}
	ch := parkLease(t, c, context.Background(), c.Register("b", 1).Worker, parkWait)
	reply, err := c.Complete(a, l.ID, "not-a-key", "")
	if err != nil || !reply.Rejected {
		t.Fatalf("complete = (%+v, %v), want rejected", reply, err)
	}
	wantChunk(t, ch)
}

func TestParkedLeaseReturnsEmpty(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	w := c.Register("idle", 1).Worker

	start := time.Now()
	if l, err := c.Lease(context.Background(), w, 20*time.Millisecond); l != nil || err != nil {
		t.Fatalf("lease on empty queue = (%v, %v), want (nil, nil)", l, err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("lease returned after %v, before its wait", el)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ch := parkLease(t, c, ctx, w, parkWait)
	cancel()
	if r := awaitLease(t, ch, wokenWithin); r.lease != nil || r.err != nil {
		t.Fatalf("cancelled lease = (%v, %v), want (nil, nil)", r.lease, r.err)
	}

	ch = parkLease(t, c, context.Background(), w, parkWait)
	c.Close()
	if r := awaitLease(t, ch, wokenWithin); r.lease != nil || !errors.Is(r.err, ErrClosed) {
		t.Fatalf("lease at Close = (%v, %v), want (nil, ErrClosed)", r.lease, r.err)
	}
	if st := c.Stats(); st.LeasesParked != 0 {
		t.Fatalf("%d leases still parked", st.LeasesParked)
	}
}

func TestParkedWorkerDroppedGetsUnknown(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute, WorkerTTL: 300 * time.Millisecond, SweepEvery: 5 * time.Millisecond})
	ch := parkLease(t, c, context.Background(), c.Register("silent", 1).Worker, parkWait)
	if r := awaitLease(t, ch, wokenWithin); r.lease != nil || !errors.Is(r.err, ErrUnknownWorker) {
		t.Fatalf("dropped worker's lease = (%v, %v), want ErrUnknownWorker", r.lease, r.err)
	}
}

// Every parked worker wakes on an enqueue, but only one wins the chunk.
func TestParkedLeasesOneChunkOneWinner(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	const n = 8
	const wait = time.Second
	chans := make([]<-chan leaseResult, n)
	for i := range chans {
		chans[i] = parkLease(t, c, context.Background(), c.Register("w", 1).Worker, wait)
	}
	startJob(c, "j1", testChunks(1))
	winners := 0
	for _, ch := range chans {
		r := awaitLease(t, ch, wait+wokenWithin)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.lease != nil {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d workers leased the one chunk, want exactly 1", winners)
	}
}

// An idle worker facing a coordinator that answers at once — an empty
// lease, or 503 — must pace its lease requests instead of spinning.
func TestIdleWorkerDoesNotSpin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lease func(http.ResponseWriter)
	}{
		{"empty", func(w http.ResponseWriter) { writeFabricJSON(w, http.StatusOK, LeaseReply{}) }},
		{"503", func(w http.ResponseWriter) { fabricError(w, http.StatusServiceUnavailable, ErrClosed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var leases atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case strings.HasSuffix(r.URL.Path, "/register"):
					writeFabricJSON(w, http.StatusOK, RegisterReply{Worker: "w1", LeaseTTLMillis: 60000, HeartbeatMillis: 60000})
				case strings.HasSuffix(r.URL.Path, "/lease"):
					leases.Add(1)
					tc.lease(w)
				default:
					writeFabricJSON(w, http.StatusOK, map[string]bool{"ok": true})
				}
			}))
			defer srv.Close()
			const run = time.Second
			ctx, cancel := context.WithTimeout(context.Background(), run)
			defer cancel()
			if err := RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Slots: 1}); err != nil {
				t.Fatal(err)
			}
			// One request per errorBackoff, plus the first and some slack.
			if got, limit := leases.Load(), int64(run/errorBackoff)+2; got < 1 || got > limit {
				t.Fatalf("idle worker sent %d lease requests in %v, want 1..%d", got, run, limit)
			}
		})
	}
}

// A cancelled worker aborts its parked lease request at once.
func TestCancelledWorkerAbortsParkedLease(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Slots: 1}) }()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().LeasesParked < 1 {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("worker never parked a lease")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(wokenWithin):
		t.Fatal("cancelled worker did not return")
	}
	for deadline := time.Now().Add(wokenWithin); c.Stats().LeasesParked > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("handler kept the aborted lease parked")
		}
	}
}
