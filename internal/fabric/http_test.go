package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// oversizedJSON is a well-formed JSON object just over maxWireBytes.
func oversizedJSON() string {
	return `{"name":"` + strings.Repeat("x", maxWireBytes) + `"}`
}

// Every coordinator route reads at most maxWireBytes of request body and
// answers 413 past it.
func TestCoordinatorRoutesBoundRequestBodies(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	for _, route := range []string{"register", "heartbeat", "lease", "complete"} {
		t.Run(route, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/api/v1/fabric/"+route, "application/json", strings.NewReader(oversizedJSON()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413", resp.StatusCode)
			}
		})
	}
}

// A closed coordinator answers a lease request 503, not an empty lease.
func TestClosedCoordinatorAnswers503(t *testing.T) {
	c, _ := testCoord(t, CoordConfig{LeaseTTL: time.Minute})
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	w := c.Register("late", 1).Worker
	c.Close()
	resp, err := http.Post(srv.URL+"/api/v1/fabric/lease", "application/json", strings.NewReader(`{"worker":"`+w+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

// Replies a worker or blob client reads are bounded too: an oversized one
// fails the call instead of being buffered whole.
func TestClientsBoundReplies(t *testing.T) {
	// Whitespace is valid JSON padding, so only the size can fail a call.
	pad := []byte(strings.Repeat(" ", 1<<20))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := maxWireBytes
		if r.Method == http.MethodGet { // a listing may be as large as a blob
			limit = MaxBlobBytes
		}
		for n := 0; n <= limit; n += len(pad) {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	agent := &workerAgent{opt: WorkerOptions{Coordinator: srv.URL, Client: srv.Client()}}
	if err := agent.register(context.Background()); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("worker register: %v, want an oversized-reply error", err)
	}
	store := NewHTTPStore(srv.URL)
	if _, err := store.Put([]byte("blob")); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("blob put: %v, want an oversized-reply error", err)
	}
	if _, err := store.List(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("blob list: %v, want an oversized-reply error", err)
	}
}
