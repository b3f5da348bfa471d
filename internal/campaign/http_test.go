package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPAPIEndToEnd(t *testing.T) {
	spec := testSpec()
	want := refReportBytes(t, spec)
	s := newTestScheduler(t, t.TempDir(), 2)
	defer s.Stop(time.Minute)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Liveness first: the daemon answers before any job exists.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Submit.
	specJSON, _ := json.Marshal(JobSpec{Kind: KindSEU, SEU: &spec})
	resp, err = http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var stat Status
	if err := json.NewDecoder(resp.Body).Decode(&stat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || stat.ID == "" {
		t.Fatalf("submit: %d, id %q", resp.StatusCode, stat.ID)
	}

	// Stream NDJSON until the final event.
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + stat.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var final Event
	sawEvents := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		sawEvents++
		if ev.Final {
			final = ev
			break
		}
	}
	resp.Body.Close()
	if final.State != StateDone || sawEvents < 2 {
		t.Fatalf("stream ended with state %q after %d events, want done with progress", final.State, sawEvents)
	}
	if final.ChunksDone != final.ChunksTotal || final.Injections == 0 {
		t.Fatalf("final event incomplete: %+v", final)
	}

	// Status reflects the terminal state.
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + stat.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateDone {
		t.Fatalf("status after stream: %s", got.State)
	}

	// The streamed-to-completion report is byte-identical to seusim -json.
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + stat.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(rb, want) {
		t.Fatalf("served report differs from direct run (%d vs %d bytes)", len(rb), len(want))
	}

	// List includes the job.
	resp, err = http.Get(srv.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != stat.ID {
		t.Fatalf("list: %+v", list)
	}

	// Metrics expose job states, throughput, and checkpoint age.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`campaignd_jobs{state="done"} 1`,
		"campaignd_injections_total " + fmt.Sprint(final.Injections),
		"campaignd_checkpoint_age_seconds",
		"campaignd_injections_per_second",
		"campaignd_workers 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Cancel on a done job is a no-op returning the terminal status.
	resp, err = http.Post(srv.URL+"/api/v1/jobs/"+stat.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled Status
	if err := json.NewDecoder(resp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cancelled.State != StateDone {
		t.Fatalf("cancel of done job reported %s", cancelled.State)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestScheduler(t, t.TempDir(), 1)
	defer s.Stop(time.Minute)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/api/v1/jobs", "not json", http.StatusBadRequest},
		{"POST", "/api/v1/jobs", `{"kind":"seu"}`, http.StatusBadRequest},
		{"POST", "/api/v1/jobs", `{"kind":"seu","seu":{"design":"LFSR 18","geom":"tiny","sample":0.2,"kernel":"auto"}}`, http.StatusBadRequest},
		{"POST", "/api/v1/jobs", `{"kind":"seu","seu":{"design":"LFSR 18","geom":"tiny","sample":0.2,"kernel":"event"}}`, http.StatusBadRequest},
		{"POST", "/api/v1/jobs", `{"kind":"seu","seu":{"design":"LFSR 18","geom":"tiny","sample":0.2,"kernel":"vector-sweep"}}`, http.StatusBadRequest},
		{"POST", "/api/v1/jobs", `{"kind":"seu","seu":{"design":"` + strings.Repeat("A", maxSpecBytes) + `"}}`, http.StatusRequestEntityTooLarge},
		{"GET", "/api/v1/jobs/jdeadbeef0000", "", http.StatusNotFound},
		{"POST", "/api/v1/jobs/jdeadbeef0000/cancel", "", http.StatusNotFound},
		{"GET", "/api/v1/jobs/jdeadbeef0000/report", "", http.StatusNotFound},
		{"GET", "/api/v1/jobs/jdeadbeef0000/stream", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}
