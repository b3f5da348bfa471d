package main

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fabric"
)

// A fabric daemon's drain must release the lease requests workers have
// parked in it instead of waiting out the long poll cap, and a cancelled
// worker must abandon its parked request at once.
func TestDrainReleasesParkedLeases(t *testing.T) {
	d, err := newDaemon(campaign.Config{Dir: t.TempDir(), Workers: 1, Blobs: fabric.NewMemStore()},
		core.FabricSpec{Mode: "coordinator", Blob: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.srv.Serve(ln)

	startWorker := func() (context.CancelFunc, <-chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- fabric.RunWorker(ctx, fabric.WorkerOptions{Coordinator: "http://" + ln.Addr().String(), Slots: 1})
		}()
		return cancel, done
	}
	waitParked := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for d.coord.Stats().LeasesParked != n {
			if time.Now().After(deadline) {
				t.Fatalf("parked leases never reached %d (have %d)", n, d.coord.Stats().LeasesParked)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// prompt is far below the 10 s long poll cap.
	const prompt = 2 * time.Second
	returns := func(what string, done <-chan error) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(prompt):
			t.Fatalf("%s did not return within %v", what, prompt)
		}
	}

	cancelA, doneA := startWorker()
	defer cancelA()
	cancelB, doneB := startWorker()
	defer cancelB()
	waitParked(2)

	cancelA()
	returns("cancelled worker's RunWorker", doneA)
	waitParked(1)

	drained := make(chan error, 1)
	go func() {
		d.drain(time.Minute)
		drained <- nil
	}()
	returns("Shutdown plus scheduler Stop", drained)

	cancelB()
	returns("drained worker's RunWorker", doneB)
}
