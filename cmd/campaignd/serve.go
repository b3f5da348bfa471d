package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fabric"
)

// buildBlobStore resolves a -blob flag value into a store. "dir" (or "")
// keeps checkpoints in files under the state directory, "mem" holds them in
// memory (they die with the daemon — resume relies on recompute), and an
// http(s) URL points at a remote blob server (blobd or another campaignd).
func buildBlobStore(spec core.FabricSpec, stateDir string) (fabric.BlobStore, error) {
	switch spec.Blob {
	case "", "dir":
		return fabric.NewDirStore(filepath.Join(stateDir, "blobs"))
	case "mem":
		return fabric.NewMemStore(), nil
	default:
		return fabric.NewHTTPStore(spec.Blob), nil
	}
}

// runServe boots the scheduler and serves the API until SIGINT/SIGTERM.
func runServe(args []string) error {
	fs := flag.NewFlagSet("campaignd serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8433", "listen address (port 0 picks a free port)")
		state    = fs.String("state", "campaignd-state", "checkpoint root directory")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		chunks   = fs.Int("chunks", campaign.DefaultChunks, "max checkpoint chunks per SEU sweep")
		grace    = fs.Duration("grace", 30*time.Second, "drain window before in-flight work is cancelled hard")
		addrFile = fs.String("addr-file", "", "write the bound address here once listening (for scripts)")
	)
	fspec := core.RegisterFabricFlags(fs, core.FabricSpec{})
	fs.Parse(args)
	if err := fspec.Validate(); err != nil {
		return err
	}

	blobs, err := buildBlobStore(*fspec, *state)
	if err != nil {
		return err
	}
	d, err := newDaemon(campaign.Config{
		Dir: *state, Workers: *workers, Chunks: *chunks, Blobs: blobs,
		Retention: fabric.RetentionPolicy{MaxBlobs: fspec.RetainBlobs, MaxAge: fspec.RetainAge},
	}, *fspec)
	if err != nil {
		return err
	}
	defer d.close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}
	mode := "single-node"
	if d.coord != nil {
		mode = "fabric coordinator"
	}
	fmt.Printf("campaignd listening on %s (state %s, %s)\n", bound, *state, mode)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- d.srv.Serve(ln) }()

	select {
	case err := <-errCh:
		d.sched.Stop(*grace)
		return err
	case <-ctx.Done():
	}
	fmt.Println("campaignd: draining (checkpointing in-flight shards)")
	d.drain(*grace)
	fmt.Println("campaignd: stopped")
	return nil
}

// daemon is one serve-mode node: the scheduler, its fabric coordinator (nil
// on a single-node daemon), and the HTTP server in front of both.
type daemon struct {
	sched *campaign.Scheduler
	coord *fabric.Coordinator
	srv   *http.Server
}

// newDaemon wires the scheduler behind the HTTP API and, when fspec makes
// this node a coordinator, the fabric API and embedded blob server.
func newDaemon(cfg campaign.Config, fspec core.FabricSpec) (*daemon, error) {
	d := &daemon{}
	mux := http.NewServeMux()
	if fspec.Coordinator() {
		coord, err := fabric.NewCoordinator(fabric.CoordConfig{Store: cfg.Blobs, LeaseTTL: fspec.LeaseTTL})
		if err != nil {
			return nil, err
		}
		d.coord, cfg.Coordinator = coord, coord
		// Fabric API plus the embedded blob server workers default to.
		mux.Handle("/api/v1/fabric/", fabric.Handler(coord))
		mux.Handle("/api/v1/blobs", fabric.BlobHandler(cfg.Blobs))
		mux.Handle("/api/v1/blobs/", fabric.BlobHandler(cfg.Blobs))
	}
	sched, err := campaign.New(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.sched = sched
	mux.Handle("/", campaign.Handler(sched))
	d.srv = &http.Server{Handler: mux}
	if d.coord != nil {
		// Shutdown waits for handlers to return; closing the coordinator
		// releases the lease requests parked in them at once.
		d.srv.RegisterOnShutdown(d.coord.Close)
	}
	return d, nil
}

// drain stops the listener first so no new jobs arrive mid-drain, then
// drains the scheduler: in-flight chunks checkpoint and the active job
// re-queues for the next daemon on this state directory.
func (d *daemon) drain(grace time.Duration) {
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := d.srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "campaignd: http shutdown:", err)
	}
	d.sched.Stop(grace)
}

// close releases the coordinator, if any.
func (d *daemon) close() {
	if d.coord != nil {
		d.coord.Close()
	}
}
