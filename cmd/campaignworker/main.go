// Command campaignworker is a fabric worker node. It registers with a
// campaignd coordinator, leases SEU sweep chunks, runs them on local
// replicas, and commits results as content-addressed blobs:
//
//	campaignworker -coordinator http://127.0.0.1:8433 -slots 4
//
// By default chunk blobs are uploaded to the coordinator's embedded blob
// server; point -blob at a standalone blobd (or S3-style endpoint) to keep
// checkpoint traffic off the coordinator. A worker holds no durable state:
// kill it at any point and its leased chunks expire and are re-issued to the
// surviving workers with no effect on the final report. An idle worker holds
// a lease request open at the coordinator, which answers as soon as a chunk
// is queued, so there is no poll interval to tune.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fabric"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:8433", "campaignd coordinator base URL")
		blob        = flag.String("blob", "", "blob server base URL (default: the coordinator's embedded store)")
		name        = flag.String("name", "", "worker name advertised to the coordinator (default: hostname)")
		slots       = flag.Int("slots", 0, "concurrent chunk slots (0 = GOMAXPROCS)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := fabric.RunWorker(ctx, fabric.WorkerOptions{
		Coordinator: *coordinator,
		Blob:        *blob,
		Name:        *name,
		Slots:       *slots,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "campaignworker:", err)
		os.Exit(1)
	}
	fmt.Println("campaignworker: stopped")
}
