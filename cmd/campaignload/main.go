// Command campaignload hammers a running campaignd with concurrent API
// clients and reports latency percentiles and error rate as JSON:
//
//	campaignload -server http://127.0.0.1:8433 -clients 200 -requests 100
//
// Each client optionally submits a job first (same spec for every client —
// submission is idempotent by job ID, so the daemon sees one job and a
// stampede of readers), then cycles through list/status/metrics/stream/
// health reads. Exit status is non-zero when the error rate exceeds
// -max-error-rate, so CI can gate on a small profile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fabric"
)

func main() {
	fs := flag.NewFlagSet("campaignload", flag.ExitOnError)
	var (
		server   = fs.String("server", "http://127.0.0.1:8433", "campaignd base URL")
		clients  = fs.Int("clients", 50, "concurrent clients")
		requests = fs.Int("requests", 100, "operations per client")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		maxErr   = fs.Float64("max-error-rate", 0.01, "exit non-zero above this error rate")
	)
	cs := core.RegisterCampaignFlags(fs, core.CampaignSpec{Geom: "small", Seed: 1, Sample: 0.01, Workers: 1})
	fs.Parse(os.Args[1:])

	opt := fabric.LoadTestOptions{
		Server:   *server,
		Clients:  *clients,
		Requests: *requests,
		Timeout:  *timeout,
	}
	if cs.Design != "" {
		seuSpec := *cs
		body, err := json.Marshal(campaign.JobSpec{Kind: campaign.KindSEU, SEU: &seuSpec})
		if err != nil {
			fatal(err)
		}
		opt.SubmitBody = body
	}

	rep, err := fabric.LoadTest(context.Background(), opt)
	if err != nil {
		fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if rep.ErrorRate > *maxErr {
		fmt.Fprintf(os.Stderr, "campaignload: error rate %.4f exceeds limit %.4f\n", rep.ErrorRate, *maxErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignload:", err)
	os.Exit(1)
}
