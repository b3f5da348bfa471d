package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
)

// api is a minimal client for the campaignd HTTP API.
type api struct{ server string }

func (a api) url(path string) string { return strings.TrimRight(a.server, "/") + path }

func (a api) decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, apiErr.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

func (a api) submit(spec campaign.JobSpec) (*campaign.Status, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(a.url("/api/v1/jobs"), "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var stat campaign.Status
	if err := a.decode(resp, &stat); err != nil {
		return nil, err
	}
	return &stat, nil
}

func (a api) status(id string) (*campaign.Status, error) {
	resp, err := http.Get(a.url("/api/v1/jobs/" + id))
	if err != nil {
		return nil, err
	}
	var stat campaign.Status
	if err := a.decode(resp, &stat); err != nil {
		return nil, err
	}
	return &stat, nil
}

func (a api) list() ([]campaign.Status, error) {
	resp, err := http.Get(a.url("/api/v1/jobs"))
	if err != nil {
		return nil, err
	}
	var out []campaign.Status
	if err := a.decode(resp, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (a api) cancel(id string) (*campaign.Status, error) {
	resp, err := http.Post(a.url("/api/v1/jobs/"+id+"/cancel"), "application/json", nil)
	if err != nil {
		return nil, err
	}
	var stat campaign.Status
	if err := a.decode(resp, &stat); err != nil {
		return nil, err
	}
	return &stat, nil
}

func (a api) report(id string) ([]byte, error) {
	resp, err := http.Get(a.url("/api/v1/jobs/" + id + "/report"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// stream follows a job's NDJSON events, calling fn per event until fn
// returns false, the stream ends, or an event is final. Returns the last
// event seen.
func (a api) stream(id string, fn func(campaign.Event) bool) (campaign.Event, error) {
	var last campaign.Event
	resp, err := http.Get(a.url("/api/v1/jobs/" + id + "/stream"))
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return last, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev campaign.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return last, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		last = ev
		if !fn(ev) || ev.Final {
			return last, nil
		}
	}
	return last, sc.Err()
}

func (a api) text(path string) (string, error) {
	resp, err := http.Get(a.url(path))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return string(body), nil
}

func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://127.0.0.1:8433", "campaignd base URL")
}

func jobFlag(fs *flag.FlagSet) *string {
	return fs.String("job", "", "job ID")
}

func needJob(job string) error {
	if job == "" {
		return fmt.Errorf("-job is required")
	}
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runSubmit submits a job. The SEU path reuses the shared campaign flag set
// (same defaults and spellings as seusim); arbitrary jobs go through -spec.
func runSubmit(args []string) error {
	fs := flag.NewFlagSet("campaignd submit", flag.ExitOnError)
	server := serverFlag(fs)
	specFile := fs.String("spec", "", "submit this JobSpec JSON file instead of building one from flags (- for stdin)")
	cs := core.RegisterCampaignFlags(fs, core.CampaignSpec{Geom: "small", Seed: 1, Sample: 0.01, Workers: 1})
	wait := fs.Bool("wait", false, "follow the job and exit when it is terminal")
	fs.Parse(args)

	var spec campaign.JobSpec
	if *specFile != "" {
		var b []byte
		var err error
		if *specFile == "-" {
			b, err = io.ReadAll(os.Stdin)
		} else {
			b, err = os.ReadFile(*specFile)
		}
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("parsing %s: %w", *specFile, err)
		}
	} else {
		if cs.Design == "" {
			return fmt.Errorf("either -design or -spec is required")
		}
		seuSpec := *cs
		spec = campaign.JobSpec{Kind: campaign.KindSEU, SEU: &seuSpec}
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	a := api{server: *server}
	stat, err := a.submit(spec)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(stat)
	}
	return followJob(a, stat.ID)
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("campaignd status", flag.ExitOnError)
	server := serverFlag(fs)
	job := jobFlag(fs)
	fs.Parse(args)
	a := api{server: *server}
	if *job == "" {
		list, err := a.list()
		if err != nil {
			return err
		}
		return printJSON(list)
	}
	stat, err := a.status(*job)
	if err != nil {
		return err
	}
	return printJSON(stat)
}

func runStream(args []string) error {
	fs := flag.NewFlagSet("campaignd stream", flag.ExitOnError)
	server := serverFlag(fs)
	job := jobFlag(fs)
	fs.Parse(args)
	if err := needJob(*job); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	_, err := api{server: *server}.stream(*job, func(ev campaign.Event) bool {
		enc.Encode(ev)
		return true
	})
	return err
}

func runWait(args []string) error {
	fs := flag.NewFlagSet("campaignd wait", flag.ExitOnError)
	server := serverFlag(fs)
	job := jobFlag(fs)
	fs.Parse(args)
	if err := needJob(*job); err != nil {
		return err
	}
	return followJob(api{server: *server}, *job)
}

// followJob streams progress to stderr until the job is terminal; the exit
// status reflects whether it finished done.
func followJob(a api, id string) error {
	last, err := a.stream(id, func(ev campaign.Event) bool {
		fmt.Fprintf(os.Stderr, "%s %-9s %d/%d chunks  %d injections  %d failures\n",
			ev.Job, ev.State, ev.ChunksDone, ev.ChunksTotal, ev.Injections, ev.Failures)
		return true
	})
	if err != nil {
		return err
	}
	if last.State != campaign.StateDone {
		return fmt.Errorf("job %s finished %s (%s)", id, last.State, last.Error)
	}
	return nil
}

func runCancel(args []string) error {
	fs := flag.NewFlagSet("campaignd cancel", flag.ExitOnError)
	server := serverFlag(fs)
	job := jobFlag(fs)
	fs.Parse(args)
	if err := needJob(*job); err != nil {
		return err
	}
	stat, err := api{server: *server}.cancel(*job)
	if err != nil {
		return err
	}
	return printJSON(stat)
}

func runReport(args []string) error {
	fs := flag.NewFlagSet("campaignd report", flag.ExitOnError)
	server := serverFlag(fs)
	job := jobFlag(fs)
	fs.Parse(args)
	if err := needJob(*job); err != nil {
		return err
	}
	b, err := api{server: *server}.report(*job)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

func runMetrics(args []string) error {
	fs := flag.NewFlagSet("campaignd metrics", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	text, err := api{server: *server}.text("/metrics")
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func runHealth(args []string) error {
	fs := flag.NewFlagSet("campaignd health", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	text, err := api{server: *server}.text("/healthz")
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}
