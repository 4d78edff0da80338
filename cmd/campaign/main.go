// Command campaign runs fleets of experiments through the sharded,
// resumable, cached scheduler in internal/campaign.
//
// Usage:
//
//	campaign [-jobs all|kind|id,id,...] [-seed N] [-n N] [-workers N]
//	         [-timeout D] [-cache DIR] [-no-cache] [-out DIR]
//	         [-summary FILE] [-json] [-quiet] [-list]
//	         [-metrics FILE] [-trace FILE] [-series PATH[,WINDOW]]
//	         [-pprof DIR] [-http ADDR] [-flight DIR[,N]]
//	campaign watch [-interval D] [-once] [-no-clear] ADDR
//	campaign sweep [-local N] [-parallel N] [-batch N] [-ttl D]
//	         [-cache DIR] [-no-cache] [-summary FILE] [-json] [-report]
//	         [-quiet] [-http ADDR] [-trace FILE] [-flight DIR[,N]] SPEC.json
//	campaign sweep expand [-n N] SPEC.json
//	campaign sweep report [-json] SUMMARY.json
//	campaign worker -connect ADDR [-name NAME] [-parallel N] [-batch N]
//	         [-cache DIR] [-no-cache] [-quiet] [-trace FILE] [-flight DIR[,N]]
//	campaign cache stat|gc [-cache DIR] [-max-age D] [-max-bytes N]
//
// Every experiment registered in exp.Registry() is a job addressed by
// (id, seed, n, config hash). Completed jobs persist their results under
// the cache directory, so re-running a campaign is instant and an
// interrupted campaign resumes from where it stopped. The process exits
// nonzero if any job failed, but a failing job never aborts the fleet.
//
// The observability flags (-metrics, -trace, -series, -pprof, -http) are
// shared with cmd/experiments; see docs/OBSERVABILITY.md. Jobs run
// concurrently, so simulator-level metrics aggregate across the fleet, with
// trace lines distinguished by their per-simulation run label. With -http
// set the driver additionally serves the live fleet view at
// /campaign/status, which `campaign watch ADDR` renders as a refreshing
// terminal table.
//
// The sweep subcommands drive the fleet sweep engine (internal/sweep, see
// docs/FLEET.md): `sweep` runs a declarative grid spec to a merged
// sketch-backed summary (with -report, the full paper artifact of
// docs/RESULTS.md — Tables 1-3 plus CDF figures), `sweep expand` previews
// the lazy job stream, `sweep report` re-renders the artifact offline from
// a saved -summary file, `worker` joins a remote coordinator's sweep over
// its control plane, and `cache` inspects or prunes the shared
// content-addressed result cache.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/obsflag"
)

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "watch":
			return runWatch(os.Args[2:], os.Stdout, os.Stderr)
		case "sweep":
			return runSweep(os.Args[2:], os.Stdout, os.Stderr)
		case "worker":
			return runWorkerCmd(os.Args[2:], os.Stdout, os.Stderr)
		case "cache":
			return runCacheCmd(os.Args[2:], os.Stdout, os.Stderr)
		}
	}
	jobsSel := flag.String("jobs", "all", "fleet selector: all, a kind (table, figure, scaling, ablation, extension, calibration), or a comma-separated id list")
	seed := flag.Int64("seed", 42, "root random seed")
	n := flag.Int("n", 0, "corpus size override (0 = each experiment's paper size)")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = NumCPU)")
	timeout := flag.Duration("timeout", 15*time.Minute, "per-job wall-clock timeout (0 = none)")
	openCache := registerCache(flag.CommandLine)
	outDir := flag.String("out", "", "also write each successful job's CSV to <dir>/<id>.csv")
	summaryPath := flag.String("summary", "", "write the summary JSON to this file")
	asJSON := flag.Bool("json", false, "print the summary as JSON instead of text")
	quiet := flag.Bool("quiet", false, "suppress per-job progress lines")
	list := flag.Bool("list", false, "list registered experiments and exit")
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, s := range exp.Registry() {
			fmt.Printf("%-24s %-12s n=%-4d %s\n", s.ID, s.Kind, s.DefaultN, s.Title)
		}
		return 0
	}

	jobs, err := campaign.JobsFor(*jobsSel, *seed, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 2
	}

	cache, err := openCache()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 1
	}

	sess, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 1
	}
	defer sess.Close()
	sess.HandleSignals("campaign")

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	var onResult func(campaign.Job, *exp.Result)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		onResult = func(j campaign.Job, r *exp.Result) {
			path := filepath.Join(*outDir, r.ID+".csv")
			if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: write csv:", err)
			}
		}
	}

	var status *campaign.Status
	if srv := sess.HTTP(); srv != nil {
		status = campaign.NewStatus()
		srv.Handle("/campaign/status", status)
	}

	sum := campaign.Run(campaign.Options{
		Jobs:      jobs,
		Workers:   *workers,
		Timeout:   *timeout,
		Cache:     cache,
		Progress:  progress,
		OnResult:  onResult,
		Obs:       sess.Reg,
		Status:    status,
		Flight:    sess.Flight(),
		FlightDir: sess.FlightDir(),
	})

	if *summaryPath != "" {
		data, err := sum.JSON()
		if err == nil {
			err = os.WriteFile(*summaryPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign: write summary:", err)
			return 1
		}
	}
	if *asJSON {
		data, err := sum.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(sum.Text())
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 1
	}
	if sum.Failed > 0 {
		return 1
	}
	return 0
}

// registerCache installs -cache and -no-cache on fs and returns the opener
// of the cache they select (nil under -no-cache). Campaigns, sweeps and
// workers share one content-addressed cache, so they share the flags too.
func registerCache(fs *flag.FlagSet) func() (*campaign.Cache, error) {
	dir := fs.String("cache", campaign.DefaultCacheDir, "result cache directory (shared by campaigns, sweeps and workers)")
	off := fs.Bool("no-cache", false, "bypass the result cache entirely")
	return func() (*campaign.Cache, error) {
		if *off {
			return nil, nil
		}
		return campaign.OpenCache(*dir)
	}
}
