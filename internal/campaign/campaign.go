// Package campaign schedules fleets of experiments. Every experiment in
// internal/exp is a registered job addressed by a content key over
// (job id, seed, corpus size, config hash); the scheduler runs jobs over a
// sharded bounded worker pool with per-job panic isolation, a wall-clock
// timeout, and one retry after a panic or nil result, and persists each
// job's exp.Result to a disk cache so re-runs are instant and an
// interrupted campaign resumes from where it stopped.
//
// The per-job core is shared with the sweep engine (internal/sweep), which
// schedules differently but runs each job the same way: the Cache with its
// LoadJSON/StoreJSON codec, the panic Guard, and the StatusSnapshot timing
// rule (SetTiming) behind every jobs/s, ETA and percentile figure.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/par"
)

// schemaVersion is folded into every job key. Bump it whenever the cached
// Result encoding or the meaning of (id, seed, n) changes; old cache
// entries then miss instead of being misread.
const schemaVersion = "campaign-v1"

// Job is one schedulable unit: a registered experiment pinned to a
// specific (seed, corpus size) point.
type Job struct {
	ID   string
	Seed int64
	N    int // requested corpus size; 0 = spec default

	// effN is the corpus size the job will actually run at (spec default
	// resolved). It participates in the key so changing a registry default
	// invalidates stale cache entries.
	effN int
	run  func(n int, seed int64) *exp.Result
}

// Key returns the job's content address: a SHA-256 over the schema
// version, job id, seed, and effective corpus size. Two jobs with equal
// keys are interchangeable, so the key doubles as the cache filename.
func (j Job) Key() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|id=%s|seed=%d|n=%d",
		schemaVersion, j.ID, j.Seed, j.effN)))
	return hex.EncodeToString(h[:16])
}

// JobsFor expands a selector into schedulable jobs at the given seed. The
// selector is "all" (every registered experiment), a kind name (table,
// figure, scaling, ablation, extension, calibration), or a comma-separated
// list of experiment ids; list entries may themselves be kind names.
// nOverride > 0 replaces every job's corpus size.
func JobsFor(selector string, seed int64, nOverride int) ([]Job, error) {
	specs := exp.Registry()
	byKind := func(k string) []exp.Spec {
		var out []exp.Spec
		for _, s := range specs {
			if string(s.Kind) == k {
				out = append(out, s)
			}
		}
		return out
	}
	var picked []exp.Spec
	switch {
	case selector == "" || selector == "all":
		picked = specs
	default:
		seen := map[string]bool{}
		for _, tok := range strings.Split(selector, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			var add []exp.Spec
			if ks := byKind(tok); len(ks) > 0 {
				add = ks
			} else {
				s, err := exp.Lookup(tok)
				if err != nil {
					return nil, err
				}
				add = []exp.Spec{s}
			}
			for _, s := range add {
				if !seen[s.ID] {
					seen[s.ID] = true
					picked = append(picked, s)
				}
			}
		}
	}
	jobs := make([]Job, 0, len(picked))
	for _, s := range picked {
		n := nOverride
		effN := s.DefaultN
		if n > 0 && s.DefaultN > 0 {
			effN = n
		}
		jobs = append(jobs, Job{ID: s.ID, Seed: seed, N: n, effN: effN, run: s.Run})
	}
	return jobs, nil
}

// Options configures one campaign run.
type Options struct {
	Jobs    []Job
	Workers int           // concurrent jobs; <= 0 means runtime.NumCPU()
	Timeout time.Duration // per-job wall clock; <= 0 disables the timeout
	Cache   *Cache        // nil disables caching
	// Progress, when non-nil, receives one telemetry line per finished job
	// (status, elapsed, jobs/sec, ETA).
	Progress io.Writer
	// OnResult, when non-nil, is called for every successful job (cached or
	// executed) in completion order, under a lock — it need not be
	// goroutine-safe.
	OnResult func(Job, *exp.Result)
	// Status, when non-nil, tracks the fleet live for the /campaign/status
	// introspection endpoint (see internal/obs/expose): per-job start/finish
	// transitions, retries, and derived throughput/ETA. Run keeps a private
	// tracker when it is nil; the summary totals come from the tracker.
	Status *Status
	// Obs, when non-nil, receives scheduler-level metrics (see
	// docs/OBSERVABILITY.md): campaign.jobs_executed / jobs_cached /
	// jobs_failed / job_retries counters and the campaign.job_elapsed_ms
	// histogram. Per-simulation metrics are attached separately via
	// sim.ObsProvider; jobs run concurrently, so their simulator-level
	// counters aggregate across the whole fleet.
	Obs *obs.Registry
	// Flight, when non-nil, records each job's completion (and timeout) as
	// typed obs events in a bounded ring, dumped to FlightDir when a job
	// panics or times out — the last-N-events postmortem for a crash the
	// full trace was too expensive to keep running for.
	Flight *flight.Recorder
	// FlightDir is where dumps land ("" disables dumping).
	FlightDir string
}

// retries is how many extra attempts a job gets after an attempt that
// returned a failure (a panic or a nil result). A timed-out attempt is not
// retried: its body is still running, so a retry would run two copies at
// once, and a seeded job cannot finish sooner the second time.
const retries = 1

// errTimeout marks an attempt abandoned at Options.Timeout.
var errTimeout = errors.New("timeout")

// Guard turns a panicking job body into an error, for campaign and sweep
// jobs alike, so one pathological job fails alone instead of taking down
// its worker. With Flight and Dir set, a panic also dumps the flight ring
// and the dump path rides in the error, so the postmortem is one click
// away.
type Guard struct {
	Flight *flight.Recorder
	Dir    string // where dumps land ("" disables dumping)
}

// guardStackLimit caps the stack a recovered panic carries into its error:
// enough for the crash site and its callers, without ballooning the
// summaries, progress lines and lease reports the error ends up in.
const guardStackLimit = 4 << 10

// Run calls fn and returns nil, or, if fn panics, an error reading
// "panic: <value>[\nflight dump: <path>]\n<stack>". tag names the dump; it
// is called only when fn panics, so the happy path formats nothing.
func (g Guard) Run(tag func() string, fn func()) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		stack := debug.Stack()
		if len(stack) > guardStackLimit {
			stack = stack[:guardStackLimit]
		}
		dump := ""
		if path := g.Dump(tag()); path != "" {
			dump = "\nflight dump: " + path
		}
		err = fmt.Errorf("panic: %v%s\n%s", p, dump, stack)
	}()
	fn()
	return nil
}

// Dump writes the flight ring to Dir as flight-<tag>.jsonl and returns the
// path, or "" when dumping is disabled or fails: the dump is a best-effort
// postmortem, not worth failing a job or lease bookkeeping over.
func (g Guard) Dump(tag string) string {
	if g.Flight == nil || g.Dir == "" {
		return ""
	}
	path, err := g.Flight.Dump(g.Dir, tag)
	if err != nil {
		return ""
	}
	return path
}

// flightLog adapts the campaign scheduler to the flight recorder: each
// finished job becomes a "complete" event and each timeout an "expire"
// (reason=timeout), tagged src=campaign so fleet tooling shows them as
// timeline annotations, never lease-lint input. A nil *flightLog no-ops.
type flightLog struct {
	rec   *flight.Recorder
	epoch time.Time
	seq   atomic.Int64 // completion counter; events need Seq >= 0
}

func newFlightLog(rec *flight.Recorder) *flightLog {
	if rec == nil {
		return nil
	}
	return &flightLog{rec: rec, epoch: time.Now()}
}

func (fl *flightLog) record(ev, jobID, detail string) {
	if fl == nil {
		return
	}
	fl.rec.Record(obs.Event{
		TUS:    time.Since(fl.epoch).Microseconds(),
		Ev:     ev,
		Node:   "campaign",
		Seq:    int(fl.seq.Add(1)),
		Detail: "src=campaign job=" + jobID + " " + detail,
	})
}

func (fl *flightLog) complete(jobID, status string, elapsedMS int64) {
	fl.record(obs.EvLeaseComplete, jobID, fmt.Sprintf("status=%s elapsed_ms=%d", status, elapsedMS))
}

func (fl *flightLog) expire(jobID, reason string) {
	fl.record(obs.EvLeaseExpire, jobID, "reason="+reason)
}

// instruments caches the scheduler's obs handles (all nil-safe no-ops when
// Options.Obs is nil).
type instruments struct {
	executed *obs.Counter
	cached   *obs.Counter
	failed   *obs.Counter
	retries  *obs.Counter
	elapsed  *obs.Histogram
}

func newInstruments(r *obs.Registry) instruments {
	return instruments{
		executed: r.Counter("campaign.jobs_executed"),
		cached:   r.Counter("campaign.jobs_cached"),
		failed:   r.Counter("campaign.jobs_failed"),
		retries:  r.Counter("campaign.job_retries"),
		elapsed:  r.Histogram("campaign.job_elapsed_ms", nil),
	}
}

// Run executes the campaign and returns its summary. It never aborts on a
// job failure: panics are recovered, timeouts are enforced, a job that
// panicked or returned nil is retried once, and whatever still fails is
// reported in the summary while the rest of the fleet completes.
func Run(opts Options) *Summary {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if opts.Status == nil {
		opts.Status = NewStatus()
	}
	st := opts.Status
	ins := newInstruments(opts.Obs)
	fl := newFlightLog(opts.Flight)
	st.begin(len(opts.Jobs), workers)
	var mu sync.Mutex
	records := par.MapN(opts.Jobs, workers, func(j Job) JobRecord {
		rec, res := runOne(j, opts, ins, fl)
		mu.Lock()
		defer mu.Unlock()
		st.jobFinished(rec)
		if opts.Progress != nil {
			p := st.Snapshot()
			fmt.Fprintf(opts.Progress, "[%*d/%d] %-24s %-7s %8s  %5.2f jobs/s  eta %s\n",
				len(fmt.Sprint(p.Total)), p.Done, p.Total, j.ID, rec.Status,
				(time.Duration(rec.ElapsedMS) * time.Millisecond).Round(time.Millisecond),
				p.JobsPerSec, fmtETA(p.ETAMS))
		}
		if res != nil && opts.OnResult != nil {
			opts.OnResult(j, res)
		}
		return rec
	})
	st.finish()

	p := st.Snapshot()
	s := &Summary{
		Schema:        schemaVersion,
		Workers:       workers,
		Executed:      p.Executed,
		Cached:        p.Cached,
		Failed:        p.Failed,
		Jobs:          records,
		ElapsedMS:     p.ElapsedMS,
		JobsPerSec:    p.JobsPerSec,
		ElapsedP50MS:  p.ElapsedP50MS,
		ElapsedP95MS:  p.ElapsedP95MS,
		ElapsedP99MS:  p.ElapsedP99MS,
		ElapsedP999MS: p.ElapsedP999MS,
	}
	// The failure digest is sorted; job records stay in input order for
	// determinism.
	for _, rec := range records {
		s.SeriesPoints += rec.SeriesPoints
		if rec.Status == StatusFailed {
			s.Failures = append(s.Failures, fmt.Sprintf("%s: %s", rec.ID, rec.Error))
		}
	}
	sort.Strings(s.Failures)
	return s
}

// runOne resolves one job through the cache or executes it (with retries),
// returning its record and, when successful, its result.
func runOne(j Job, opts Options, ins instruments, fl *flightLog) (JobRecord, *exp.Result) {
	rec := JobRecord{ID: j.ID, Key: j.Key(), Seed: j.Seed, N: j.effN}
	jobStart := time.Now()
	opts.Status.jobStarted(j, rec.Key)
	res := new(exp.Result)
	if opts.Cache.LoadJSON(rec.Key, res, func() bool { return res.ID != "" }) {
		rec.Status = StatusCached
		rec.ElapsedMS = time.Since(jobStart).Milliseconds()
		ins.cached.Inc()
		return rec, res
	}
	var err error
	// Series windows are attributed to jobs by interval: the collector is
	// shared across the fleet, so under concurrency this is telemetry (like
	// ElapsedMS), not part of the determinism contract.
	series := opts.Obs.Series()
	pointsBefore := series.Points()
	for rec.Attempts = 1; ; rec.Attempts++ {
		res, err = execute(j, opts, fl)
		if err == nil || rec.Attempts > retries || errors.Is(err, errTimeout) {
			break
		}
		ins.retries.Inc()
		opts.Status.jobRetried()
	}
	rec.SeriesPoints = series.Points() - pointsBefore
	rec.ElapsedMS = time.Since(jobStart).Milliseconds()
	ins.elapsed.Observe(rec.ElapsedMS)
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		ins.failed.Inc()
		fl.complete(j.ID, StatusFailed, rec.ElapsedMS)
		return rec, nil
	}
	rec.Status = StatusOK
	ins.executed.Inc()
	fl.complete(j.ID, StatusOK, rec.ElapsedMS)
	if serr := opts.Cache.StoreJSON(rec.Key, res); serr != nil {
		// A cache write failure degrades re-run speed, not correctness.
		rec.Error = "cache store: " + serr.Error()
	}
	return rec, res
}

// execute runs the job body on its own goroutine under the Guard, with an
// optional wall-clock timeout. On timeout the goroutine is abandoned — the
// simulator has no cancellation points — so a timed-out job keeps a
// worker's worth of CPU busy until it finishes; the scheduler slot itself
// is released immediately. Panics and timeouts dump the flight ring, and
// the dump path rides in the error.
func execute(j Job, opts Options, fl *flightLog) (*exp.Result, error) {
	type outcome struct {
		res *exp.Result
		err error
	}
	guard := Guard{Flight: opts.Flight, Dir: opts.FlightDir}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		o.err = guard.Run(func() string { return "panic-" + j.ID },
			func() { o.res = j.run(j.N, j.Seed) })
		if o.err == nil && o.res == nil {
			o.err = errors.New("experiment returned nil result")
		}
		ch <- o
	}()
	if opts.Timeout <= 0 {
		o := <-ch
		return o.res, o.err
	}
	timer := time.NewTimer(opts.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		fl.expire(j.ID, "timeout")
		dump := ""
		if path := guard.Dump("timeout-" + j.ID); path != "" {
			dump = " (flight dump: " + path + ")"
		}
		return nil, fmt.Errorf("%w after %s%s", errTimeout, opts.Timeout, dump)
	}
}
