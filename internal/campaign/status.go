package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/sketch"
	"repro/internal/stats"
)

// StatusSchema versions the /campaign/status JSON document.
const StatusSchema = "campaign-status-v1"

// Status is the live fleet tracker behind the /campaign/status endpoint: a
// concurrency-safe view of a Run in flight — which jobs are active on which
// workers, what finished with which outcome, and the same throughput/ETA
// numbers the progress log prints, as one scrapeable document.
//
// Create one with NewStatus, point Options.Status at it, and mount it on
// the introspection server (it implements http.Handler, serving its
// Snapshot as JSON). All methods are safe on a nil *Status, so the
// scheduler calls them unconditionally — the untracked path costs one nil
// check per job.
type Status struct {
	mu       sync.Mutex
	running  bool
	workers  int
	total    int
	done     int
	executed int
	cached   int
	failed   int
	retries  int
	start    time.Time
	active   map[string]ActiveJob // by job key
	recent   []JobRecord          // most recent first, capped
	// elapsed sketches finished non-cached job wall clocks (ms). A digest
	// instead of a raw slice keeps the tracker's memory O(compression)
	// however many jobs a fleet runs (see internal/sketch).
	elapsed *sketch.Digest
}

// ActiveJob is one in-flight job in a StatusSnapshot.
type ActiveJob struct {
	ID        string `json:"id"`
	Seed      int64  `json:"seed"`
	N         int    `json:"n"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// StatusSnapshot is the JSON document Status serves: fleet totals,
// in-flight jobs, recently finished jobs, and derived throughput. Schema
// documented in docs/OBSERVABILITY.md ("Live endpoints").
type StatusSnapshot struct {
	Schema  string `json:"schema"`
	Running bool   `json:"running"`
	Workers int    `json:"workers"`

	Total    int `json:"total"`
	Done     int `json:"done"`
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	Retries  int `json:"retries"`

	// Active jobs, longest-running first. Recent holds the last finished
	// jobs, most recent first (capped at recentCap).
	Active []ActiveJob `json:"active,omitempty"`
	Recent []JobRecord `json:"recent,omitempty"`

	ElapsedMS  int64   `json:"elapsed_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// ETAMS extrapolates the remaining wall clock from the finish rate so
	// far; -1 before the first job finishes.
	ETAMS int64 `json:"eta_ms"`
	// Per-job wall-clock percentiles over finished non-cached jobs (zero
	// until one finishes), mirroring the summary fields. Sketch-backed
	// (relative error ≤ 1 %), so they stay cheap at fleet scale.
	ElapsedP50MS  int64 `json:"elapsed_p50_ms"`
	ElapsedP95MS  int64 `json:"elapsed_p95_ms"`
	ElapsedP99MS  int64 `json:"elapsed_p99_ms"`
	ElapsedP999MS int64 `json:"elapsed_p999_ms,omitempty"`

	// Sketch telemetry for sweeps (zero for registry campaigns): how many
	// metric digests the merged aggregate holds (cells × metric keys, plus
	// timing) and their total bucket count — the aggregate's memory driver.
	MetricSketches int `json:"metric_sketches,omitempty"`
	SketchBuckets  int `json:"sketch_buckets,omitempty"`

	// Fleet is the per-worker view of a sharded sweep (empty for
	// single-process campaigns): lease counts, completed jobs, and
	// liveness derived from heartbeat recency.
	Fleet []WorkerStatus `json:"fleet,omitempty"`
}

// WorkerStatus is one sweep worker's row in the fleet view. Beyond lease
// accounting it carries the heartbeat-federated metrics (sweep-proto-v4):
// mid-lease job counters, the elapsed p50 from the worker's own digest,
// the coordinator's straggler verdict (worker p50 far above the
// fleet-merged p50; see docs/FLEET.md for the thresholds), and the
// worker's streaming SLO alert state when it runs with -slo.
type WorkerStatus struct {
	Name       string `json:"name"`
	JobsDone   int64  `json:"jobs_done"`
	Leases     int    `json:"active_leases"`
	LastSeenMS int64  `json:"last_seen_ms"`
	Alive      bool   `json:"alive"`

	Executed     int64 `json:"executed,omitempty"`
	Cached       int64 `json:"cached,omitempty"`
	Failed       int64 `json:"failed,omitempty"`
	Samples      int64 `json:"samples,omitempty"`
	ElapsedP50MS int64 `json:"elapsed_p50_ms,omitempty"`
	Straggler    bool  `json:"straggler,omitempty"`

	// SLO alert federation: SLOArmed marks a worker running a streaming
	// SLO engine; Pending/Firing are its current alert counts and Fired
	// the cumulative episodes that reached firing (internal/obs/slo).
	SLOArmed   bool  `json:"slo_armed,omitempty"`
	SLOPending int64 `json:"slo_pending,omitempty"`
	SLOFiring  int64 `json:"slo_firing,omitempty"`
	SLOFired   int64 `json:"slo_fired,omitempty"`
}

// recentCap bounds the finished-job ring the snapshot reports.
const recentCap = 16

// NewStatus returns an empty tracker, ready to hand to Options.Status and
// to mount on an introspection server.
func NewStatus() *Status {
	return &Status{active: map[string]ActiveJob{}, elapsed: sketch.New()}
}

// begin marks the start of a Run over total jobs on the given worker count.
func (st *Status) begin(total, workers int) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.running = true
	st.workers = workers
	st.total = total
	st.done, st.executed, st.cached, st.failed, st.retries = 0, 0, 0, 0, 0
	st.start = time.Now()
	st.active = map[string]ActiveJob{}
	st.recent = nil
	st.elapsed = sketch.New()
	st.mu.Unlock()
}

// jobStarted records a job entering a worker.
func (st *Status) jobStarted(j Job, key string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.active[key] = ActiveJob{ID: j.ID, Seed: j.Seed, N: j.effN,
		ElapsedMS: -time.Now().UnixMilli()} // sign flag: started-at, fixed in Snapshot
	st.mu.Unlock()
}

// jobRetried counts one retry attempt.
func (st *Status) jobRetried() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.retries++
	st.mu.Unlock()
}

// jobFinished records a job's outcome.
func (st *Status) jobFinished(rec JobRecord) {
	if st == nil {
		return
	}
	st.mu.Lock()
	delete(st.active, rec.Key)
	st.done++
	switch rec.Status {
	case StatusOK:
		st.executed++
	case StatusCached:
		st.cached++
	default:
		st.failed++
	}
	if rec.Status != StatusCached {
		st.elapsed.Add(float64(rec.ElapsedMS))
	}
	st.recent = append([]JobRecord{rec}, st.recent...)
	if len(st.recent) > recentCap {
		st.recent = st.recent[:recentCap]
	}
	st.mu.Unlock()
}

// finish marks the Run complete.
func (st *Status) finish() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.running = false
	st.mu.Unlock()
}

// Snapshot assembles the current fleet view. Safe on a nil tracker (returns
// an empty, non-running snapshot).
func (st *Status) Snapshot() *StatusSnapshot {
	snap := &StatusSnapshot{Schema: StatusSchema, ETAMS: -1}
	if st == nil {
		return snap
	}
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	snap.Running = st.running
	snap.Workers = st.workers
	snap.Total = st.total
	snap.Done = st.done
	snap.Executed = st.executed
	snap.Cached = st.cached
	snap.Failed = st.failed
	snap.Retries = st.retries
	var elapsed time.Duration
	if !st.start.IsZero() {
		elapsed = now.Sub(st.start)
	}
	snap.SetTiming(elapsed, st.elapsed)
	for _, a := range st.active {
		// jobStarted stores the negated start time; convert to elapsed.
		a.ElapsedMS = now.UnixMilli() + a.ElapsedMS
		if a.ElapsedMS < 0 {
			a.ElapsedMS = 0
		}
		snap.Active = append(snap.Active, a)
	}
	sort.Slice(snap.Active, func(i, j int) bool {
		if snap.Active[i].ElapsedMS != snap.Active[j].ElapsedMS {
			return snap.Active[i].ElapsedMS > snap.Active[j].ElapsedMS
		}
		return snap.Active[i].ID < snap.Active[j].ID
	})
	snap.Recent = append(snap.Recent, st.recent...)
	return snap
}

// SetTiming derives a run's timing figures from its wall clock so far and
// the snapshot's Done/Total: ElapsedMS, JobsPerSec, ETAMS (-1 until a job
// finishes; never negative, even if Done overshoots Total), and the
// per-job elapsed percentiles from jobs (zero while it is nil or empty).
// Status, the campaign progress line and summary, and the sweep
// coordinator all take their throughput, ETA and percentiles from here.
func (snap *StatusSnapshot) SetTiming(elapsed time.Duration, jobs *sketch.Digest) {
	snap.ElapsedMS = elapsed.Milliseconds()
	snap.ETAMS = -1
	if secs := elapsed.Seconds(); secs > 0 && snap.Done > 0 {
		snap.JobsPerSec = float64(snap.Done) / secs
		snap.ETAMS = 0
		if remaining := snap.Total - snap.Done; remaining > 0 {
			snap.ETAMS = int64(float64(remaining) / snap.JobsPerSec * 1000)
		}
	}
	if jobs != nil && jobs.Count() > 0 {
		snap.ElapsedP50MS = int64(jobs.Quantile(0.50))
		snap.ElapsedP95MS = int64(jobs.Quantile(0.95))
		snap.ElapsedP99MS = int64(jobs.Quantile(0.99))
		snap.ElapsedP999MS = int64(jobs.Quantile(0.999))
	}
}

// ServeHTTP serves the snapshot as indented JSON, making a *Status
// mountable directly on the introspection server.
func (st *Status) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	data, err := json.MarshalIndent(st.Snapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(data)
	w.Write([]byte("\n"))
}

// Text renders a snapshot as the terminal table `campaign watch` draws.
func (snap *StatusSnapshot) Text() string {
	t := stats.NewTable("Campaign fleet", "metric", "value")
	state := "running"
	if !snap.Running {
		state = "finished"
	}
	t.AddRow("state", state)
	t.AddRow("progress", progressBar(snap.Done, snap.Total))
	t.AddRow("executed / cached / failed", fmt.Sprintf("%d / %d / %d", snap.Executed, snap.Cached, snap.Failed))
	t.AddRow("retries", fmt.Sprintf("%d", snap.Retries))
	t.AddRow("workers", fmt.Sprintf("%d", snap.Workers))
	t.AddRow("elapsed", (time.Duration(snap.ElapsedMS) * time.Millisecond).Round(time.Second).String())
	t.AddRow("jobs/sec", fmt.Sprintf("%.2f", snap.JobsPerSec))
	t.AddRow("eta", fmtETA(snap.ETAMS))
	if snap.Executed+snap.Failed > 0 {
		t.AddRow("job elapsed p50/p95/p99/p999", fmt.Sprintf("%dms / %dms / %dms / %dms",
			snap.ElapsedP50MS, snap.ElapsedP95MS, snap.ElapsedP99MS, snap.ElapsedP999MS))
	}
	if snap.MetricSketches > 0 {
		t.AddRow("metric sketches / buckets", fmt.Sprintf("%d / %d", snap.MetricSketches, snap.SketchBuckets))
	}
	out := t.String()
	if len(snap.Fleet) > 0 {
		f := stats.NewTable("Fleet workers", "worker", "jobs done", "leases",
			"exec/cache/fail", "p50", "alerts", "last seen", "state")
		for _, w := range snap.Fleet {
			state := "alive"
			if !w.Alive {
				state = "DEAD"
			}
			if w.Straggler {
				state += " STRAGGLER"
			}
			p50 := "-"
			if w.Samples > 0 {
				p50 = fmt.Sprintf("%dms", w.ElapsedP50MS)
			}
			// alerts is pending/firing now, plus lifetime fired episodes.
			alerts := "-"
			if w.SLOArmed {
				alerts = fmt.Sprintf("%dp/%df (%d fired)", w.SLOPending, w.SLOFiring, w.SLOFired)
			}
			f.AddRow(w.Name, fmt.Sprintf("%d", w.JobsDone), fmt.Sprintf("%d", w.Leases),
				fmt.Sprintf("%d/%d/%d", w.Executed, w.Cached, w.Failed), p50, alerts,
				(time.Duration(w.LastSeenMS)*time.Millisecond).Round(time.Millisecond).String()+" ago", state)
		}
		out += "\n" + f.String()
	}
	if len(snap.Active) > 0 {
		a := stats.NewTable("Active jobs", "job", "seed", "n", "running for")
		for _, j := range snap.Active {
			a.AddRow(j.ID, fmt.Sprintf("%d", j.Seed), fmt.Sprintf("%d", j.N),
				(time.Duration(j.ElapsedMS) * time.Millisecond).Round(time.Millisecond).String())
		}
		out += "\n" + a.String()
	}
	if len(snap.Recent) > 0 {
		r := stats.NewTable("Recently finished", "job", "status", "elapsed")
		for _, j := range snap.Recent {
			r.AddRow(j.ID, j.Status, fmt.Sprintf("%dms", j.ElapsedMS))
		}
		out += "\n" + r.String()
	}
	return out
}

// fmtETA renders an ETAMS value to the second ("n/a" while unknown).
func fmtETA(ms int64) string {
	if ms < 0 {
		return "n/a"
	}
	return (time.Duration(ms) * time.Millisecond).Round(time.Second).String()
}

// progressBar renders done/total as a fixed-width ASCII bar.
func progressBar(done, total int) string {
	const width = 24
	if total <= 0 {
		return "(no jobs)"
	}
	fill := done * width / total
	return fmt.Sprintf("[%s%s] %d/%d", repeatRune('#', fill), repeatRune('.', width-fill), done, total)
}

func repeatRune(c byte, n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
