package campaign

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Job statuses as reported in the campaign summary.
const (
	StatusOK     = "ok"     // executed this run
	StatusCached = "cached" // served from the result cache
	StatusFailed = "failed" // still failing after retries
)

// JobRecord is one job's outcome. Every field except ElapsedMS is
// deterministic for a fixed (jobs, seed, n) request, so two cold runs
// produce byte-identical summary JSON modulo the timing fields.
type JobRecord struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Seed     int64  `json:"seed"`
	N        int    `json:"n"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts,omitempty"` // 0 when served from cache
	Error    string `json:"error,omitempty"`
	// ElapsedMS is wall-clock per job — a timing field, excluded from the
	// determinism contract.
	ElapsedMS int64 `json:"elapsed_ms"`
	// SeriesPoints is how many time-series windows (obs.Series) were
	// captured while this job ran. Jobs run concurrently against one shared
	// collector, so this is attribution-by-interval telemetry — excluded
	// from the determinism contract, like ElapsedMS. Zero when -series is
	// off or the job was served from cache.
	SeriesPoints int64 `json:"series_points,omitempty"`
}

// Summary is the campaign's final report, emitted as both JSON and text.
type Summary struct {
	Schema   string      `json:"schema"`
	Workers  int         `json:"workers"`
	Executed int         `json:"executed"`
	Cached   int         `json:"cached"`
	Failed   int         `json:"failed"`
	Failures []string    `json:"failures,omitempty"`
	Jobs     []JobRecord `json:"jobs"`
	// Timing fields — excluded from the determinism contract.
	ElapsedMS  int64   `json:"elapsed_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// Per-job wall-clock percentiles over executed (non-cached) jobs, for
	// spotting stragglers in large fleets. Zero when nothing executed.
	// Sketch-derived (relative error ≤ 1 %, see internal/sketch); p999 is
	// add-only so existing consumers of the v1 schema keep working.
	ElapsedP50MS  int64 `json:"elapsed_p50_ms"`
	ElapsedP95MS  int64 `json:"elapsed_p95_ms"`
	ElapsedP99MS  int64 `json:"elapsed_p99_ms"`
	ElapsedP999MS int64 `json:"elapsed_p999_ms,omitempty"`
	// SeriesPoints totals the per-job series-window counts (telemetry,
	// excluded from the determinism contract; zero when -series is off).
	SeriesPoints int64 `json:"series_points,omitempty"`
}

// Total returns the fleet size.
func (s *Summary) Total() int { return len(s.Jobs) }

// JSON renders the summary as indented JSON.
func (s *Summary) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the human-readable campaign report: a per-job table plus
// the fleet totals and failure reasons.
func (s *Summary) Text() string {
	// The series column only appears when a -series collector was live, so
	// the default report keeps its shape.
	cols := []string{"job", "status", "attempts", "elapsed", "key"}
	if s.SeriesPoints > 0 {
		cols = []string{"job", "status", "attempts", "elapsed", "series", "key"}
	}
	t := stats.NewTable("Campaign summary", cols...)
	for _, r := range s.Jobs {
		attempts := ""
		if r.Attempts > 0 {
			attempts = fmt.Sprint(r.Attempts)
		}
		row := []string{r.ID, r.Status, attempts, fmt.Sprintf("%dms", r.ElapsedMS), r.Key}
		if s.SeriesPoints > 0 {
			row = []string{r.ID, r.Status, attempts, fmt.Sprintf("%dms", r.ElapsedMS),
				fmt.Sprint(r.SeriesPoints), r.Key}
		}
		t.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\n%d jobs: %d executed, %d cached, %d failed — %.1fs wall, %.2f jobs/s (%d workers)\n",
		s.Total(), s.Executed, s.Cached, s.Failed,
		float64(s.ElapsedMS)/1000, s.JobsPerSec, s.Workers)
	if s.Executed+s.Failed > 0 {
		fmt.Fprintf(&b, "per-job elapsed: p50 %dms, p95 %dms, p99 %dms, p999 %dms\n",
			s.ElapsedP50MS, s.ElapsedP95MS, s.ElapsedP99MS, s.ElapsedP999MS)
	}
	if s.SeriesPoints > 0 {
		fmt.Fprintf(&b, "series: %d windows captured across the fleet\n", s.SeriesPoints)
	}
	for _, f := range s.Failures {
		b.WriteString("FAILED " + f + "\n")
	}
	return b.String()
}
