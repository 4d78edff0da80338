package campaign

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
)

func TestStatusNilSafe(t *testing.T) {
	var st *Status
	st.begin(3, 2)
	st.jobStarted(Job{ID: "x"}, "k")
	st.jobRetried()
	st.jobFinished(JobRecord{ID: "x", Key: "k", Status: StatusOK})
	st.finish()
	snap := st.Snapshot()
	if snap.Schema != StatusSchema || snap.Running || snap.Total != 0 || snap.ETAMS != -1 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}

func TestStatusTracksRun(t *testing.T) {
	st := NewStatus()
	var mu sync.Mutex
	var midRun *StatusSnapshot
	block := make(chan struct{})
	jobs := []Job{
		fakeJob("fast", 1, func(int, int64) *exp.Result { return okResult("fast") }),
		fakeJob("slow", 1, func(int, int64) *exp.Result {
			mu.Lock()
			if midRun == nil {
				midRun = st.Snapshot()
			}
			mu.Unlock()
			<-block
			return okResult("slow")
		}),
		fakeJob("bad", 1, func(int, int64) *exp.Result { panic("boom") }),
	}
	go func() {
		// Let the fast/bad jobs finish, then release the slow one.
		for st.Snapshot().Done < 2 {
			runtime.Gosched()
		}
		close(block)
	}()
	sum := Run(Options{Jobs: jobs, Workers: 3, Status: st})
	if sum.Executed != 2 || sum.Failed != 1 {
		t.Fatalf("summary: %+v", sum)
	}

	mu.Lock()
	mid := midRun
	mu.Unlock()
	if mid == nil {
		t.Fatal("slow job never snapshotted")
	}
	if !mid.Running || mid.Total != 3 {
		t.Errorf("mid-run snapshot: running=%v total=%d", mid.Running, mid.Total)
	}
	found := false
	for _, a := range mid.Active {
		if a.ID == "slow" {
			found = true
		}
	}
	if !found {
		t.Errorf("mid-run active set %v misses the running job", mid.Active)
	}

	final := st.Snapshot()
	if final.Running {
		t.Error("still running after Run returned")
	}
	if final.Done != 3 || final.Executed != 2 || final.Failed != 1 {
		t.Errorf("final snapshot: %+v", final)
	}
	if final.Retries != 1 { // the panicking job got one extra attempt
		t.Errorf("retries = %d, want 1", final.Retries)
	}
	if len(final.Active) != 0 {
		t.Errorf("active after finish: %v", final.Active)
	}
	if len(final.Recent) != 3 {
		t.Errorf("recent = %d records, want 3", len(final.Recent))
	}
	if final.ElapsedP95MS < final.ElapsedP50MS {
		t.Errorf("percentiles not ordered: %+v", final)
	}
}

func TestStatusRecentRingCapped(t *testing.T) {
	st := NewStatus()
	st.begin(recentCap+10, 1)
	for i := 0; i < recentCap+10; i++ {
		st.jobFinished(JobRecord{ID: fmt.Sprintf("j%d", i), Key: fmt.Sprintf("k%d", i), Status: StatusOK})
	}
	snap := st.Snapshot()
	if len(snap.Recent) != recentCap {
		t.Fatalf("recent len = %d, want %d", len(snap.Recent), recentCap)
	}
	if snap.Recent[0].ID != fmt.Sprintf("j%d", recentCap+9) {
		t.Errorf("recent[0] = %s, want most recent", snap.Recent[0].ID)
	}
	if snap.Done != recentCap+10 {
		t.Errorf("done = %d", snap.Done)
	}
}

func TestStatusServeHTTP(t *testing.T) {
	st := NewStatus()
	st.begin(2, 1)
	st.jobFinished(JobRecord{ID: "a", Key: "ka", Status: StatusCached})
	rec := httptest.NewRecorder()
	st.ServeHTTP(rec, httptest.NewRequest("GET", "/campaign/status", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var snap StatusSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Schema != StatusSchema || snap.Cached != 1 || snap.Total != 2 || !snap.Running {
		t.Errorf("snapshot over HTTP: %+v", snap)
	}
}

func TestStatusSnapshotText(t *testing.T) {
	st := NewStatus()
	st.begin(4, 2)
	st.jobStarted(Job{ID: "running-job", Seed: 7, effN: 100}, "kr")
	st.jobFinished(JobRecord{ID: "done-job", Key: "kd", Status: StatusOK, ElapsedMS: 12})
	text := st.Snapshot().Text()
	for _, want := range []string{"Campaign fleet", "running", "1/4", "running-job", "done-job"} {
		if !strings.Contains(text, want) {
			t.Errorf("watch text missing %q:\n%s", want, text)
		}
	}
	empty := (&StatusSnapshot{Schema: StatusSchema, ETAMS: -1}).Text()
	if !strings.Contains(empty, "(no jobs)") || !strings.Contains(empty, "n/a") {
		t.Errorf("empty snapshot text:\n%s", empty)
	}
}

// TestStatusEmptyFleetEdges pins the divide-by-zero edges: a zero-job
// fleet and a fleet with nothing completed yet must produce finite
// throughput numbers (JSON encoding rejects NaN/Inf outright) and the
// "don't know" ETA sentinel, not garbage.
func TestStatusEmptyFleetEdges(t *testing.T) {
	st := NewStatus()
	st.begin(0, 4)
	snap := st.Snapshot()
	if snap.ETAMS != -1 {
		t.Errorf("empty fleet ETA = %d, want -1", snap.ETAMS)
	}
	if snap.JobsPerSec != 0 {
		t.Errorf("empty fleet jobs/sec = %f", snap.JobsPerSec)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not JSON-encodable (NaN/Inf leak): %v", err)
	}
	if !strings.Contains(snap.Text(), "(no jobs)") {
		t.Error("zero-total progress bar missing placeholder")
	}

	// In-flight fleet, zero completed: rate unknown, ETA unknown.
	st2 := NewStatus()
	st2.begin(10, 2)
	snap2 := st2.Snapshot()
	if snap2.ETAMS != -1 || snap2.JobsPerSec != 0 {
		t.Errorf("zero-completed snapshot: eta=%d rate=%f", snap2.ETAMS, snap2.JobsPerSec)
	}
	if snap2.ElapsedP50MS != 0 || snap2.ElapsedP999MS != 0 {
		t.Errorf("percentiles nonzero with nothing finished: %+v", snap2)
	}
	if _, err := json.Marshal(snap2); err != nil {
		t.Errorf("snapshot not JSON-encodable: %v", err)
	}
}

// TestStatusAllCachedNoPercentiles: cache hits are excluded from the
// elapsed sketch, so an all-cached fleet reports zero percentiles (rather
// than near-zero noise that would read as "suspiciously fast jobs").
func TestStatusAllCachedNoPercentiles(t *testing.T) {
	st := NewStatus()
	st.begin(3, 1)
	for i := 0; i < 3; i++ {
		st.jobFinished(JobRecord{ID: fmt.Sprintf("j%d", i), Key: fmt.Sprintf("k%d", i),
			Status: StatusCached, ElapsedMS: 1})
	}
	snap := st.Snapshot()
	if snap.ElapsedP50MS != 0 || snap.ElapsedP99MS != 0 || snap.ElapsedP999MS != 0 {
		t.Errorf("cached-only percentiles: %+v", snap)
	}
	if snap.Cached != 3 || snap.Done != 3 {
		t.Errorf("accounting: %+v", snap)
	}
}

// TestStatusETANeverNegative: done overshooting total (a driver double-
// report) must clamp the ETA to zero, not extrapolate a negative one.
func TestStatusETANeverNegative(t *testing.T) {
	st := NewStatus()
	st.begin(1, 1)
	st.jobFinished(JobRecord{ID: "a", Key: "ka", Status: StatusOK, ElapsedMS: 5})
	st.jobFinished(JobRecord{ID: "b", Key: "kb", Status: StatusOK, ElapsedMS: 5})
	time.Sleep(2 * time.Millisecond) // give the run a measurable wall clock
	snap := st.Snapshot()
	if snap.ETAMS != 0 {
		t.Errorf("overshoot ETA = %d, want 0", snap.ETAMS)
	}
}

// TestStatusTextFleet renders the per-worker table for sharded sweeps.
func TestStatusTextFleet(t *testing.T) {
	snap := &StatusSnapshot{
		Schema: StatusSchema, Running: true, Total: 100, Done: 40,
		Executed: 40, ElapsedP50MS: 10, ElapsedP95MS: 20, ElapsedP99MS: 30, ElapsedP999MS: 40,
		Fleet: []WorkerStatus{
			{Name: "w0", JobsDone: 30, Leases: 1, LastSeenMS: 100, Alive: true},
			{Name: "w1", JobsDone: 10, Leases: 0, LastSeenMS: 90000, Alive: false},
		},
	}
	text := snap.Text()
	for _, want := range []string{"Fleet workers", "w0", "w1", "DEAD", "alive", "p999", "40ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet text missing %q:\n%s", want, text)
		}
	}
}
