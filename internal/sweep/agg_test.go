package sweep

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs/flight"
	"repro/internal/sim/rng"
)

// synthMetrics derives deterministic fake metrics from a job — the full v2
// keyed metric set, cheap enough to run a 10^5-job sweep in-process.
func synthMetrics(j Job) Metrics {
	r := rng.New(j.Seed*7919 + int64(len(j.CellKey())))
	m := Metrics{
		Schema:  MetricsSchema,
		Scalars: map[string]float64{},
		Series:  map[string][]float64{},
		Poor:    map[string]bool{},
	}
	mos := map[string]float64{StrategyStronger: 2.0 + 2.5*r.Float64()}
	mos[StrategyCross] = math.Min(5, mos[StrategyStronger]+0.8*r.Float64())
	mos[StrategyDiversiFi] = math.Min(5, mos[StrategyStronger]+0.6*r.Float64())
	for _, strat := range Strategies() {
		m.Scalars[metricKey(strat, "mos")] = mos[strat]
		m.Scalars[metricKey(strat, "worst")] = 0.3 * r.Float64()
		m.Scalars[metricKey(strat, "miss_pct")] = 10 * r.Float64()
		m.Poor[strat] = mos[strat] < 3.0
	}
	m.Scalars["cross_dup_bytes"] = 1e6 * r.Float64()
	m.Scalars["diversifi_dup_bytes"] = 2e3 * r.Float64()
	for k := r.Intn(4); k > 0; k-- {
		detect, sw, retr := 20*r.Float64(), 2.3, 5*r.Float64()
		m.Series["recovery_detect_ms"] = append(m.Series["recovery_detect_ms"], detect)
		m.Series["recovery_switch_ms"] = append(m.Series["recovery_switch_ms"], sw)
		m.Series["recovery_retrieve_ms"] = append(m.Series["recovery_retrieve_ms"], retr)
		m.Series["recovery_total_ms"] = append(m.Series["recovery_total_ms"], sw+retr)
	}
	return m
}

// mkMetrics builds a hand-specified record for summary-math tests.
func mkMetrics(mos map[string]float64, poor map[string]bool, dupBytes float64) Metrics {
	m := Metrics{
		Schema:  MetricsSchema,
		Scalars: map[string]float64{},
		Series:  map[string][]float64{},
		Poor:    map[string]bool{},
	}
	for strat, v := range mos {
		m.Scalars[metricKey(strat, "mos")] = v
	}
	for strat, p := range poor {
		m.Poor[strat] = p
	}
	m.Scalars["diversifi_dup_bytes"] = dupBytes
	return m
}

func synthSpec(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSequential executes the whole stream single-threaded into one aggregate.
func runSequential(t *testing.T, s *Spec, r *Runner) *Aggregate {
	t.Helper()
	agg := NewAggregate()
	for i := int64(0); i < s.Total(); i++ {
		j, err := s.JobAt(i)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := r.Do(j)
		if err != nil {
			agg.ObserveFailure(j.CellKey())
			continue
		}
		agg.Observe(j.CellKey(), m)
	}
	return agg
}

// TestMergeOrderIndependent: splitting the stream into shards and merging
// in any order must fingerprint identically to the sequential run — across
// the full multi-metric set, series sketches included.
func TestMergeOrderIndependent(t *testing.T) {
	s := synthSpec(t, `{"name":"m","seeds":{"count":40},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical","sparse"]}`)
	r := &Runner{RunFunc: synthMetrics}
	want := runSequential(t, s, r).Fingerprint()

	// Shard into 7 interleaved pieces, merge in reverse order.
	shards := make([]*Aggregate, 7)
	for i := range shards {
		shards[i] = NewAggregate()
	}
	for i := int64(0); i < s.Total(); i++ {
		j, _ := s.JobAt(i)
		m, _, _ := r.Do(j)
		shards[i%7].Observe(j.CellKey(), m)
	}
	merged := NewAggregate()
	for i := len(shards) - 1; i >= 0; i-- {
		if err := merged.Merge(shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := merged.Fingerprint(); got != want {
		t.Errorf("sharded fingerprint %s != sequential %s", got, want)
	}
	if merged.Jobs() != s.Total() {
		t.Errorf("merged %d jobs, want %d", merged.Jobs(), s.Total())
	}
}

// TestMergeJSONRoundTrip: an aggregate survives the wire (canonical JSON)
// with its fingerprint intact — what /sweep/complete depends on.
func TestMergeJSONRoundTrip(t *testing.T) {
	s := synthSpec(t, `{"name":"rt","seeds":{"count":10},
		"impairments":["mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	agg := runSequential(t, s, &Runner{RunFunc: synthMetrics})
	data, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	var back Aggregate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != agg.Fingerprint() {
		t.Error("fingerprint changed across JSON round-trip")
	}
}

// TestElapsedExcludedFromFingerprint: timing is telemetry.
func TestElapsedExcludedFromFingerprint(t *testing.T) {
	a, b := NewAggregate(), NewAggregate()
	m := mkMetrics(map[string]float64{StrategyStronger: 3, StrategyCross: 4}, nil, 0)
	a.Observe("c/pc/dense", m)
	b.Observe("c/pc/dense", m)
	a.ObserveElapsed(12.5)
	b.ObserveElapsed(9999)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("elapsed times leaked into the fingerprint")
	}
}

// TestSummarizeCells checks the per-cell report math on a hand-built aggregate.
func TestSummarizeCells(t *testing.T) {
	s := synthSpec(t, `{"name":"sum","seeds":{"count":1},
		"impairments":["mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	agg := NewAggregate()
	key := "mobility/pc/typical"
	for i := 0; i < 100; i++ {
		agg.Observe(key, mkMetrics(
			map[string]float64{StrategyStronger: 3.5, StrategyCross: 4.2, StrategyDiversiFi: 4.2},
			map[string]bool{
				StrategyStronger:  i < 30, // 30% PCR
				StrategyCross:     i < 2,  // 2% PCR
				StrategyDiversiFi: i < 3,  // 3% PCR
			}, 512))
	}
	sum := Summarize(s, agg)
	if len(sum.Cells) != 1 {
		t.Fatalf("%d cells", len(sum.Cells))
	}
	c := sum.Cells[0]
	if c.Impairment != "mobility" || c.Device != "pc" || c.Density != "typical" {
		t.Errorf("cell parsed as %s/%s/%s", c.Impairment, c.Device, c.Density)
	}
	if c.PCR[StrategyStronger] != 30 || c.PCR[StrategyCross] != 2 || c.PCR[StrategyDiversiFi] != 3 {
		t.Errorf("PCR %v, want 30 / 2 / 3", c.PCR)
	}
	if math.Abs(c.Improvement-10) > 1e-9 {
		t.Errorf("improvement %.2f, want 10", c.Improvement)
	}
	if math.Abs(c.Mean("diversifi_dup_bytes")-512) > 1e-9 {
		t.Errorf("dup mean %.3f", c.Mean("diversifi_dup_bytes"))
	}
	// 1% sketch error bound on a point mass at 4.2.
	if math.Abs(c.Quantile("diversifi_mos", 0.50)-4.2) > 0.042 {
		t.Errorf("diversifi MOS p50 %.3f", c.Quantile("diversifi_mos", 0.50))
	}
	if sum.Done != 100 || sum.Failed != 0 {
		t.Errorf("done/failed %d/%d", sum.Done, sum.Failed)
	}
	if sum.Fingerprint != agg.Fingerprint() {
		t.Error("summary fingerprint mismatch")
	}
	// The paper call shape: G.711 at 120 s is 6000 packets of 160 bytes.
	if sum.CallPackets != 6000 || sum.CallBytes != 6000*160 {
		t.Errorf("call shape %d pkts / %d bytes", sum.CallPackets, sum.CallBytes)
	}
	txt := sum.Text()
	if !strings.Contains(txt, "mobility") || !strings.Contains(txt, "10.0x") {
		t.Errorf("Text missing expected content:\n%s", txt)
	}
}

// TestRunnerCache: second Do of the same job must hit the shared cache, and
// a corrupted entry must be evicted and re-executed, not trusted.
func TestRunnerCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	r := &Runner{Cache: cache, RunFunc: func(j Job) Metrics {
		calls++
		return synthMetrics(j)
	}}
	s := synthSpec(t, `{"name":"c","seeds":{"count":1},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["dense"]}`)
	j, _ := s.JobAt(0)

	m1, cached, err := r.Do(j)
	if err != nil || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	m2, cached, err := r.Do(j)
	if err != nil || !cached {
		t.Fatalf("second Do: cached=%v err=%v", cached, err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("cache returned different metrics")
	}
	if calls != 1 {
		t.Errorf("RunFunc called %d times", calls)
	}

	if err := cache.StoreRaw(j.Key(), []byte("not json")); err != nil {
		t.Fatal(err)
	}
	_, cached, err = r.Do(j)
	if err != nil || cached {
		t.Fatalf("corrupt entry: cached=%v err=%v", cached, err)
	}
	if calls != 2 {
		t.Errorf("corrupt entry not re-executed (calls=%d)", calls)
	}

	// A v1-era record (stale schema) is evicted and re-executed, not
	// misread into the v2 layout.
	if err := cache.StoreRaw(j.Key(), []byte(`{"schema":"sweep-metrics-v1","stronger_mos":4}`)); err != nil {
		t.Fatal(err)
	}
	_, cached, err = r.Do(j)
	if err != nil || cached {
		t.Fatalf("stale-schema entry: cached=%v err=%v", cached, err)
	}
	if calls != 3 {
		t.Errorf("stale-schema entry not re-executed (calls=%d)", calls)
	}
}

// TestRunnerRecoversPanic: one pathological grid point becomes a failed
// job, not a dead worker, and its error names the job and carries the
// flight dump path.
func TestRunnerRecoversPanic(t *testing.T) {
	dir := t.TempDir()
	r := &Runner{RunFunc: func(Job) Metrics { panic("boom") },
		Flight: flight.New(8), FlightDir: dir}
	s := synthSpec(t, `{"name":"p","seeds":{"count":1},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["dense"]}`)
	j, _ := s.JobAt(0)
	_, _, err := r.Do(j)
	want := "job 0 (none/pc/dense seed 0): panic: boom\nflight dump: " +
		filepath.Join(dir, "flight-panic-job-0.jsonl") + "\n"
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("panic error %q, want prefix %q", err, want)
	}
}

// TestRunJobReal runs two real simulator jobs (short calls) and sanity-
// checks the metric ranges — the only test that touches the hot path.
func TestRunJobReal(t *testing.T) {
	s := synthSpec(t, `{"name":"real","seeds":{"count":2},"duration_s":5,
		"impairments":["weak-link"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	for i := int64(0); i < 2; i++ {
		j, _ := s.JobAt(i)
		m := RunJob(j)
		for _, strat := range Strategies() {
			mos := m.Scalars[metricKey(strat, "mos")]
			if mos < 1 || mos > 5 {
				t.Errorf("job %d: %s MOS out of range: %v", i, strat, mos)
			}
			if _, ok := m.Poor[strat]; !ok {
				t.Errorf("job %d: no poor verdict for %s", i, strat)
			}
		}
		if dup := m.Scalars["cross_dup_bytes"]; dup < 0 {
			t.Errorf("job %d: cross dup bytes %f", i, dup)
		}
		// Every scalar/series key must come from the canonical table.
		for k := range m.Scalars {
			if d, ok := MetricDefByKey(k); !ok || d.Kind != KindScalar {
				t.Errorf("job %d: unknown or mis-kinded scalar key %q", i, k)
			}
		}
		for k := range m.Series {
			if d, ok := MetricDefByKey(k); !ok || d.Kind != KindSeries {
				t.Errorf("job %d: unknown or mis-kinded series key %q", i, k)
			}
		}
		// The recovery component series stay mutually consistent.
		if len(m.Series["recovery_total_ms"]) != len(m.Series["recovery_switch_ms"]) {
			t.Errorf("job %d: recovery series lengths diverge", i)
		}
		for k, tot := range m.Series["recovery_total_ms"] {
			sum := m.Series["recovery_switch_ms"][k] + m.Series["recovery_retrieve_ms"][k]
			if math.Abs(tot-sum) > 1e-9 {
				t.Errorf("job %d: recovery %d total %.3f != switch+retrieve %.3f", i, k, tot, sum)
			}
		}
		m2 := RunJob(j)
		if !reflect.DeepEqual(m, m2) {
			t.Errorf("job %d not deterministic: %+v vs %+v", i, m, m2)
		}
	}
}
