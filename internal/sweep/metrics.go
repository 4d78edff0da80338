package sweep

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs/flight"
	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/voip"
)

// MetricsSchema versions cached per-job metric records. v2 widened the
// record from a fixed stronger/cross field pair to the keyed metric set of
// metrickeys.go (three strategies, duplication bytes, recovery-delay
// decomposition); v1 cache entries fail the schema check and re-execute.
const MetricsSchema = "sweep-metrics-v2"

// Metrics is one job's outcome: the population-level quality signals of a
// single simulated call under all three strategies (stronger-link
// selection, cross-link replication, DiversiFi). Scalars and Series are
// keyed by the canonical metric table (MetricKeys); Poor by strategy name.
// This is the unit the per-cell sketches aggregate — per-job records are
// never retained beyond this struct's lifetime.
type Metrics struct {
	Schema string `json:"schema"`

	// Scalars holds one observation per KindScalar metric.
	Scalars map[string]float64 `json:"scalars"`
	// Series holds zero or more observations per KindSeries metric (the
	// recovery-delay components: one entry per recovery episode).
	Series map[string][]float64 `json:"series,omitempty"`
	// Poor flags the poor-call verdict (MOS < threshold) per strategy.
	Poor map[string]bool `json:"poor"`
}

// valid reports whether a decoded record is structurally usable.
func (m Metrics) valid() bool {
	return m.Schema == MetricsSchema && m.Scalars != nil && m.Poor != nil
}

// RunJob executes one sweep job on the real simulator: draw the scenario
// for the job's grid cell, run the two-NIC dual call (assessing both the
// stronger-selection and cross-link-replication receivers), then replay the
// same scenario through the single-NIC DiversiFi client (custom-AP mode)
// for the paper's strategy, including its per-recovery delay decomposition.
func RunJob(j Job) Metrics {
	sc := j.Scenario()
	profile := profiles[j.spec.Profile]
	m := Metrics{
		Schema:  MetricsSchema,
		Scalars: map[string]float64{},
		Series:  map[string][]float64{},
		Poor:    map[string]bool{},
	}

	d := core.RunDualCall(sc)
	observeQuality(&m, StrategyStronger, voip.Assess(d.Stronger(), profile))
	observeQuality(&m, StrategyCross, voip.Assess(d.CrossLink(), profile))

	// Cross-link duplication cost: every packet delivered on both links
	// bought airtime without buying recovery.
	if n := d.TraceA.Len(); n > 0 {
		both := 0
		for seq := 0; seq < n; seq++ {
			if d.TraceA.Arrived(seq) && d.TraceB.Arrived(seq) {
				both++
			}
		}
		m.Scalars[metricKey(StrategyCross, "dup_bytes")] =
			float64(both) * float64(profile.PacketBytes)
	}

	r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	observeQuality(&m, StrategyDiversiFi, voip.Assess(r.Trace, profile))
	m.Scalars[metricKey(StrategyDiversiFi, "dup_bytes")] =
		r.WastefulRate * float64(r.Trace.Len()) * float64(profile.PacketBytes)
	for _, ev := range r.Recoveries {
		m.Series["recovery_detect_ms"] = append(m.Series["recovery_detect_ms"], toMS(ev.Detect))
		m.Series["recovery_switch_ms"] = append(m.Series["recovery_switch_ms"], toMS(ev.Switch))
		m.Series["recovery_retrieve_ms"] = append(m.Series["recovery_retrieve_ms"], toMS(ev.Retrieve))
		m.Series["recovery_total_ms"] = append(m.Series["recovery_total_ms"], toMS(ev.Total))
	}
	return m
}

// observeQuality folds one receiver's assessed call quality into the
// strategy's scalar metrics and poor-call flag.
func observeQuality(m *Metrics, strategy string, q voip.Quality) {
	m.Scalars[metricKey(strategy, "mos")] = q.MOS
	m.Scalars[metricKey(strategy, "worst")] = q.WorstWindowLoss
	m.Scalars[metricKey(strategy, "miss_pct")] = 100 * q.LossRate
	m.Poor[strategy] = q.Poor
}

func toMS(d sim.Duration) float64 { return float64(d) / 1000 }

// Scenario materializes the job's simulated call: the cell picks the
// impairment class, the device class the MIMO order, the AP density the
// impairment severity, and the job's content key seeds both the scenario
// draw and the call's in-simulator randomness.
//
// Scenario-axis jobs instead compile scenario ScenarioIndex of the
// embedded scenario-v1 spec — geometry, link parameters, and impairment
// knobs all come from the generator — and only the call's in-simulator
// seed varies along the seed axis.
func (j Job) Scenario() core.Scenario {
	if j.spec.scn != nil {
		sc := j.spec.scn.Generate(int(j.ScenarioIndex)).Scenario
		_, callSeed := j.seeds()
		sc.Seed = callSeed
		return sc
	}
	scenarioSeed, callSeed := j.seeds()
	sev := j.spec.Severity * densityByName(j.Density).Severity
	sc := core.RandomScenarioSeverity(rng.New(scenarioSeed), impairments[j.Impairment],
		profiles[j.spec.Profile], callSeed, sev)
	sc.Duration = sim.FromSeconds(j.spec.DurationS)
	return sc.WithMIMO(deviceByName(j.Device).MIMOOrder)
}

// Runner resolves jobs through the shared content-addressed cache and
// executes misses. RunFunc defaults to RunJob; tests and synthetic
// benchmarks substitute a cheap metric generator.
type Runner struct {
	RunFunc func(Job) Metrics
	Cache   *campaign.Cache // nil disables caching

	// Flight, when non-nil, is dumped to FlightDir when a job panics, so
	// the postmortem carries the lifecycle events leading up to the crash.
	Flight    *flight.Recorder
	FlightDir string
}

// Do resolves one job: cache hit, or execute + store. A panic in the
// simulator becomes the job's error (campaign.Guard: the goroutine stack
// and the flight-recorder dump path), so one pathological grid point
// cannot take down a worker, and the panic stays diagnosable after the
// fact. A cached record that fails to decode or carries a stale schema is
// evicted and re-executed.
func (r *Runner) Do(j Job) (m Metrics, cached bool, err error) {
	key := j.Key()
	if r.Cache.LoadJSON(key, &m, func() bool { return m.valid() }) {
		return m, true, nil
	}
	m = Metrics{}
	run := r.RunFunc
	if run == nil {
		run = RunJob
	}
	guard := campaign.Guard{Flight: r.Flight, Dir: r.FlightDir}
	if err = guard.Run(func() string { return fmt.Sprintf("panic-job-%d", j.Index) },
		func() { m = run(j) }); err != nil {
		return Metrics{}, false, fmt.Errorf("job %d (%s seed %d): %w", j.Index, j.CellKey(), j.Seed, err)
	}
	m.Schema = MetricsSchema
	// A cache write failure degrades re-run speed, not correctness.
	_ = r.Cache.StoreJSON(key, &m)
	return m, false, nil
}
