package main

import (
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// tracer records spans around the public calls through which an op enters
// each layer. Spans are monotonic wall-clock durations on the single
// driving goroutine (not reference-scaled), summed per name; a per-layer
// metric is a span's total over the ops it was recorded for. A nil tracer
// records nothing.
type tracer struct {
	total map[string]time.Duration
	ops   int
}

func newTracer() *tracer { return &tracer{total: map[string]time.Duration{}} }

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name string, t0 time.Time) {
	if t != nil {
		t.total[name] += time.Since(t0)
	}
}

// perOp returns span name's total per op in the given unit.
func (t *tracer) perOp(name string, unit time.Duration) float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.total[name]) / float64(unit) / float64(t.ops)
}

// jobProfile is the traffic profile of the paper-quick spec ("g711").
var jobProfile = traffic.G711

// runJob computes what sweep.RunJob computes, through the same public
// calls, with a span around each. The sweep-cold digests check that the
// two agree on every job.
func (t *tracer) runJob(j sweep.Job) sweep.Metrics {
	m := sweep.Metrics{
		Schema:  sweep.MetricsSchema,
		Scalars: map[string]float64{},
		Series:  map[string][]float64{},
		Poor:    map[string]bool{},
	}
	t0 := t.begin()
	sc := j.Scenario()
	t.end("sweep.job_scenario_us", t0)

	t0 = t.begin()
	d := core.RunDualCall(sc)
	t.end("core.dual_call_ms", t0)
	t0 = t.begin()
	stronger, cross := d.Stronger(), d.CrossLink()
	t.end("trace.strategy_us", t0)
	t0 = t.begin()
	qs, qc := voip.Assess(stronger, jobProfile), voip.Assess(cross, jobProfile)
	t.end("voip.assess_us", t0)
	observeQuality(&m, sweep.StrategyStronger, qs)
	observeQuality(&m, sweep.StrategyCross, qc)
	if n := d.TraceA.Len(); n > 0 {
		both := 0
		for seq := 0; seq < n; seq++ {
			if d.TraceA.Arrived(seq) && d.TraceB.Arrived(seq) {
				both++
			}
		}
		m.Scalars["cross_dup_bytes"] = float64(both) * float64(jobProfile.PacketBytes)
	}

	t0 = t.begin()
	r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	t.end("core.diversifi_call_ms", t0)
	t0 = t.begin()
	qd := voip.Assess(r.Trace, jobProfile)
	t.end("voip.assess_us", t0)
	observeQuality(&m, sweep.StrategyDiversiFi, qd)
	m.Scalars["diversifi_dup_bytes"] =
		r.WastefulRate * float64(r.Trace.Len()) * float64(jobProfile.PacketBytes)
	for _, ev := range r.Recoveries {
		m.Series["recovery_detect_ms"] = append(m.Series["recovery_detect_ms"], float64(ev.Detect)/1000)
		m.Series["recovery_switch_ms"] = append(m.Series["recovery_switch_ms"], float64(ev.Switch)/1000)
		m.Series["recovery_retrieve_ms"] = append(m.Series["recovery_retrieve_ms"], float64(ev.Retrieve)/1000)
		m.Series["recovery_total_ms"] = append(m.Series["recovery_total_ms"], float64(ev.Total)/1000)
	}
	return m
}

func observeQuality(m *sweep.Metrics, strategy string, q voip.Quality) {
	m.Scalars[strategy+"_mos"] = q.MOS
	m.Scalars[strategy+"_worst"] = q.WorstWindowLoss
	m.Scalars[strategy+"_miss_pct"] = 100 * q.LossRate
	m.Poor[strategy] = q.Poor
}

// runDiversiFi is one observed call, with a span around it when t is
// not nil.
func (t *tracer) runDiversiFi(sc core.Scenario) core.DiversiFiResult {
	t0 := t.begin()
	r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	t.end("core.diversifi_call_ms", t0)
	return r
}

// replayStores times what sweep.Runner.Do does after a cold job runs —
// encode the Metrics record and store it in the cache — for the jobs of
// the last sweep-cold pass, into a side cache so the measured path is
// left as it ran.
func (t *tracer) replayStores(w *sweepCold) error {
	side, spec, err := w.sideCache()
	if err != nil {
		return err
	}
	for _, j := range w.jobs {
		job, err := spec.JobAt(j.index)
		if err != nil {
			return err
		}
		key := job.Key()
		t0 := t.begin()
		data, err := json.Marshal(j.m)
		if err != nil {
			return err
		}
		if err := side.StoreRaw(key, data); err != nil {
			return err
		}
		t.end("campaign.cache_store_us", t0)
		t.ops++
	}
	return nil
}

// replayResolves times the per-job children of a warm RunWorker — the
// job's content key, the cache read, the Metrics decode and the fold into
// the aggregate — for n whole report-warm ops.
func (t *tracer) replayResolves(w *reportWarm, n int) error {
	for k := 0; k < n; k++ {
		spec, err := sweep.LoadSpec(w.specPath)
		if err != nil {
			return err
		}
		agg := sweep.NewAggregate()
		for i := int64(0); i < spec.Total(); i++ {
			job, err := spec.JobAt(i)
			if err != nil {
				return err
			}
			t0 := t.begin()
			key := job.Key()
			t.end("sweep.job_key_us", t0)
			t0 = t.begin()
			data, _ := w.cache.LoadRaw(key)
			t.end("campaign.cache_load_us", t0)
			t0 = t.begin()
			var m sweep.Metrics
			if err := json.Unmarshal(data, &m); err != nil {
				return err
			}
			t.end("sweep.metrics_decode_us", t0)
			t0 = t.begin()
			agg.Observe(job.CellKey(), m)
			t.end("sweep.agg_observe_us", t0)
		}
		t.ops++
	}
	return nil
}

// counts are the program's own obs counters summed over a fixed set of
// ops, so every derived ratio repeats exactly from run to run.
type counts struct {
	ops    int
	failed int
	c      map[string]int64
}

func (c *counts) add(reg *obs.Registry) {
	if c.c == nil {
		c.c = map[string]int64{}
	}
	for _, name := range countedInstruments {
		c.c[name] += reg.Counter(name).Value()
	}
}

// countedInstruments are the obs counters the per-layer counts read.
// net.drops has no instrument in the program yet (the call topologies use
// lossless wires), so it reads 0.
var countedInstruments = []string{
	"sim.events_executed",
	"phy.tx_attempts", "phy.collision_losses", "phy.noise_losses",
	"mac.frames", "mac.attempts", "mac.frame_drops",
	"ap.enqueued", "ap.queue_drops", "ap.tx_delivered", "ap.tx_wasted", "ap.tx_lost",
	"net.drops",
	"client.losses_detected", "client.recovered", "client.recovery_switches", "client.keepalive_switches",
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCounts derives the per-op and per-attempt count metrics.
func (c *counts) layerCounts() map[string]float64 {
	v := c.c
	ops := int64(c.ops)
	return map[string]float64{
		"sim.events_per_op":      ratio(v["sim.events_executed"], ops),
		"phy.tx_attempts_per_op": ratio(v["phy.tx_attempts"], ops),
		"phy.loss_frac":          ratio(v["phy.collision_losses"]+v["phy.noise_losses"], v["phy.tx_attempts"]),
		"mac.frames_per_op":      ratio(v["mac.frames"], ops),
		"mac.attempts_per_frame": ratio(v["mac.attempts"], v["mac.frames"]),
		"mac.drop_frac":          ratio(v["mac.frame_drops"], v["mac.frames"]),
		"ap.enqueued_per_op":     ratio(v["ap.enqueued"], ops),
		"ap.queue_drop_frac":     ratio(v["ap.queue_drops"], v["ap.enqueued"]),
		"ap.wasted_frac":         ratio(v["ap.tx_wasted"], v["ap.tx_delivered"]+v["ap.tx_wasted"]+v["ap.tx_lost"]),
		"net.drops_per_op":       ratio(v["net.drops"], ops),
		"client.losses_per_op":   ratio(v["client.losses_detected"], ops),
		"client.recovered_frac":  ratio(v["client.recovered"], v["client.losses_detected"]),
		"client.switches_per_op": ratio(v["client.recovery_switches"]+v["client.keepalive_switches"], ops),
	}
}
