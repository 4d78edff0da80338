package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// spanUnits maps the unit of a per-layer span metric to its duration.
var spanUnits = map[string]time.Duration{"us": time.Microsecond, "ms": time.Millisecond}

// childSpans are the per-job children of sweep.resolve_ms.
var childSpans = []string{"sweep.job_key_us", "campaign.cache_load_us", "sweep.metrics_decode_us", "sweep.agg_observe_us"}

// countingOps is how many corpus calls the observed-calls counting pass
// runs (16 per impairment).
const countingOps = 64

// runTraced is the separate traced run. It measures the workload untraced
// and then traced for half the time each (the difference is the tracing
// overhead), profiles the traced half, replays the per-job children that
// run inside the program for their spans, and sums the program's obs
// counters over a fixed set of ops.
func runTraced(cfg config) (*result, error) {
	pins, err := pinsFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := workdirFor(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w, _, err := setUp(cfg, filepath.Join(dir, "setup"))
	if err != nil {
		return nil, err
	}
	v := newVerifier(pins)
	plain, err := measure(w, v, cfg.seconds/2)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	setTracer(w, tr)
	profPath := filepath.Join(dir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	traced, err := measure(w, v, cfg.seconds/2)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	tr.ops = traced.ops()

	layer := map[string]float64{}
	for _, pm := range perLayerMetrics {
		if unit, ok := spanUnits[pm.unit]; ok {
			layer[pm.name] = tr.perOp(pm.name, unit)
		}
	}
	replay := newTracer()
	cnt := &counts{}
	counting := newTracer()
	switch w := w.(type) {
	case *sweepCold:
		if err := replay.replayStores(w); err != nil {
			return nil, err
		}
		layer["campaign.cache_store_us"] = replay.perOp("campaign.cache_store_us", time.Microsecond)
		if err := w.countPass(v, counting, cnt); err != nil {
			return nil, err
		}
	case *reportWarm:
		if err := replay.replayResolves(w, 4); err != nil {
			return nil, err
		}
		children := 0.0
		for _, name := range childSpans {
			layer[name] = replay.perOp(name, time.Microsecond)
			children += layer[name] / 1000
		}
		layer["sweep.lease_self_ms"] = layer["sweep.resolve_ms"] - children
	case *observedCalls:
		w.countPass(v, counting, cnt)
	}
	if _, ok := layer["sweep.lease_self_ms"]; !ok {
		layer["sweep.lease_self_ms"] = 0
	}
	if events := cnt.c["sim.events_executed"]; events > 0 {
		callNS := counting.total["core.dual_call_ms"] + counting.total["core.diversifi_call_ms"]
		layer["sim.host_ns_per_event"] = float64(callNS) / float64(events)
	} else {
		layer["sim.host_ns_per_event"] = 0
	}
	for k, x := range cnt.layerCounts() {
		layer[k] = x
	}

	shares, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}
	for k, x := range shares {
		layer[k] = x
	}

	plainLat, plainFailed := plain.latencies()
	tracedLat, tracedFailed := traced.latencies()
	// Process CPU time reads wrong while the CPU profiler's timers are
	// armed (the reference reads up to 2× faster), so the overhead
	// compares wall time per op.
	layer["trace_overhead_frac"] = traced.wallPerOp()/plain.wallPerOp() - 1

	failed := plainFailed + tracedFailed + cnt.failed
	res := &result{
		Correct:   failed == 0,
		Attempted: len(plainLat) + len(tracedLat) + cnt.ops,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for _, pm := range perLayerMetrics {
		x, ok := layer[pm.name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", pm.name)
		}
		res.Metrics[pm.name] = metric{x, pm.unit}
	}
	if cfg.pinsOut != "" {
		if err := writePins(cfg.pinsOut, v); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setTracer arms the workload's spans for the traced half.
func setTracer(w workload, tr *tracer) {
	switch w := w.(type) {
	case *sweepCold:
		w.tr = tr
	case *reportWarm:
		w.tr = tr
	case *observedCalls:
		w.tr = tr
	}
}

// attachObs installs reg on every simulator built until the returned
// function is called, as the CLIs' -metrics flag does.
func attachObs(reg *obs.Registry) func() {
	sim.ObsProvider = func(seed int64) *obs.Registry { return reg.WithRun(fmt.Sprintf("s%d", seed)) }
	return func() { sim.ObsProvider = nil }
}

// countPass runs every job of the grid once with a registry attached,
// timing its calls, and checks that observation left every job's Metrics
// as the unobserved passes computed them.
func (w *sweepCold) countPass(v *verifier, t *tracer, c *counts) error {
	spec, err := sweep.LoadSpec(w.specPath)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	detach := attachObs(reg)
	defer detach()
	for i := int64(0); i < spec.Total(); i++ {
		j, err := spec.JobAt(i)
		if err != nil {
			return err
		}
		m := t.runJob(j)
		c.ops++
		if !v.check(fmt.Sprintf("sweep-cold/job/%d", i), metricsDigest(m)) {
			c.failed++
		}
	}
	c.add(reg)
	return nil
}

// countPass runs the first countingOps corpus calls as ops (each with its
// own registry) and sums their counters.
func (w *observedCalls) countPass(v *verifier, t *tracer, c *counts) {
	w.tr = t
	for i := 0; i < countingOps; i++ {
		o := w.call(i % len(w.corpus))
		c.ops++
		c.add(o.reg)
		if !v.check(fmt.Sprintf("observed-calls/call/%d", o.index), callDigest(o.res)) {
			c.failed++
		}
	}
}

// profileShares charges the traced half's CPU samples to modules,
// leaving out the benchmark's own labelled work.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-tagignore", "perfbench=aux", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	samples, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	return moduleShares(samples), nil
}
