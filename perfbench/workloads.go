package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// op is one timed operation and the verdict on its output.
type op struct {
	host  time.Duration
	ok    bool
	ref   float64 // ns of the reference call timed right after the op
	scale float64 // R0/R for this op (measurement.scaleOps)
}

// workload is one named benchmark workload, driven by a closed loop with a
// single goroutine: the next op starts only when the previous one is done.
type workload interface {
	// setUp prepares the workload from scratch under dir: spec load,
	// corpus draw, cache fill and a fixed warm-up. It is timed as set-up.
	setUp(dir string) error
	// window runs one measurement window of ops, timing each op.
	window() error
	// check verifies the outputs of the window just run, outside the
	// timed region, and returns its ops.
	check(v *verifier) []op
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlSweepCold     = "sweep-cold"
	wlReportWarm    = "report-warm"
	wlObservedCalls = "observed-calls"
)

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case wlSweepCold:
		return &sweepCold{seed: seed}, nil
	case wlReportWarm:
		return &reportWarm{seed: seed}, nil
	case wlObservedCalls:
		return &observedCalls{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, %s, %s)",
		name, wlSweepCold, wlReportWarm, wlObservedCalls)
}

// writeSpec writes the frozen paper-quick spec with its seed axis moved by
// the benchmark seed: seed 1 is the spec as committed (and reproduces its
// fingerprint); seed n starts the 8-seed range at 8(n-1)+1, so different
// benchmark seeds draw disjoint calls.
func writeSpec(dir string, seed int64) (string, error) {
	var doc map[string]any
	if err := json.Unmarshal(paperQuickSpec, &doc); err != nil {
		return "", fmt.Errorf("frozen spec: %w", err)
	}
	doc["seeds"] = map[string]int64{"start": 8*(seed-1) + 1, "count": 8}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "paper-quick.json")
	return path, os.WriteFile(path, data, 0o644)
}

// metricsDigest is the digest of one job's Metrics record, in the same
// encoding the sweep cache stores.
func metricsDigest(m sweep.Metrics) string {
	m.Schema = sweep.MetricsSchema
	data, err := json.Marshal(m)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digest(data)
}

// sweepCold: one op is one job of the paper-quick sweep, resolved through
// the user path (LoadSpec → NewCoordinator → RunWorker over
// LocalTransport) into an empty cache that it writes. One window is one
// full pass over the grid into a fresh cache.
type sweepCold struct {
	seed     int64
	tr       *tracer
	dir      string
	specPath string
	pass     int

	jobs []jobOut // the window's executed jobs
	sum  *sweep.Summary
}

type jobOut struct {
	index int64
	host  time.Duration
	ref   float64
	m     sweep.Metrics
}

// sweepWarmupJobs is how many jobs set-up runs untimed.
const sweepWarmupJobs = 16

func (w *sweepCold) setUp(dir string) error {
	w.dir = dir
	path, err := writeSpec(dir, w.seed)
	if err != nil {
		return err
	}
	w.specPath = path
	spec, err := sweep.LoadSpec(path)
	if err != nil {
		return err
	}
	for i := int64(0); i < sweepWarmupJobs; i++ {
		j, err := spec.JobAt(i * spec.Seeds.Count % spec.Total())
		if err != nil {
			return err
		}
		sweep.RunJob(j)
	}
	return nil
}

func (w *sweepCold) window() error {
	w.pass++
	w.jobs = w.jobs[:0]
	cache, err := campaign.OpenCache(filepath.Join(w.dir, fmt.Sprintf("cache-%d", w.pass)))
	if err != nil {
		return err
	}
	spec, err := sweep.LoadSpec(w.specPath)
	if err != nil {
		return err
	}
	coord := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{})
	runner := &sweep.Runner{Cache: cache, RunFunc: w.runJob}
	if _, err := sweep.RunWorker(sweep.LocalTransport{C: coord}, runner,
		sweep.WorkerOptions{Name: "perfbench", Parallel: 1}); err != nil {
		return err
	}
	w.sum = coord.Summary()
	return nil
}

// runJob is the Runner.RunFunc wrapper that times each job.
func (w *sweepCold) runJob(j sweep.Job) sweep.Metrics {
	t0 := cpuNow()
	var m sweep.Metrics
	if w.tr != nil {
		m = w.tr.runJob(j)
	} else {
		m = sweep.RunJob(j)
	}
	host := cpuNow() - t0
	w.jobs = append(w.jobs, jobOut{index: j.Index, host: host, ref: refCall(), m: m})
	return m
}

// sideCache opens an empty cache beside the measured ones, and the spec,
// for the traced run's store replay.
func (w *sweepCold) sideCache() (*campaign.Cache, *sweep.Spec, error) {
	spec, err := sweep.LoadSpec(w.specPath)
	if err != nil {
		return nil, nil, err
	}
	cache, err := campaign.OpenCache(filepath.Join(w.dir, "side-cache"))
	return cache, spec, err
}

func (w *sweepCold) check(v *verifier) []op {
	passOK := v.check("sweep-cold/fingerprint", w.sum.Fingerprint) &&
		w.sum.Failed == 0 && w.sum.Done == w.sum.TotalJobs &&
		int64(len(w.jobs)) == w.sum.TotalJobs
	ops := make([]op, w.sum.TotalJobs) // a job that panicked never returned: failed
	for i, j := range w.jobs {
		ok := v.check(fmt.Sprintf("sweep-cold/job/%d", j.index), metricsDigest(j.m))
		ops[i] = op{host: j.host, ok: ok && passOK, ref: j.ref}
	}
	// A cache left behind costs only disk; the run's directory goes at exit.
	_ = os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("cache-%d", w.pass)))
	return ops
}

// reportWarm: one op re-renders the paper artifact from the cache set-up
// filled — what re-running `experiments sweep` does: LoadSpec →
// coordinator → RunWorker (every job a cache read) → Summary → Report →
// Text.
type reportWarm struct {
	seed     int64
	tr       *tracer
	specPath string
	cache    *campaign.Cache

	outs []reportOut
}

type reportOut struct {
	host    time.Duration
	ref     float64
	fp      string
	text    string
	cached  int64
	total   int64
	renders bool
}

// reportBatch is how many ops one window runs.
const reportBatch = 16

func (w *reportWarm) setUp(dir string) error {
	path, err := writeSpec(dir, w.seed)
	if err != nil {
		return err
	}
	w.specPath = path
	if w.cache, err = campaign.OpenCache(filepath.Join(dir, "cache")); err != nil {
		return err
	}
	spec, err := sweep.LoadSpec(path)
	if err != nil {
		return err
	}
	coord := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{})
	if _, err := sweep.RunWorker(sweep.LocalTransport{C: coord}, &sweep.Runner{Cache: w.cache},
		sweep.WorkerOptions{Name: "perfbench-fill", Parallel: 1}); err != nil {
		return err
	}
	if sum := coord.Summary(); sum.Failed != 0 || sum.Executed != sum.TotalJobs {
		return fmt.Errorf("report-warm: cache fill executed %d of %d jobs, %d failed",
			sum.Executed, sum.TotalJobs, sum.Failed)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.render(); err != nil {
			return err
		}
	}
	return nil
}

// render is one op.
func (w *reportWarm) render() (reportOut, error) {
	t0 := cpuNow()
	spec, err := sweep.LoadSpec(w.specPath)
	if err != nil {
		return reportOut{}, err
	}
	coord := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{})
	runner := &sweep.Runner{Cache: w.cache}
	t1 := w.tr.begin()
	if _, err := sweep.RunWorker(sweep.LocalTransport{C: coord}, runner,
		sweep.WorkerOptions{Name: "perfbench", Parallel: 1}); err != nil {
		return reportOut{}, err
	}
	w.tr.end("sweep.resolve_ms", t1)
	t1 = w.tr.begin()
	sum := coord.Summary()
	w.tr.end("sweep.summary_ms", t1)
	out := reportOut{fp: sum.Fingerprint, cached: sum.Cached, total: sum.TotalJobs}
	t1 = w.tr.begin()
	if rep, err := sum.Report(); err == nil {
		out.text, out.renders = rep.Text(), true
	}
	w.tr.end("sweep.report_ms", t1)
	out.host = cpuNow() - t0
	return out, nil
}

func (w *reportWarm) window() error {
	w.outs = w.outs[:0]
	for i := 0; i < reportBatch; i++ {
		out, err := w.render()
		if err != nil {
			return err
		}
		out.ref = refCall()
		w.outs = append(w.outs, out)
	}
	return nil
}

func (w *reportWarm) check(v *verifier) []op {
	ops := make([]op, len(w.outs))
	for i, o := range w.outs {
		ok := o.renders && o.cached == o.total
		ok = v.check("report-warm/fingerprint", o.fp) && ok
		ok = v.check("report-warm/text", digest([]byte(o.text))) && ok
		ops[i] = op{host: o.host, ok: ok, ref: o.ref}
	}
	return ops
}

// observedCalls: one op is one 120 s custom-AP DiversiFi call with an
// obs.Registry and a 1 s obs.Series attached through sim.ObsProvider, as
// the -metrics -series flags attach them. Calls cycle through a corpus
// drawn from the seed over the four impairments.
type observedCalls struct {
	seed   int64
	tr     *tracer
	corpus []core.Scenario
	next   int

	outs []callOut
}

type callOut struct {
	index int
	host  time.Duration
	ref   float64
	res   core.DiversiFiResult
	reg   *obs.Registry
}

const (
	// observedCorpus is the number of distinct calls a run cycles over:
	// large enough that the median call of one seed's corpus is close to
	// every other seed's.
	observedCorpus = 512
	// observedBatch is how many calls one window runs.
	observedBatch = 16
	// observedWarmup is how many calls set-up runs untimed.
	observedWarmup = 16
)

var observedImpairments = []core.Impairment{
	core.ImpWeakLink, core.ImpMobility, core.ImpMicrowave, core.ImpCongestion,
}

func (w *observedCalls) setUp(string) error {
	w.corpus = make([]core.Scenario, observedCorpus)
	for i := range w.corpus {
		r := rng.Named(w.seed, fmt.Sprintf("perfbench/observed-calls/%d", i))
		callSeed := int64(r.Uint64() >> 1)
		w.corpus[i] = core.RandomScenario(r, observedImpairments[i%len(observedImpairments)],
			traffic.G711, callSeed)
	}
	for i := 0; i < observedWarmup; i++ {
		w.call(i)
	}
	w.next = 0
	return nil
}

// call runs corpus call i as one op.
func (w *observedCalls) call(i int) callOut {
	t0 := cpuNow()
	reg := obs.NewRegistry()
	reg.SetSeries(obs.NewSeries(reg, obs.DefaultSeriesWindowUS))
	detach := attachObs(reg)
	res := w.tr.runDiversiFi(w.corpus[i])
	detach()
	return callOut{index: i, host: cpuNow() - t0, res: res, reg: reg}
}

func (w *observedCalls) window() error {
	w.outs = w.outs[:0]
	for k := 0; k < observedBatch; k++ {
		out := w.call(w.next)
		out.ref = refCall()
		w.outs = append(w.outs, out)
		w.next = (w.next + 1) % len(w.corpus)
	}
	return nil
}

func (w *observedCalls) check(v *verifier) []op {
	ops := make([]op, len(w.outs))
	for k, o := range w.outs {
		ok := v.check(fmt.Sprintf("observed-calls/call/%d", o.index), callDigest(o.res))
		ops[k] = op{host: o.host, ok: ok, ref: o.ref}
	}
	return ops
}

// callDigest digests a DiversiFi call's received trace (every packet's
// arrival time) and its recovery events.
func callDigest(r core.DiversiFiResult) string {
	if r.Trace == nil {
		return "no trace"
	}
	buf := make([]byte, 0, 8*(r.Trace.Len()+4*len(r.Recoveries)+1))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Trace.Len()))
	for seq := 0; seq < r.Trace.Len(); seq++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Trace.ArrivalTime(seq)))
	}
	for _, ev := range r.Recoveries {
		for _, d := range []sim.Duration{ev.Detect, ev.Switch, ev.Retrieve, ev.Total} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
		}
	}
	return digest(buf)
}
