// Command perfbench is the repository's benchmark. It drives one named
// workload through the program's public API in a closed loop with one
// goroutine, checks every op's output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON line:
//
//	perfbench --workload sweep-cold --seed 1 --seconds 25 --trace 0
//
// NOTES.md explains the workloads, the metrics and the host clock.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/perfbench/ref"
)

//go:embed specs/paper-quick.json
var paperQuickSpec []byte

//go:embed pins.json
var pinsJSON []byte

const (
	// defaultSeed reproduces the committed pins.
	defaultSeed = 1
	// minOps is the fewest ops a measurement takes, so that at least
	// minTail samples lie beyond op_ms_p95.
	minOps = 200
	// refPinNS is R0, the reference workload's median host time per call
	// when the benchmark was defined (2 vCPU Xeon @ 2.10GHz, go1.24). An
	// op's host time is reported as raw × R0/R, R being the median of the
	// reference calls timed right after its neighbouring ops.
	refPinNS = 3.25e5
	// refNeighbours is how many ops on each side of an op lend it their
	// reference calls: host speed moves on millisecond scales, so one call
	// is noisy, but it stays put over the tens of milliseconds 21 ops take.
	refNeighbours = 10
	// setupRefCalls is how many reference calls are timed on either side
	// of a set-up (about 30 ms).
	setupRefCalls = 101
	// failedMS stands in for the latency of a failed op, which counts as
	// missing every latency limit (JSON has no infinity).
	failedMS = 1e9
)

// setupRuns is how many times a workload sets up from scratch in one
// untraced run; setup_s is their median.
var setupRuns = map[string]int{wlSweepCold: 5, wlReportWarm: 5, wlObservedCalls: 7}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", wlSweepCold, "workload: sweep-cold, report-warm or observed-calls")
	seed := flag.Int64("seed", defaultSeed, "input seed; the default reproduces the committed pins")
	seconds := flag.Float64("seconds", 25, "measurement time in seconds")
	traceMode := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for caches and profiles")
	pinsOut := flag.String("pins-out", "", "write the run's checked digests to this file (to regenerate pins.json)")
	flag.Parse()

	cfg := config{name: *workloadName, seed: *seed, seconds: *seconds, workdir: *workdir, pinsOut: *pinsOut}
	var res *result
	var err error
	if *traceMode == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type config struct {
	name    string
	seed    int64
	seconds float64
	workdir string
	pinsOut string
}

// pinsFor returns the pinned digests that apply to a run: all of them at
// the default seed, none otherwise (other seeds check each op against its
// own first execution).
func pinsFor(seed int64) (map[string]string, error) {
	pins := map[string]string{}
	if seed != defaultSeed {
		return pins, nil
	}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// auxCtx carries the label that marks the benchmark's own work (reference
// calls, output checks, forced collections), so the traced run's profile
// can leave it out; opCtx carries no labels.
var auxCtx, opCtx = pprof.WithLabels(context.Background(), pprof.Labels("perfbench", "aux")), context.Background()

// aux runs the benchmark's own work under the aux label.
func aux(fn func()) {
	pprof.SetGoroutineLabels(auxCtx)
	fn()
	pprof.SetGoroutineLabels(opCtx)
}

// refCall times one call of the frozen reference workload, in ns. Ops
// call it right after they finish, outside their own timing.
func refCall() float64 {
	pprof.SetGoroutineLabels(auxCtx)
	t0 := cpuNow()
	if ref.Work() == 0 {
		panic("reference workload returned a zero checksum")
	}
	ns := float64(cpuNow() - t0)
	pprof.SetGoroutineLabels(opCtx)
	return ns
}

// refMedian times n reference calls and returns their median.
func refMedian(n int) float64 {
	ns := make([]float64, n)
	for i := range ns {
		ns[i] = refCall()
	}
	return median(ns)
}

// refAllocs measures what one reference call allocates (it allocates the
// same on every call), so the allocation metrics can leave it out.
func refAllocs() (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	refCall()
	runtime.ReadMemStats(&before)
	const n = 8
	for i := 0; i < n; i++ {
		refCall()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// window is one measured window: its ops, its wall time and its peak
// resident set.
type window struct {
	ops  []op
	wall time.Duration
	rss  float64 // MB
}

// measurement is one measured loop.
type measurement struct {
	windows    []window
	mallocs    uint64
	allocBytes uint64
}

func (m *measurement) ops() int {
	n := 0
	for _, w := range m.windows {
		n += len(w.ops)
	}
	return n
}

// measure runs windows until both the time budget is spent and at least
// minOps ops were measured. Each window starts from a collected heap.
func measure(w workload, v *verifier, seconds float64) (*measurement, error) {
	m := &measurement{}
	refMallocs, refBytes := refAllocs()
	var before, after runtime.MemStats
	start := time.Now()
	for time.Since(start).Seconds() < seconds || m.ops() < minOps {
		var err error
		aux(func() {
			runtime.GC()
			runtime.ReadMemStats(&before)
			err = resetPeakRSS()
		})
		if err != nil {
			return nil, err
		}
		wall0 := time.Now()
		if err := w.window(); err != nil {
			return nil, err
		}
		wall := time.Since(wall0)
		var ops []op
		var rss float64
		aux(func() {
			rss, err = peakRSSMB()
			runtime.ReadMemStats(&after)
			ops = w.check(v)
		})
		if err != nil {
			return nil, err
		}
		// Every op was followed by one reference call; its allocations
		// are the benchmark's, not the program's.
		n := uint64(len(ops))
		m.mallocs += after.Mallocs - before.Mallocs - n*refMallocs
		m.allocBytes += after.TotalAlloc - before.TotalAlloc - n*refBytes
		m.windows = append(m.windows, window{ops: ops, wall: wall, rss: rss})
	}
	m.scaleOps()
	return m, nil
}

// scaleOps sets every op's factor R0/R, R being the median reference time
// over the op and its refNeighbours neighbours on each side, in the order
// the ops ran.
func (m *measurement) scaleOps() {
	var all []*op
	for wi := range m.windows {
		for oi := range m.windows[wi].ops {
			all = append(all, &m.windows[wi].ops[oi])
		}
	}
	near := make([]float64, 0, 2*refNeighbours+1)
	for i, o := range all {
		near = near[:0]
		for j := max(0, i-refNeighbours); j <= min(len(all)-1, i+refNeighbours); j++ {
			near = append(near, all[j].ref)
		}
		o.scale = refPinNS / median(near)
	}
}

// wallPerOp is the median over windows of wall time per op, in seconds.
func (m *measurement) wallPerOp() float64 {
	var xs []float64
	for _, w := range m.windows {
		xs = append(xs, w.wall.Seconds()/float64(len(w.ops)))
	}
	return median(xs)
}

// latencies returns every op's reference-scaled host time in
// milliseconds, failed ops as failedMS, and the number of failed ops.
func (m *measurement) latencies() (lat []float64, failed int) {
	for _, w := range m.windows {
		for _, o := range w.ops {
			if !o.ok {
				failed++
				lat = append(lat, failedMS)
				continue
			}
			lat = append(lat, float64(o.host)/1e6*o.scale)
		}
	}
	return lat, failed
}

// workdirFor creates the run's private scratch directory.
func workdirFor(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.workdir, cfg.name+"-")
}

// setUp builds a fresh workload under dir and times its set-up.
func setUp(cfg config, dir string) (workload, float64, error) {
	w, err := newWorkload(cfg.name, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	aux(runtime.GC)
	t0 := cpuNow()
	if err := w.setUp(dir); err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", cfg.name, err)
	}
	return w, float64(cpuNow() - t0), nil
}

func writePins(path string, v *verifier) error {
	data, err := json.MarshalIndent(v.want, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runUntraced(cfg config) (*result, error) {
	pins, err := pinsFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := workdirFor(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set up several times from scratch; setup_s is the median, each
	// set-up scaled by the reference timed on either side of it.
	var setups []float64
	var w workload
	refBefore := refMedian(setupRefCalls)
	for i := 0; i < setupRuns[cfg.name]; i++ {
		var host float64
		if w, host, err = setUp(cfg, filepath.Join(dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, err
		}
		refAfter := refMedian(setupRefCalls)
		setups = append(setups, host/1e9*refPinNS/((refBefore+refAfter)/2))
		refBefore = refAfter
	}

	v := newVerifier(pins)
	m, err := measure(w, v, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if cfg.pinsOut != "" {
		if err := writePins(cfg.pinsOut, v); err != nil {
			return nil, err
		}
	}
	lat, failed := m.latencies()
	var refs []float64
	for _, win := range m.windows {
		for _, o := range win.ops {
			refs = append(refs, o.ref)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %d windows, reference median %.1f µs (R0 %.1f µs)\n",
		cfg.name, cfg.seed, len(lat), len(m.windows), median(refs)/1e3, refPinNS/1e3)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(lat, 0.95)
	if err != nil {
		return nil, err
	}
	// Throughput is ok ops per host second spent in ops, the median over
	// windows, so one window the host slowed does not move it. Host time
	// between a window's ops is left out: on sweep-cold it is mostly the
	// cache's file writes, whose cost the filesystem sets (it varied 4×
	// between runs of identical code); campaign.cache_store_us traces it.
	var rates, rss []float64
	for _, win := range m.windows {
		rss = append(rss, win.rss)
		ok, host := 0, 0.0
		for _, o := range win.ops {
			host += o.host.Seconds() * o.scale
			if o.ok {
				ok++
			}
		}
		rates = append(rates, float64(ok)/host)
	}
	n := float64(len(lat))
	okOps := n - float64(failed)
	return &result{
		Correct:   failed == 0,
		Attempted: len(lat),
		Failed:    failed,
		Metrics: map[string]metric{
			"ops_per_s":       {median(rates), "1/s"},
			"op_ms_p50":       {p50, "ms"},
			"op_ms_p95":       {p95, "ms"},
			"setup_s":         {median(setups), "s"},
			"allocs_per_op":   {float64(m.mallocs) / n, "count"},
			"alloc_kb_per_op": {float64(m.allocBytes) / n / 1024, "kB"},
			"peak_rss_mb":     {median(rss), "MB"},
			"ok_op_frac":      {okOps / n, "frac"},
		},
	}, nil
}
