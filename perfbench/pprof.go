package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"time"
)

// stackSample is one stack of a CPU profile and the time sampled on it.
type stackSample struct {
	value  time.Duration
	frames []string // innermost first
}

// parseTraces reads the text of `go tool pprof -traces`: a header, then
// one block per distinct stack, blocks separated by "-----------+---…"
// rules. A block's first frame line carries the sampled time ("10ms",
// "1.20s"), the following lines the callers; label lines may come before
// it, and inlined frames end in " (inline)".
func parseTraces(out []byte) ([]stackSample, error) {
	var samples []stackSample
	var cur *stackSample
	inBlocks := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlocks = true
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if cur == nil {
			// Before the value line: labels ("key:  value") or the value
			// line itself.
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				if strings.HasSuffix(fields[0], ":") {
					continue
				}
				return nil, fmt.Errorf("pprof traces: no sampled time in %q", line)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: no frame in %q", line)
			}
			samples = append(samples, stackSample{value: d})
			cur = &samples[len(samples)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inBlocks {
		return nil, fmt.Errorf("pprof traces: no stacks in output")
	}
	return samples, nil
}

// cpuModules are the program's modules that get their own cpu.<module>
// share.
var cpuModules = map[string]bool{
	"sim": true, "phy": true, "mac": true, "ap": true, "netsim": true,
	"traffic": true, "client": true, "trace": true, "voip": true, "core": true,
	"sweep": true, "campaign": true, "sketch": true, "obs": true,
}

const internalPrefix = "repro/internal/"

// chargeTo names the share a stack is charged to: the innermost frame in
// a repro/internal/<module> package (so math.Log10 called from phy counts
// toward phy, and sim/rng toward sim); cpu.other for program modules
// without a share of their own; cpu.bench for the benchmark's own frames;
// cpu.runtime for stacks with no repro frame at all (GC, the scheduler).
func chargeTo(frames []string) string {
	bench := false
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			mod := rest[:strings.IndexAny(rest+".", "./")]
			if cpuModules[mod] {
				return "cpu." + mod
			}
			return "cpu.other"
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/") {
			bench = true
		}
	}
	if bench {
		return "cpu.bench"
	}
	return "cpu.runtime"
}

// moduleShares charges every sample and returns each share of the total
// sampled time; every share named in cpuModules (plus runtime, other and
// bench) is present, zero when nothing was charged to it.
func moduleShares(samples []stackSample) map[string]float64 {
	shares := map[string]float64{"cpu.runtime": 0, "cpu.other": 0, "cpu.bench": 0}
	for mod := range cpuModules {
		shares["cpu."+mod] = 0
	}
	var total time.Duration
	for _, s := range samples {
		total += s.value
	}
	if total == 0 {
		return shares
	}
	for _, s := range samples {
		shares[chargeTo(s.frames)] += float64(s.value) / float64(total)
	}
	return shares
}
