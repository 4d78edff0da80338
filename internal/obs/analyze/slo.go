package analyze

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// SLO-trace analysis: reconstruct alert episodes from the slo-trace-v1
// event family the streaming SLO engine (internal/obs/slo) emits under its
// "slo/<hash8>" run label. One pass yields per-rule lifetime stats and
// per-episode timelines (pending → firing → resolved), plus a lint over
// the engine's state machine:
//
//   - episode sequences per (run, rule) are strictly increasing;
//   - at most one episode per (run, rule) is open at a time;
//   - slo-firing and slo-resolved refer to the open episode's sequence
//     (firing at most once per episode, resolving only what is open);
//   - per-(run, rule) timestamps never run backwards.
//
// An episode still open at end of trace is not a violation — a process
// may exit mid-alert — it is reported with outcome "open". Non-SLO events
// sharing the file (simulation traffic, fleet lifecycle) are counted and
// skipped.

// VSLO is the violation kind for SLO state-machine findings.
const VSLO = "slo"

// SLOEpisode is one alert episode's reconstructed lifetime.
type SLOEpisode struct {
	// Rule is the alert rule name (the event Node); Seq the rule-local
	// episode sequence; Run the engine's "slo/<hash8>" label.
	Rule string `json:"rule"`
	Seq  int    `json:"seq"`
	Run  string `json:"run"`
	// Line is the trace line of the opening slo-pending event.
	Line int64 `json:"line"`
	// PendingUS/FiringUS/ResolvedUS are the transition times in simulated
	// microseconds (-1 where the transition never happened).
	PendingUS  int64 `json:"pending_us"`
	FiringUS   int64 `json:"firing_us"`
	ResolvedUS int64 `json:"resolved_us"`
	// Fired marks an episode that reached firing before resolving.
	Fired bool `json:"fired"`
	// Outcome is "resolved" or "open" (end of trace).
	Outcome string `json:"outcome"`
	// Value and Bound echo the opening transition's detail tokens: the
	// violating signal value and the threshold it crossed ("min=3.600").
	Value string `json:"value,omitempty"`
	Bound string `json:"bound,omitempty"`
}

// SLORuleStat is one rule's lifetime accounting across the trace.
type SLORuleStat struct {
	Episodes int64 `json:"episodes"`
	Fired    int64 `json:"fired"`
	Resolved int64 `json:"resolved"`
	Open     int64 `json:"open"`
	// FiringUS sums time spent in the firing state over resolved episodes.
	FiringUS int64 `json:"firing_us"`
}

// SLOReport is the result of one slo-trace analysis pass.
type SLOReport struct {
	Lines  int64 `json:"lines"`
	Blank  int64 `json:"blank"`
	Events int64 `json:"events"`
	// SLOEvents counts the slo-* family; Skipped well-formed events of
	// other families sharing the file (not violations).
	SLOEvents int64            `json:"slo_events"`
	Skipped   int64            `json:"skipped"`
	Runs      []string         `json:"runs"`
	ByType    map[string]int64 `json:"by_type"`

	// Rules maps rule name → lifetime stats; Episodes lists episodes in
	// pending order.
	Rules    map[string]*SLORuleStat `json:"rules"`
	Episodes []SLOEpisode            `json:"episodes"`

	Violations      []Violation `json:"violations,omitempty"`
	TotalViolations int64       `json:"total_violations"`
}

// Clean reports whether the trace passed the SLO lint.
func (r *SLOReport) Clean() bool { return r.TotalViolations == 0 }

// sloAnalyzer is the slo-trace family.
type sloAnalyzer struct {
	driver
	rep      *SLOReport
	episodes map[string]*SLOEpisode // open episode per (run, rule)
	lastSeq  map[string]int         // highest seq per (run, rule)
	order    []*SLOEpisode          // episodes in pending order
	lastT    map[string]int64       // (run, rule) → high-water timestamp
}

func newSLO(maxViolations int) *sloAnalyzer {
	return &sloAnalyzer{
		driver: newDriver(maxViolations),
		rep: &SLOReport{
			ByType: map[string]int64{},
			Rules:  map[string]*SLORuleStat{},
		},
		episodes: map[string]*SLOEpisode{},
		lastSeq:  map[string]int{},
		lastT:    map[string]int64{},
	}
}

func (a *sloAnalyzer) accepts(typ string) bool {
	switch typ {
	case obs.EvSLOPending, obs.EvSLOFiring, obs.EvSLOResolved:
		return true
	}
	return false
}

// event routes one decoded event through the ordering lint and the alert
// state machine.
func (a *sloAnalyzer) event(ev obs.Event) {
	a.rep.ByType[ev.Ev]++

	key := ev.Run + "\x00" + ev.Node
	if last, seen := a.lastT[key]; seen && ev.TUS < last {
		a.violate(VOrder, "%s on %s/%s at t=%d after t=%d", ev.Ev, ev.Run, ev.Node, ev.TUS, last)
	} else {
		a.lastT[key] = ev.TUS
	}

	st := a.rep.Rules[ev.Node]
	if st == nil {
		st = &SLORuleStat{}
		a.rep.Rules[ev.Node] = st
	}
	open := a.episodes[key]
	tok := parseTokens(ev.Detail)
	switch ev.Ev {
	case obs.EvSLOPending:
		if open != nil {
			a.violate(VSLO, "pending at t=%d opens episode %d of rule %q while episode %d is still open",
				ev.TUS, ev.Seq, ev.Node, open.Seq)
			return
		}
		if last := a.lastSeq[key]; ev.Seq <= last {
			a.violate(VSLO, "pending at t=%d reuses episode seq %d of rule %q (last was %d)",
				ev.TUS, ev.Seq, ev.Node, last)
		}
		a.lastSeq[key] = ev.Seq
		e := &SLOEpisode{
			Rule: ev.Node, Seq: ev.Seq, Run: ev.Run, Line: a.line,
			PendingUS: ev.TUS, FiringUS: -1, ResolvedUS: -1, Outcome: "open",
			Value: tok["value"],
		}
		if v, ok := tok["min"]; ok {
			e.Bound = "min=" + v
		} else if v, ok := tok["max"]; ok {
			e.Bound = "max=" + v
		}
		a.episodes[key] = e
		a.order = append(a.order, e)
		st.Episodes++
	case obs.EvSLOFiring:
		switch {
		case open == nil:
			a.violate(VSLO, "firing at t=%d for rule %q with no open episode", ev.TUS, ev.Node)
		case open.Seq != ev.Seq:
			a.violate(VSLO, "firing at t=%d names episode %d of rule %q but episode %d is open",
				ev.TUS, ev.Seq, ev.Node, open.Seq)
		case open.Fired:
			a.violate(VSLO, "episode %d of rule %q fired twice (second at t=%d)", ev.Seq, ev.Node, ev.TUS)
		default:
			open.Fired = true
			open.FiringUS = ev.TUS
			st.Fired++
		}
	case obs.EvSLOResolved:
		switch {
		case open == nil:
			a.violate(VSLO, "resolved at t=%d for rule %q with no open episode", ev.TUS, ev.Node)
		case open.Seq != ev.Seq:
			a.violate(VSLO, "resolved at t=%d names episode %d of rule %q but episode %d is open",
				ev.TUS, ev.Seq, ev.Node, open.Seq)
		default:
			open.Outcome = "resolved"
			open.ResolvedUS = ev.TUS
			if open.Fired && open.FiringUS >= 0 {
				st.FiringUS += ev.TUS - open.FiringUS
			}
			st.Resolved++
			delete(a.episodes, key)
		}
	}
}

// finish counts the episodes still open and completes the report.
func (a *sloAnalyzer) finish() {
	r := a.rep
	for _, e := range a.episodes {
		r.Rules[e.Rule].Open++
	}
	for _, e := range a.order {
		r.Episodes = append(r.Episodes, *e)
	}
	r.Lines, r.Blank, r.Events = a.line, a.blank, a.events
	r.SLOEvents, r.Skipped = a.events-a.skipped, a.skipped
	r.Runs = a.sortedRuns()
	r.Violations, r.TotalViolations = a.violations, a.totalViolations
}

// AnalyzeSLO runs a full slo-trace pass over a JSONL stream. The error is
// nil unless reading r itself fails; malformed lines are violations.
func AnalyzeSLO(r io.Reader, maxViolations int) (*SLOReport, error) {
	a := newSLO(maxViolations)
	if err := scan(r, a); err != nil {
		return nil, fmt.Errorf("analyze: read slo trace: %w", err)
	}
	return a.rep, nil
}

// SLOChromeTrace converts the slo-* events of one JSONL trace into Chrome
// trace-event JSON: one process per run, one lane per rule, each episode a
// span from pending to resolved (with its firing arc as a nested slice)
// plus the transitions as instants.
func SLOChromeTrace(r io.Reader, w io.Writer) error {
	// The engine always labels its run, so the empty run has no label.
	return writeChrome(r, w, newSLO(-1), chromeNames{lanePrefix: "rule "}, "slo chrome export")
}

func (a *sloAnalyzer) chromeLanes(func(run, lane string)) {}

// chromeSlices renders episode spans and firing arcs, then every
// transition as an instant on its rule's lane.
func (a *sloAnalyzer) chromeSlices(events []obs.Event, lay *chromeLayout) []chromeEvent {
	lastUS := map[string]int64{}
	for _, ev := range events {
		if ev.TUS > lastUS[ev.Run] {
			lastUS[ev.Run] = ev.TUS
		}
	}
	var out []chromeEvent
	for _, e := range a.rep.Episodes {
		end := e.ResolvedUS
		if end < 0 {
			end = lastUS[e.Run] // open episode: span to end of trace
		}
		pid, tid := lay.pid[e.Run], lay.tid[e.Run][e.Rule]
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("episode %d", e.Seq), Cat: "slo-episode", Ph: "X",
			PID: pid, TID: tid, TS: e.PendingUS, Dur: int64Ptr(end - e.PendingUS),
			Args: &chromeArgs{Seq: intPtr(e.Seq), Detail: fmt.Sprintf("outcome=%s %s value=%s", e.Outcome, e.Bound, e.Value)},
		})
		if e.Fired && e.FiringUS >= 0 {
			out = append(out, chromeEvent{
				Name: "firing", Cat: "slo-firing", Ph: "X",
				PID: pid, TID: tid, TS: e.FiringUS, Dur: int64Ptr(end - e.FiringUS),
			})
		}
	}
	for _, ev := range events {
		out = append(out, chromeEvent{
			Name: ev.Ev, Cat: ev.Ev, Ph: "i", S: "t",
			PID: lay.pid[ev.Run], TID: lay.tid[ev.Run][ev.Node], TS: ev.TUS,
			Args: &chromeArgs{Seq: intPtr(ev.Seq), Detail: ev.Detail},
		})
	}
	return out
}
