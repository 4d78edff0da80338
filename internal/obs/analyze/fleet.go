package analyze

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Fleet-trace analysis: reconstruct a sweep's lease lifecycle from the
// fleet-trace-v1 event family (docs/OBSERVABILITY.md). One pass over a
// trace yields per-worker timelines (lanes), per-lease episodes
// (grant → heartbeats → complete/expire, with stale-reject accounting),
// and a causality lint over the coordinator's lease state machine:
//
//   - a lease sequence is granted at most once;
//   - expire closes an open lease, and only an open lease;
//   - a re-lease grant covers only spans some expired lease returned to
//     the requeue list (split re-grants are tracked by interval);
//   - complete closes an open lease — a complete after expire means the
//     coordinator merged a stale report, the exact double-merge the
//     sharded-equals-single contract forbids;
//   - reject-stale refers to a previously-expired lease;
//   - every expired span is eventually re-leased (checked at end of
//     trace), so no work is silently lost;
//   - per-(run, node, src) timestamps never run backwards.
//
// Only src=coord events drive the state machine — the coordinator is the
// authority on lease state. src=worker events are timeline annotations:
// they appear in lanes and exports but cannot create or close episodes,
// so a worker's trace of its own death never contradicts the
// coordinator's record. Non-fleet events in the same file (e.g. a local
// sweep that also traced its simulations) are counted and skipped.

// VLease is the violation kind for lease state-machine findings.
const VLease = "lease"

// LeaseEpisode is one lease's reconstructed lifetime.
type LeaseEpisode struct {
	// ID is the wire lease id ("L7"); Seq its numeric sequence.
	ID  string `json:"id"`
	Seq int    `json:"seq"`
	// Worker holds the lease; From/To its half-open job span.
	Worker string `json:"worker"`
	From   int64  `json:"from"`
	To     int64  `json:"to"`
	// GrantUS/EndUS bound the episode (EndUS -1 while open). ReLease marks
	// a grant from the requeue list rather than fresh work.
	GrantUS int64 `json:"grant_us"`
	EndUS   int64 `json:"end_us"`
	ReLease bool  `json:"re_lease,omitempty"`
	// TTLUS is the granted lease TTL (the grant event's dur_us).
	TTLUS int64 `json:"ttl_us,omitempty"`
	// Heartbeats counts acked keepalives; StaleRejects posthumous reports.
	Heartbeats   int64 `json:"heartbeats"`
	StaleRejects int64 `json:"stale_rejects,omitempty"`
	// Outcome is "completed", "expired", or "open" (end of trace).
	Outcome string `json:"outcome"`
	// Reason annotates expiry ("ttl", "mismatch"); empty otherwise.
	Reason string `json:"reason,omitempty"`
	// ReLeased marks an expired lease whose whole span was granted again
	// — the expire→re-lease episode the kill-worker smoke asserts on.
	ReLeased bool `json:"re_leased,omitempty"`
}

// FleetLane is one node's (worker's or coordinator's) timeline summary.
type FleetLane struct {
	Events  int64            `json:"events"`
	ByType  map[string]int64 `json:"by_type"`
	FirstUS int64            `json:"first_us"`
	LastUS  int64            `json:"last_us"`
}

// FleetReport is the result of one fleet-trace analysis pass.
type FleetReport struct {
	Lines       int64 `json:"lines"`
	Blank       int64 `json:"blank"`
	Events      int64 `json:"events"`
	FleetEvents int64 `json:"fleet_events"`
	// Skipped counts well-formed non-fleet events (simulation traffic
	// sharing the file); they are not violations.
	Skipped int64            `json:"skipped"`
	Runs    []string         `json:"runs"`
	ByType  map[string]int64 `json:"by_type"`

	// Lanes maps node name → timeline summary; Leases lists episodes in
	// grant order.
	Lanes  map[string]*FleetLane `json:"lanes"`
	Leases []LeaseEpisode        `json:"leases"`

	Grants       int64 `json:"grants"`
	ReLeases     int64 `json:"re_lease_grants"`
	Expired      int64 `json:"expired_leases"`
	Completed    int64 `json:"completed_leases"`
	StaleRejects int64 `json:"stale_rejects"`
	Heartbeats   int64 `json:"heartbeats"`
	// ExpireReLeaseEpisodes counts expired leases whose span was fully
	// granted again — each is one recovered worker-death.
	ExpireReLeaseEpisodes int64 `json:"expire_release_episodes"`

	Violations      []Violation `json:"violations,omitempty"`
	TotalViolations int64       `json:"total_violations"`
}

// Clean reports whether the trace passed the fleet lint.
func (r *FleetReport) Clean() bool { return r.TotalViolations == 0 }

// pendingSpan is an expired span awaiting re-lease, attributed to the
// lease that lost it.
type pendingSpan struct {
	from, to int64
	seq      int // expired lease's sequence
}

// fleetAnalyzer is the fleet-trace family.
type fleetAnalyzer struct {
	driver
	rep      *FleetReport
	episodes map[int]*LeaseEpisode // by lease seq
	pending  []pendingSpan         // expired intervals not yet re-granted
	// remaining tracks, per expired lease seq, how many jobs of its span
	// still await re-grant; at zero the expire→re-lease episode closes.
	remaining map[int]int64
	order     []*LeaseEpisode  // episodes in grant order
	lastT     map[string]int64 // (run\x00node\x00src) → high-water timestamp
}

func newFleet(maxViolations int) *fleetAnalyzer {
	return &fleetAnalyzer{
		driver: newDriver(maxViolations),
		rep: &FleetReport{
			ByType: map[string]int64{},
			Lanes:  map[string]*FleetLane{},
		},
		episodes:  map[int]*LeaseEpisode{},
		remaining: map[int]int64{},
		lastT:     map[string]int64{},
	}
}

func (a *fleetAnalyzer) accepts(typ string) bool {
	switch typ {
	case obs.EvSpecFetch, obs.EvLeaseGrant, obs.EvFleetHeartbeat,
		obs.EvLeaseExpire, obs.EvReLease, obs.EvLeaseComplete, obs.EvRejectStale:
		return true
	}
	return false
}

// event routes one decoded event through lanes, the ordering lint, and —
// for src=coord events — the lease state machine.
func (a *fleetAnalyzer) event(ev obs.Event) {
	a.rep.ByType[ev.Ev]++
	tok := parseTokens(ev.Detail)
	src := tok["src"]

	lane := a.rep.Lanes[ev.Node]
	if lane == nil {
		lane = &FleetLane{ByType: map[string]int64{}, FirstUS: ev.TUS}
		a.rep.Lanes[ev.Node] = lane
	}
	lane.Events++
	lane.ByType[ev.Ev]++
	if ev.TUS < lane.FirstUS {
		lane.FirstUS = ev.TUS
	}
	if ev.TUS > lane.LastUS {
		lane.LastUS = ev.TUS
	}

	// Ordering: one (run, node, src) stream emits in non-decreasing
	// timestamp order. Coordinator and worker both narrate the same node
	// from their own clocks, so the streams are linted separately.
	okey := ev.Run + "\x00" + ev.Node + "\x00" + src
	if last, seen := a.lastT[okey]; seen && ev.TUS < last {
		a.violate(VOrder, "%s event on %s/%s (src=%s) at t=%d after t=%d",
			ev.Ev, ev.Run, ev.Node, src, ev.TUS, last)
	} else {
		a.lastT[okey] = ev.TUS
	}

	if src != "coord" {
		return // worker-side narration: timeline only
	}
	switch ev.Ev {
	case obs.EvLeaseGrant:
		a.grant(ev, tok, false)
	case obs.EvReLease:
		a.grant(ev, tok, true)
	case obs.EvFleetHeartbeat:
		a.rep.Heartbeats++
		e := a.episodes[ev.Seq]
		if tok["ok"] == "true" && (e == nil || e.Outcome != "open") {
			a.violate(VLease, "heartbeat acked at t=%d for lease L%d which is not open", ev.TUS, ev.Seq)
		}
		if e != nil && e.Outcome == "open" && tok["ok"] != "false" {
			e.Heartbeats++
		}
	case obs.EvLeaseExpire:
		e := a.episodes[ev.Seq]
		if e == nil || e.Outcome != "open" {
			a.violate(VLease, "expire at t=%d for lease L%d which is not open", ev.TUS, ev.Seq)
			return
		}
		e.Outcome = "expired"
		e.EndUS = ev.TUS
		e.Reason = tok["reason"]
		a.rep.Expired++
		if e.To > e.From {
			a.pending = append(a.pending, pendingSpan{from: e.From, to: e.To, seq: e.Seq})
			a.remaining[e.Seq] = e.To - e.From
		}
	case obs.EvLeaseComplete:
		e := a.episodes[ev.Seq]
		switch {
		case e == nil:
			a.violate(VLease, "complete at t=%d for unknown lease L%d", ev.TUS, ev.Seq)
		case e.Outcome == "expired":
			a.violate(VLease, "complete at t=%d for expired lease L%d — stale report merged (expected reject-stale)",
				ev.TUS, ev.Seq)
		case e.Outcome == "completed":
			a.violate(VLease, "lease L%d completed twice (second at t=%d)", ev.Seq, ev.TUS)
		default:
			e.Outcome = "completed"
			e.EndUS = ev.TUS
			a.rep.Completed++
		}
	case obs.EvRejectStale:
		a.rep.StaleRejects++
		e := a.episodes[ev.Seq]
		switch {
		case e == nil:
			a.violate(VLease, "reject-stale at t=%d for unknown lease L%d", ev.TUS, ev.Seq)
		case e.Outcome == "open":
			a.violate(VLease, "reject-stale at t=%d for lease L%d which is still open", ev.TUS, ev.Seq)
		default:
			e.StaleRejects++
		}
	}
}

// grant handles lease-grant and re-lease events.
func (a *fleetAnalyzer) grant(ev obs.Event, tok map[string]string, reLease bool) {
	from, to, ok := parseSpan(tok["span"])
	if !ok {
		a.violate(VLease, "%s at t=%d for lease L%d has no span=a:b token (detail %q)",
			ev.Ev, ev.TUS, ev.Seq, ev.Detail)
	}
	if prev := a.episodes[ev.Seq]; prev != nil {
		a.violate(VLease, "lease L%d granted twice (second at t=%d)", ev.Seq, ev.TUS)
		return
	}
	e := &LeaseEpisode{
		ID: fmt.Sprintf("L%d", ev.Seq), Seq: ev.Seq, Worker: ev.Node,
		From: from, To: to, GrantUS: ev.TUS, EndUS: -1, ReLease: reLease,
		TTLUS: ev.DurUS, Outcome: "open",
	}
	a.episodes[ev.Seq] = e
	a.order = append(a.order, e)
	a.rep.Grants++
	if reLease {
		a.rep.ReLeases++
		if took := a.consumePending(from, to); took < to-from {
			a.violate(VLease, "re-lease at t=%d grants L%d span %d:%d of which %d jobs were never expired",
				ev.TUS, ev.Seq, from, to, (to-from)-took)
		}
	} else if a.coveredByPending(from, to) {
		a.violate(VLease, "lease-grant at t=%d for L%d covers expired span %d:%d — should be re-lease",
			ev.TUS, ev.Seq, from, to)
	}
}

// consumePending subtracts a re-granted span from the expired-interval
// pool, closing expire→re-lease episodes whose span is fully recovered.
// Returns how many jobs of [from, to) were actually pending.
func (a *fleetAnalyzer) consumePending(from, to int64) int64 {
	var took int64
	for i := 0; i < len(a.pending); i++ {
		p := &a.pending[i]
		if p.to <= p.from || to <= p.from || p.to <= from {
			continue
		}
		lo := max(from, p.from)
		hi := min(to, p.to)
		took += hi - lo
		// Shrink the pending interval (pending intervals are disjoint, so
		// each overlaps [from, to) independently).
		switch {
		case lo == p.from && hi == p.to:
			p.from, p.to = 0, 0
		case lo == p.from:
			p.from = hi
		case hi == p.to:
			p.to = lo
		default:
			// Middle take: keep the front, append the tail.
			tail := pendingSpan{from: hi, to: p.to, seq: p.seq}
			p.to = lo
			a.pending = append(a.pending, tail)
		}
		a.remaining[p.seq] -= hi - lo
		if a.remaining[p.seq] == 0 {
			if e := a.episodes[p.seq]; e != nil {
				e.ReLeased = true
			}
			a.rep.ExpireReLeaseEpisodes++
			delete(a.remaining, p.seq)
		}
	}
	return took
}

func (a *fleetAnalyzer) coveredByPending(from, to int64) bool {
	for _, p := range a.pending {
		if p.to > p.from && from < p.to && p.from < to {
			return true
		}
	}
	return false
}

// finish lints end-of-trace invariants and completes the report.
func (a *fleetAnalyzer) finish() {
	seqs := make([]int, 0, len(a.remaining))
	for seq := range a.remaining {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		a.violate(VLease, "lease L%d expired but %d jobs of its span were never re-leased",
			seq, a.remaining[seq])
	}
	r := a.rep
	for _, e := range a.order {
		r.Leases = append(r.Leases, *e)
	}
	r.Lines, r.Blank, r.Events = a.line, a.blank, a.events
	r.FleetEvents, r.Skipped = a.events-a.skipped, a.skipped
	r.Runs = a.sortedRuns()
	r.Violations, r.TotalViolations = a.violations, a.totalViolations
}

// AnalyzeFleet runs a full fleet pass over a JSONL trace stream. The error
// is nil unless reading r itself fails; malformed lines are violations.
func AnalyzeFleet(r io.Reader, maxViolations int) (*FleetReport, error) {
	a := newFleet(maxViolations)
	if err := scan(r, a); err != nil {
		return nil, fmt.Errorf("analyze: read fleet trace: %w", err)
	}
	return a.rep, nil
}

// Fleet Chrome trace-event export: each worker gets its own lane, so a
// sharded sweep's lease churn reads as a per-worker Gantt chart in
// chrome://tracing or Perfetto. Coordinator-authoritative lease episodes
// render as duration slices spanning grant → complete/expire (open leases
// get a zero-length span at the grant); heartbeats, stale rejects, and
// spec fetches render as instants.

// FleetChromeTrace converts one fleet JSONL trace from r into an indented
// Chrome trace-event JSON document on w. Non-fleet and undecodable lines
// are skipped (run `tracetool fleet` for lint findings); the error reports
// only read or encode failures.
func FleetChromeTrace(r io.Reader, w io.Writer) error {
	return writeChrome(r, w, newFleet(-1),
		chromeNames{noRun: "(no run)", lanePrefix: "worker "}, "fleet chrome export")
}

func (a *fleetAnalyzer) chromeLanes(func(run, lane string)) {}

// chromeSlices renders lease spans on the holder's lane, then every fleet
// event as an instant on its lane, in input order.
func (a *fleetAnalyzer) chromeSlices(events []obs.Event, lay *chromeLayout) []chromeEvent {
	// Episodes come from the coordinator record, so each knows its run only
	// via its worker's events; a fleet trace carries exactly one run label
	// in practice, so attribute spans to the run of the first event
	// (fallback "").
	run := ""
	if len(events) > 0 {
		run = events[0].Run
	}
	var out []chromeEvent
	for _, e := range a.rep.Leases {
		name := e.ID
		if e.ReLease {
			name = e.ID + " (re-lease)"
		}
		span := chromeEvent{
			Name: name, Cat: "lease", Ph: "X",
			PID: lay.pid[run], TID: lay.tid[run][e.Worker], TS: e.GrantUS, Dur: int64Ptr(0),
			Args: &chromeArgs{Detail: fmt.Sprintf("span=%d:%d outcome=%s heartbeats=%d",
				e.From, e.To, e.Outcome, e.Heartbeats)},
		}
		if e.EndUS >= e.GrantUS {
			span.Dur = int64Ptr(e.EndUS - e.GrantUS)
		}
		out = append(out, span)
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Ev, Cat: ev.Ev, Ph: "i", S: "t",
			PID: lay.pid[ev.Run], TID: lay.tid[ev.Run][ev.Node], TS: ev.TUS,
		}
		if ev.Seq >= 0 {
			ce.Name = fmt.Sprintf("%s L%d", ev.Ev, ev.Seq)
			ce.Args = &chromeArgs{Seq: intPtr(ev.Seq), Detail: ev.Detail}
		} else if ev.Detail != "" {
			ce.Args = &chromeArgs{Detail: ev.Detail}
		}
		out = append(out, ce)
	}
	return out
}

// parseTokens splits a fleet event's detail ("src=coord span=0:64") into
// its k=v tokens. Tokens without '=' are ignored.
func parseTokens(detail string) map[string]string {
	out := map[string]string{}
	for _, tok := range strings.Fields(detail) {
		if i := strings.IndexByte(tok, '='); i > 0 {
			out[tok[:i]] = tok[i+1:]
		}
	}
	return out
}

// parseSpan parses "from:to" into a half-open interval.
func parseSpan(s string) (from, to int64, ok bool) {
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return 0, 0, false
	}
	from, err1 := strconv.ParseInt(s[:i], 10, 64)
	to, err2 := strconv.ParseInt(s[i+1:], 10, 64)
	return from, to, err1 == nil && err2 == nil
}
