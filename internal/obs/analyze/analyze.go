// Package analyze is a streaming analytics engine over the JSONL trace
// contract defined in docs/OBSERVABILITY.md.
//
// A trace carries three event families, and each has its own analysis:
//
//   - Packet traces (Analyze): episode reconstruction pairs each client
//     link-switch to the secondary with its retrievals and the switch
//     back, decomposing every recovery into detect / switch / retrieve
//     delays (Table 3's "total" metric is the switch-initiation →
//     first-useful-retrieval delay, the same quantity the
//     client.recovery_delay_us histogram observes); per-(run, node)
//     transmit outcomes, loss-burst runs, and head-drop churn; and a
//     causality lint — per-(run, node) timestamps never run backwards,
//     episodes are well-formed (open before close, retrievals only while
//     open), retrieval durations are consistent with their episode start,
//     and every retrieval inside an AP-served episode was preceded by a
//     delivered tx for that sequence number.
//   - fleet-trace-v1 (AnalyzeFleet): a sharded sweep's lease lifecycle.
//   - slo-trace-v1 (AnalyzeSLO): the SLO engine's alert episodes.
//
// One driver runs every family in a single pass holding only
// O(open-episodes) state. It owns what the families share: line
// accounting, the strict obs.DecodeEvent decode (a rejected line is a
// decode violation), the violation cap, the 4 MiB line limit, run
// collection, and the Chrome trace-event layout (ChromeTrace,
// FleetChromeTrace, SLOChromeTrace). Each family supplies its event
// filter, state machine, report, and Chrome slices. Violations carry the
// 1-based line number of the offending event. cmd/tracetool is the CLI
// front end.
package analyze

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Violation kinds.
const (
	// VDecode is a line the strict decoder rejected (malformed JSON,
	// unknown field, or schema-invalid event). Exactly the lines
	// obs.DecodeEvent rejects, no more and no fewer.
	VDecode = "decode"
	// VEpisode is an episode state-machine violation: a switch to the
	// secondary while a visit is already open, a switch to the primary with
	// no visit open, a retrieval outside any visit, or a visit left open at
	// end of trace.
	VEpisode = "episode"
	// VCausality is an effect without its cause: a retrieval whose dur_us
	// disagrees with its episode's start time, or a retrieval with no
	// preceding delivered tx for its seq within the episode.
	VCausality = "causality"
	// VOrder is a (run, node) timestamp running backwards in emission
	// order.
	VOrder = "order"
)

// Default limits.
const (
	// DefaultMaxViolations caps the violations kept in a Report when
	// Options.MaxViolations is zero. The total is still counted.
	DefaultMaxViolations = 100
	// DefaultLossHorizonUS is how long a tx-lost event stays eligible as
	// the detect-delay trigger for a later recovery switch.
	DefaultLossHorizonUS = 5_000_000
)

// Options configures an analysis pass. The zero value is a valid
// lint-and-summarize configuration.
type Options struct {
	// KeepEpisodes retains every reconstructed episode in Report.Episodes
	// (in close order). Off by default to keep memory O(open-episodes).
	KeepEpisodes bool
	// MaxViolations caps Report.Violations: 0 selects
	// DefaultMaxViolations, negative keeps every violation.
	MaxViolations int
	// WindowUS, when positive, buckets event counts into fixed windows of
	// simulated time (Report.Points) — the trace-derived counterpart of
	// obs.Series.
	WindowUS int64
}

// runState is the per-run streaming state: the open episode (if any), the
// delivered-seq set and loss times feeding the causality checks, and the
// per-node timestamp high-water marks for the ordering lint.
type runState struct {
	open         *Episode
	delivered    map[int]bool // seqs tx-delivered while the episode is open
	sawDelivered bool         // episode saw >= 1 delivered tx (AP-served visit)
	lostAt       map[int]int64
	lastNodeT    map[string]int64
}

// packetAnalyzer is the packet-trace family: every decoded event belongs
// to it.
type packetAnalyzer struct {
	driver
	opts    Options
	rep     *Report
	states  map[string]*runState
	windows map[int64]map[string]int64
}

func newPacket(opts Options) *packetAnalyzer {
	a := &packetAnalyzer{
		driver: newDriver(opts.MaxViolations),
		opts:   opts,
		rep: &Report{
			FirstUS: -1,
			LastUS:  -1,
			ByType:  make(map[string]int64),
			Links:   make(map[string]*LinkStats),
		},
		states: make(map[string]*runState),
	}
	if opts.WindowUS > 0 {
		a.windows = make(map[int64]map[string]int64)
	}
	return a
}

func (a *packetAnalyzer) accepts(string) bool { return true }

// event processes one decoded event through the ordering lint, the link
// accumulators, the window buckets, and the episode state machine.
func (a *packetAnalyzer) event(ev obs.Event) {
	r := a.rep
	r.ByType[ev.Ev]++
	if r.FirstUS < 0 || ev.TUS < r.FirstUS {
		r.FirstUS = ev.TUS
	}
	if ev.TUS > r.LastUS {
		r.LastUS = ev.TUS
	}

	rs := a.states[ev.Run]
	if rs == nil {
		rs = &runState{lastNodeT: make(map[string]int64)}
		a.states[ev.Run] = rs
	}
	// Ordering convention: one (run, node) pair emits in non-decreasing
	// timestamp order. Different nodes may interleave out of order (a
	// transmit chain's completion event can carry an earlier context than
	// another node's enqueue-time event).
	if last, ok := rs.lastNodeT[ev.Node]; ok && ev.TUS < last {
		a.violate(VOrder, "%s event on %s/%s at t=%d after t=%d",
			ev.Ev, ev.Run, ev.Node, ev.TUS, last)
	} else {
		rs.lastNodeT[ev.Node] = ev.TUS
	}

	if a.windows != nil {
		b := (ev.TUS / a.opts.WindowUS) * a.opts.WindowUS
		w := a.windows[b]
		if w == nil {
			w = make(map[string]int64)
			a.windows[b] = w
		}
		w[ev.Ev]++
		if ev.Ev == obs.EvTx {
			w[obs.EvTx+":"+ev.Detail]++
		}
	}

	ls := a.link(ev.Run, ev.Node)
	switch ev.Ev {
	case obs.EvTx:
		switch ev.Detail {
		case obs.TxDelivered:
			ls.TxDelivered++
			ls.endBurst()
			if rs.open != nil {
				if rs.delivered == nil {
					rs.delivered = make(map[int]bool)
				}
				rs.delivered[ev.Seq] = true
				rs.sawDelivered = true
			}
		case obs.TxWasted:
			ls.TxWasted++
			ls.endBurst()
		case obs.TxLost:
			ls.TxLost++
			ls.curBurst++
			if ls.curBurst > ls.MaxBurst {
				ls.MaxBurst = ls.curBurst
			}
			rs.noteLost(ev.Seq, ev.TUS)
		}
	case obs.EvRetry:
		ls.Retries++
	case obs.EvDrop:
		ls.Drops++
	case obs.EvHeadDrop:
		if ev.Detail == obs.DropEvictOldest {
			ls.HeadDropEvict++
		} else {
			ls.HeadDropRefuse++
		}
	case obs.EvLinkSwitch:
		a.linkSwitch(rs, ev)
	case obs.EvRetrieve:
		a.retrieve(rs, ev)
	case obs.EvPlayoutMiss:
		r.PlayoutMisses++
	}
}

// linkSwitch advances the episode state machine on a link-switch event.
func (a *packetAnalyzer) linkSwitch(rs *runState, ev obs.Event) {
	switch ev.Detail {
	case obs.SwitchToSecondary, obs.SwitchKeepalive:
		if rs.open != nil {
			a.violate(VEpisode, "link-switch %s at t=%d while episode open since t=%d (run %q)",
				ev.Detail, ev.TUS, rs.open.StartUS, ev.Run)
			a.closeEpisode(rs, -1)
		}
		e := &Episode{
			Run:        ev.Run,
			Kind:       EpisodeRecovery,
			Line:       a.line,
			StartUS:    ev.TUS,
			EndUS:      -1,
			TriggerSeq: ev.Seq,
			DetectUS:   -1,
			SwitchUS:   ev.DurUS,
			RetrieveUS: -1,
			TotalUS:    -1,
		}
		if ev.Detail == obs.SwitchKeepalive {
			e.Kind = EpisodeKeepalive
			e.TriggerSeq = -1
			a.rep.Keepalives++
		} else {
			a.rep.Recoveries++
			if ev.Seq >= 0 {
				if lt, ok := rs.lostAt[ev.Seq]; ok {
					e.DetectUS = ev.TUS - lt
					a.rep.DetectDelay.observe(e.DetectUS)
					delete(rs.lostAt, ev.Seq)
				}
			}
		}
		rs.open = e
		rs.delivered = nil
		rs.sawDelivered = false
	case obs.SwitchToPrimary:
		if rs.open == nil {
			a.violate(VEpisode, "link-switch to-primary at t=%d with no episode open (run %q)",
				ev.TUS, ev.Run)
			return
		}
		a.closeEpisode(rs, ev.TUS)
	}
}

// retrieve checks one retrieve-from-secondary event against its episode and
// accounts the Table 3 delays.
func (a *packetAnalyzer) retrieve(rs *runState, ev obs.Event) {
	a.rep.Retrieved++
	e := rs.open
	if e == nil {
		a.violate(VEpisode, "retrieve seq %d at t=%d outside any episode (run %q)",
			ev.Seq, ev.TUS, ev.Run)
		return
	}
	// The client stamps dur_us = now - visit start, and the visit starts at
	// the switch event's timestamp, so the two must agree exactly.
	if ev.TUS-ev.DurUS != e.StartUS {
		a.violate(VCausality, "retrieve seq %d at t=%d has dur_us=%d inconsistent with episode start t=%d",
			ev.Seq, ev.TUS, ev.DurUS, e.StartUS)
	}
	// In an AP-served visit every retrieval is the delivery callback of a
	// secondary tx, so the delivered tx must precede it. Middlebox-served
	// visits emit no tx events; the check arms only once the episode has
	// seen a delivered tx.
	if rs.sawDelivered && !rs.delivered[ev.Seq] {
		a.violate(VCausality, "retrieve seq %d at t=%d with no delivered tx for that seq in the episode",
			ev.Seq, ev.TUS)
	}
	e.Retrieved++
	if e.TotalUS < 0 {
		e.TotalUS = ev.DurUS
		e.RetrieveUS = ev.DurUS - e.SwitchUS
		if e.Kind == EpisodeRecovery {
			// The first useful retrieval of a recovery visit is exactly the
			// observation client.recovery_delay_us records.
			a.rep.RecoveryDelay.observe(e.TotalUS)
		}
	}
}

// closeEpisode finalizes the run's open episode with the given end time
// (-1 marks an episode that never closed).
func (a *packetAnalyzer) closeEpisode(rs *runState, endUS int64) {
	e := rs.open
	rs.open = nil
	rs.delivered = nil
	rs.sawDelivered = false
	e.EndUS = endUS
	if a.opts.KeepEpisodes {
		a.rep.Episodes = append(a.rep.Episodes, *e)
	}
}

// link returns the per-(run, node) accumulator.
func (a *packetAnalyzer) link(run, node string) *LinkStats {
	key := node
	if run != "" {
		key = run + "/" + node
	}
	ls := a.rep.Links[key]
	if ls == nil {
		ls = &LinkStats{}
		a.rep.Links[key] = ls
	}
	return ls
}

// finish closes still-open episodes and loss bursts and completes the
// Report.
func (a *packetAnalyzer) finish() {
	for _, run := range a.sortedRuns() {
		rs := a.states[run]
		if rs.open != nil {
			a.rep.Unclosed++
			a.violate(VEpisode, "episode open since t=%d never closed (run %q)",
				rs.open.StartUS, run)
			a.closeEpisode(rs, -1)
		}
	}
	for _, ls := range a.rep.Links {
		ls.endBurst()
	}
	r := a.rep
	r.Lines, r.Blank, r.Events = a.line, a.blank, a.events
	r.Runs = a.sortedRuns()
	r.Violations, r.TotalViolations = a.violations, a.totalViolations
	if a.windows != nil {
		starts := make([]int64, 0, len(a.windows))
		for b := range a.windows {
			starts = append(starts, b)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for _, b := range starts {
			r.Points = append(r.Points, TracePoint{
				StartUS: b,
				EndUS:   b + a.opts.WindowUS,
				Counts:  a.windows[b],
			})
		}
	}
}

// noteLost remembers seq's loss time for detect-delay pairing, pruning
// entries past the horizon so the map stays bounded.
func (rs *runState) noteLost(seq int, tUS int64) {
	if rs.lostAt == nil {
		rs.lostAt = make(map[int]int64)
	}
	rs.lostAt[seq] = tUS
	if len(rs.lostAt) > 256 {
		for s, t := range rs.lostAt {
			if t < tUS-DefaultLossHorizonUS {
				delete(rs.lostAt, s)
			}
		}
	}
}

// Analyze runs a full pass over a JSONL trace stream. The error is nil
// unless reading r itself fails (a line longer than 4 MiB counts as a read
// failure); malformed lines are reported as violations, not errors.
func Analyze(r io.Reader, opts Options) (*Report, error) {
	a := newPacket(opts)
	if err := scan(r, a); err != nil {
		return nil, fmt.Errorf("analyze: read trace: %w", err)
	}
	return a.rep, nil
}
