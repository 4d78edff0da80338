package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Chrome trace-event export: convert a JSONL trace (docs/OBSERVABILITY.md)
// into the Trace Event Format that chrome://tracing and Perfetto load, so an
// episode can be inspected on a zoomable timeline instead of grep.
//
// Every family shares one layout: one process (pid) per run label, named
// after the run, and one thread (tid) per lane within the run, with ids
// assigned in sorted (run, lane) order. The packet family's lanes are:
//
//   - one per trace node (prim, sec, client, ...), carrying that node's
//     packet events — tx/retrieve as duration slices (they have dur_us),
//     retry/drop/head-drop/playout-miss as instants;
//   - two synthetic per-run tracks: "episodes" holds each secondary visit
//     as one slice spanning switch-out to switch-back, and "episode phases"
//     decomposes the same visit into its detect → switch → retrieve delay
//     slices (the Table 3 decomposition). Phases sit on their own track
//     because the detect phase starts at the triggering loss, before the
//     episode slice opens — the spans overlap rather than nest.
//
// Output is deterministic for a given input: events are emitted in input
// order and every JSON object uses fixed field order.

// chromeEvent is one Trace Event Format entry. Field order (and the
// omission rules) are fixed so exports are byte-stable for golden tests.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Cat  string `json:"cat,omitempty"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	TS   int64  `json:"ts"`
	Dur  *int64 `json:"dur,omitempty"`
	S    string `json:"s,omitempty"`

	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the event details shown in the inspector's side panel.
// A struct (not a map) so encoding order is deterministic.
type chromeArgs struct {
	Name       string `json:"name,omitempty"` // metadata payload
	Seq        *int   `json:"seq,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	Detail     string `json:"detail,omitempty"`
	Line       int64  `json:"line,omitempty"`
	TriggerSeq *int   `json:"trigger_seq,omitempty"`
	DetectUS   *int64 `json:"detect_us,omitempty"`
	SwitchUS   *int64 `json:"switch_us,omitempty"`
	RetrieveUS *int64 `json:"retrieve_us,omitempty"`
	TotalUS    *int64 `json:"total_us,omitempty"`
	Retrieved  *int   `json:"retrieved,omitempty"`
}

// chromeDoc is the top-level Trace Event Format document.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Synthetic per-run track names.
const (
	chromeEpisodeTrack = "episodes"
	chromePhaseTrack   = "episode phases"
)

// chromeNames labels an export's processes and threads: every process is
// "run <label>", every thread lanePrefix + lane.
type chromeNames struct {
	noRun      string // label of the empty run
	lanePrefix string
}

// chromeLayout maps each run to its process id and each of the run's lanes
// to a thread id.
type chromeLayout struct {
	pid map[string]int
	tid map[string]map[string]int
}

// layoutChrome assigns pids to runs and tids to (run, lane) tracks in
// sorted order, so the layout is independent of event order, and returns
// the process and thread metadata events.
func layoutChrome(lanes map[string]map[string]bool, names chromeNames) (*chromeLayout, []chromeEvent) {
	lay := &chromeLayout{pid: map[string]int{}, tid: map[string]map[string]int{}}
	meta := []chromeEvent{}
	for i, run := range sortedKeys(lanes) {
		pid := i + 1
		lay.pid[run] = pid
		label := run
		if label == "" {
			label = names.noRun
		}
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: &chromeArgs{Name: "run " + label},
		})
		lay.tid[run] = map[string]int{}
		for j, lane := range sortedKeys(lanes[run]) {
			lay.tid[run][lane] = j + 1
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: j + 1,
				Args: &chromeArgs{Name: names.lanePrefix + lane},
			})
		}
	}
	return lay, meta
}

// writeChrome runs one pass of family f over r and writes its indented
// Chrome trace-event document to w: one lane per (run, node) of the
// family's events plus the family's synthetic lanes, then the family's
// slices. Undecodable lines are skipped (the family's lint reports them);
// the error reports only read or encode failures, prefixed with what.
func writeChrome(r io.Reader, w io.Writer, f family, names chromeNames, what string) error {
	d := f.base()
	d.keep = true
	if err := scan(r, f); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	lanes := map[string]map[string]bool{}
	add := func(run, lane string) {
		if lanes[run] == nil {
			lanes[run] = map[string]bool{}
		}
		lanes[run][lane] = true
	}
	for _, ev := range d.kept {
		add(ev.Run, ev.Node)
	}
	f.chromeLanes(add)
	lay, meta := layoutChrome(lanes, names)
	doc := chromeDoc{TraceEvents: append(meta, f.chromeSlices(d.kept, lay)...), DisplayTimeUnit: "ms"}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// ChromeTrace converts one JSONL trace from r into an indented Chrome
// trace-event JSON document on w. Lines the strict decoder rejects are
// skipped (run `tracetool lint` for the findings); the error reports only
// read or encode failures.
func ChromeTrace(r io.Reader, w io.Writer) error {
	return writeChrome(r, w, newPacket(Options{KeepEpisodes: true}),
		chromeNames{noRun: "(no run)"}, "chrome export")
}

// chromeLanes gives every run with an episode its two synthetic tracks.
func (a *packetAnalyzer) chromeLanes(add func(run, lane string)) {
	for _, e := range a.rep.Episodes {
		add(e.Run, chromeEpisodeTrack)
		add(e.Run, chromePhaseTrack)
	}
}

// chromeSlices renders every event on its node track, then every episode
// on its run's synthetic tracks.
func (a *packetAnalyzer) chromeSlices(events []obs.Event, lay *chromeLayout) []chromeEvent {
	var out []chromeEvent
	for _, ev := range events {
		out = append(out, packetEvent(ev, lay.pid[ev.Run], lay.tid[ev.Run][ev.Node]))
	}
	for _, e := range a.rep.Episodes {
		out = append(out, episodeEvents(e, lay.pid[e.Run], lay.tid[e.Run])...)
	}
	return out
}

// packetEvent renders one trace event on its node track: a duration slice
// when the event carries dur_us, an instant otherwise.
func packetEvent(ev obs.Event, pid, tid int) chromeEvent {
	name := ev.Ev
	if ev.Seq >= 0 {
		name = fmt.Sprintf("%s seq %d", ev.Ev, ev.Seq)
	}
	ce := chromeEvent{Name: name, Cat: ev.Ev, PID: pid, TID: tid, TS: ev.TUS}
	args := &chromeArgs{Attempt: ev.Attempt, Detail: ev.Detail}
	if ev.Seq >= 0 {
		args.Seq = intPtr(ev.Seq)
	}
	if *args != (chromeArgs{}) {
		ce.Args = args
	}
	if ev.DurUS > 0 {
		// The timestamp marks completion; the slice spans the duration.
		ce.Ph = "X"
		ce.TS = ev.TUS - ev.DurUS
		ce.Dur = int64Ptr(ev.DurUS)
	} else {
		ce.Ph = "i"
		ce.S = "t"
	}
	return ce
}

// episodeEvents renders one reconstructed secondary visit: the whole span
// on the episodes track, then its detect/switch/retrieve delay slices on
// the phases track. Episodes still open at end of trace (EndUS < 0) get a
// zero-length marker instead of a span.
func episodeEvents(e Episode, pid int, tids map[string]int) []chromeEvent {
	span := chromeEvent{
		Name: e.Kind + " visit", Cat: "episode", Ph: "X",
		PID: pid, TID: tids[chromeEpisodeTrack], TS: e.StartUS, Dur: int64Ptr(0),
		Args: &chromeArgs{Line: e.Line, TotalUS: int64Ptr(e.TotalUS), Retrieved: intPtr(e.Retrieved)},
	}
	if e.TriggerSeq >= 0 {
		span.Args.TriggerSeq = intPtr(e.TriggerSeq)
	}
	if e.EndUS >= e.StartUS {
		span.Dur = int64Ptr(e.EndUS - e.StartUS)
	}
	out := []chromeEvent{span}

	phase := func(name string, start, dur int64) {
		if dur < 0 {
			return
		}
		out = append(out, chromeEvent{
			Name: name, Cat: "phase", Ph: "X",
			PID: pid, TID: tids[chromePhaseTrack], TS: start, Dur: int64Ptr(dur),
		})
	}
	// detect runs from the triggering loss up to switch initiation; switch
	// and retrieve follow back-to-back (TotalUS = SwitchUS + RetrieveUS).
	if e.DetectUS >= 0 {
		phase("detect", e.StartUS-e.DetectUS, e.DetectUS)
	}
	phase("switch", e.StartUS, e.SwitchUS)
	if e.RetrieveUS >= 0 {
		phase("retrieve", e.StartUS+e.SwitchUS, e.RetrieveUS)
	}
	return out
}

func intPtr(v int) *int       { return &v }
func int64Ptr(v int64) *int64 { return &v }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
