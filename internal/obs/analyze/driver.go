package analyze

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/obs"
)

// maxLineBytes is the longest trace line any pass accepts. A longer line
// is a read failure, not a violation, for every family alike.
const maxLineBytes = 4 * 1024 * 1024

// family is one trace event family: the packet trace, fleet-trace-v1, or
// slo-trace-v1. The shared driver decodes every line and hands the family
// each decoded event it accepts; the family owns its state machine, its
// report, and its Chrome slices.
type family interface {
	// base returns the family's driver (promoted from the embedded driver).
	base() *driver
	// accepts reports whether a decoded event belongs to the family. Other
	// well-formed events are counted as skipped, not as violations.
	accepts(ev string) bool
	// event advances the state machine by one accepted event.
	event(ev obs.Event)
	// finish runs the end-of-trace checks and completes the report.
	finish()
	// chromeLanes adds the family's synthetic lanes to a Chrome layout,
	// beyond the (run, node) lane every accepted event gets.
	chromeLanes(add func(run, lane string))
	// chromeSlices renders the accepted events and the reconstructed
	// episodes onto the layout.
	chromeSlices(events []obs.Event, lay *chromeLayout) []chromeEvent
}

// driver is the part of an analysis pass every family shares: line
// accounting, strict decoding, the violation cap, and run collection.
// Families embed it and report violations through violate.
type driver struct {
	maxV int
	// line counts the lines read: the 1-based number of the current line.
	line            int64
	blank           int64
	events, skipped int64
	runs            map[string]bool // runs of accepted events
	violations      []Violation
	totalViolations int64
	keep            bool        // retain accepted events for an export
	kept            []obs.Event // accepted events in input order
}

// newDriver returns a driver keeping at most maxV violations (0 selects
// DefaultMaxViolations, negative keeps all).
func newDriver(maxV int) driver {
	if maxV == 0 {
		maxV = DefaultMaxViolations
	}
	return driver{maxV: maxV, runs: map[string]bool{}}
}

func (d *driver) base() *driver { return d }

// feed accounts one raw line (without its trailing newline). Blank and
// whitespace-only lines are skipped — the JSONL convention — and counted;
// lines obs.DecodeEvent rejects are decode violations, no more and no
// fewer.
func feed(f family, data []byte) {
	d := f.base()
	d.line++
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		d.blank++
		return
	}
	ev, err := obs.DecodeEvent(trimmed)
	if err != nil {
		d.violate(VDecode, "%v", err)
		return
	}
	d.events++
	if !f.accepts(ev.Ev) {
		d.skipped++
		return
	}
	d.runs[ev.Run] = true
	if d.keep {
		d.kept = append(d.kept, ev)
	}
	f.event(ev)
}

// scan feeds every line of r to f, then finishes it. The error is nil
// unless reading r fails; a line longer than maxLineBytes is a read
// failure.
func scan(r io.Reader, f family) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for sc.Scan() {
		feed(f, sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		return err
	}
	f.finish()
	return nil
}

// violate records one lint violation at the current line. Past the cap the
// violation is only counted.
func (d *driver) violate(kind, format string, args ...any) {
	d.totalViolations++
	if d.maxV >= 0 && len(d.violations) >= d.maxV {
		return
	}
	d.violations = append(d.violations, Violation{
		Line: d.line,
		Kind: kind,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// sortedRuns lists the runs of accepted events in sorted order.
func (d *driver) sortedRuns() []string { return sortedKeys(d.runs) }
