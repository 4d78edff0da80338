// Command tracetool analyzes JSONL traces produced by the -trace flag of
// cmd/experiments and cmd/campaign (schema: docs/OBSERVABILITY.md), via the
// streaming engine in internal/obs/analyze.
//
// Usage:
//
//	tracetool lint [-max N] FILE...
//	tracetool episodes [-json] FILE...
//	tracetool series [-json] [-window DUR] FILE...
//	tracetool summary [-json] FILE...
//	tracetool export [-format chrome] [-o FILE] FILE
//	tracetool fleet [-json] [-max N] [-export chrome] [-o FILE] FILE...
//	tracetool slo [-json] [-max N] [-export chrome] [-o FILE] FILE...
//
// lint checks every line against the trace contract — strict schema decode,
// per-(run, node) timestamp ordering, episode well-formedness, and
// retrieval causality — printing one "file:line: kind: message" finding per
// violation and exiting nonzero if any trace is dirty.
//
// episodes reconstructs every secondary visit (recovery and keepalive) with
// its Table 3 delay decomposition: detect (trigger loss → switch), switch
// (link-switch cost), retrieve (switch completion → first retrieval), and
// total (switch initiation → first retrieval, the client.recovery_delay_us
// observation).
//
// series buckets event counts into fixed windows of simulated time — the
// trace-derived counterpart of the -series flag's metric timeline.
//
// summary prints per-trace totals: events by type, per-link transmit
// outcomes and loss-burst structure, episode counts, and lint status.
//
// export converts a trace into another tool's format. The only format so
// far is chrome: Chrome trace-event JSON loadable in chrome://tracing or
// https://ui.perfetto.dev, with one track per (run, node) and each
// recovery episode rendered as a span plus its detect/switch/retrieve
// phase slices.
//
// fleet analyzes the fleet-trace-v1 lease lifecycle a sharded sweep emits
// (spec-fetch, lease-grant, heartbeat, expire, re-lease, complete,
// reject-stale): per-worker timelines, per-lease episodes, expire→re-lease
// recovery accounting, and a causality lint over the coordinator's lease
// state machine (a complete after expire — a merged stale report — is a
// violation). Each FILE is analyzed independently, because traces from
// different processes have different wall-clock epochs. -export chrome
// renders per-worker lanes with lease spans for chrome://tracing /
// Perfetto; violations exit nonzero so CI can gate on clean fleet traces.
//
// slo analyzes the slo-trace-v1 alert transitions the streaming SLO engine
// (-slo RULES.yaml, internal/obs/slo) emits under its "slo/<hash8>" run
// label: per-rule episode accounting, every pending→firing→resolved
// episode's timeline, and a lint over the alert state machine (sequences
// strictly increase, one open episode per rule, firing and resolved only
// against the open episode). -export chrome renders one lane per rule with
// episode spans and firing arcs.
//
// FILE may be "-" for stdin. All subcommands accept -json for
// machine-readable output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs/analyze"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  tracetool lint [-max N] FILE...
  tracetool episodes [-json] FILE...
  tracetool series [-json] [-window DUR] FILE...
  tracetool summary [-json] FILE...
  tracetool export [-format chrome] [-o FILE] FILE
  tracetool fleet [-json] [-max N] [-export chrome] [-o FILE] FILE...
  tracetool slo [-json] [-max N] [-export chrome] [-o FILE] FILE...

FILE may be "-" for stdin. See docs/OBSERVABILITY.md for the trace schema.
`)
}

// stdio is one invocation's standard streams.
type stdio struct {
	in       io.Reader
	out, err io.Writer
}

// commands maps each subcommand to its entry point, which parses the
// subcommand's flags from args and returns the exit code.
var commands = map[string]func(args []string, s stdio) int{
	"lint":     cmdLint,
	"episodes": cmdEpisodes,
	"series":   cmdSeries,
	"summary":  cmdSummary,
	"export":   cmdExport,
	"fleet": familyCmd("fleet", "fleet", analyze.AnalyzeFleet, printFleet,
		analyze.FleetChromeTrace),
	"slo": familyCmd("slo", "SLO", analyze.AnalyzeSLO, printSLO,
		analyze.SLOChromeTrace),
}

// run is the testable entry point: it dispatches to one subcommand and
// returns the process exit code (0 ok, 1 failure/violations, 2 usage).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	if c, ok := commands[cmd]; ok {
		return c(rest, stdio{stdin, stdout, stderr})
	}
	switch cmd {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "tracetool: unknown command %q\n", cmd)
	usage(stderr)
	return 2
}

// newFlags returns a subcommand's flag set, reporting parse errors on
// s.err.
func newFlags(name string, s stdio) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(s.err)
	return fs
}

// parseFiles parses args and checks that at least one FILE remains; false
// means the caller exits 2 (usage is already printed).
func parseFiles(fs *flag.FlagSet, args []string, s stdio) bool {
	if fs.Parse(args) != nil {
		return false
	}
	if fs.NArg() < 1 {
		usage(s.err)
		return false
	}
	return true
}

// open returns the input for path ("-" = stdin) and its closer.
func open(path string, s stdio) (io.Reader, func(), error) {
	if path == "-" {
		return s.in, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// forEachFile analyzes every path independently and hands each report to
// show, which returns whether the trace is clean. Open/read errors are
// printed and turn the exit code nonzero without stopping the walk. Each
// file gets its own pass: traces from different processes (coordinator,
// each worker) have different wall-clock epochs, so their timestamps must
// never be compared.
func forEachFile[R any](paths []string, s stdio, pass func(io.Reader) (R, error),
	show func(path string, rep R) bool) int {
	code := 0
	for _, path := range paths {
		in, closeIn, err := open(path, s)
		if err != nil {
			fmt.Fprintln(s.err, "tracetool:", err)
			code = 1
			continue
		}
		rep, err := pass(in)
		closeIn()
		if err != nil {
			fmt.Fprintln(s.err, "tracetool:", err)
			code = 1
			continue
		}
		// Violations are findings, not tool errors, but the exit code must
		// reflect them so CI can gate on a clean corpus.
		if !show(path, rep) {
			code = 1
		}
	}
	return code
}

// packetPass returns a packet-trace analysis pass with the given options.
func packetPass(opts analyze.Options) func(io.Reader) (*analyze.Report, error) {
	return func(r io.Reader) (*analyze.Report, error) { return analyze.Analyze(r, opts) }
}

func cmdLint(args []string, s stdio) int {
	fs := newFlags("lint", s)
	maxV := fs.Int("max", 0, "max violations to print per file (0 = default 100, negative = all)")
	if !parseFiles(fs, args, s) {
		return 2
	}
	return forEachFile(fs.Args(), s, packetPass(analyze.Options{MaxViolations: *maxV}),
		func(path string, rep *analyze.Report) bool {
			printViolations(s.out, path, rep.Violations)
			if rep.Clean() {
				fmt.Fprintf(s.out, "%s: %d events, clean\n", path, rep.Events)
			} else {
				fmt.Fprintf(s.out, "%s: %d events, %d violations (%d shown)\n",
					path, rep.Events, rep.TotalViolations, len(rep.Violations))
			}
			return rep.Clean()
		})
}

func cmdEpisodes(args []string, s stdio) int {
	fs := newFlags("episodes", s)
	asJSON := fs.Bool("json", false, "emit JSON instead of a text table")
	if !parseFiles(fs, args, s) {
		return 2
	}
	return forEachFile(fs.Args(), s, packetPass(analyze.Options{KeepEpisodes: true}),
		func(path string, rep *analyze.Report) bool {
			if *asJSON {
				writeJSON(s.out, struct {
					File          string             `json:"file"`
					Recoveries    int64              `json:"recoveries"`
					Keepalives    int64              `json:"keepalives"`
					Unclosed      int64              `json:"unclosed"`
					Retrieved     int64              `json:"retrieved"`
					RecoveryDelay analyze.DelayStats `json:"recovery_delay"`
					DetectDelay   analyze.DelayStats `json:"detect_delay"`
					Episodes      []analyze.Episode  `json:"episodes"`
				}{path, rep.Recoveries, rep.Keepalives, rep.Unclosed, rep.Retrieved,
					rep.RecoveryDelay, rep.DetectDelay, rep.Episodes})
				return true
			}
			tbl := stats.NewTable("episodes: "+path,
				"run", "kind", "line", "start_us", "end_us", "trigger",
				"detect_us", "switch_us", "retrieve_us", "total_us", "retrieved")
			for _, e := range rep.Episodes {
				tbl.AddRow(e.Run, e.Kind, fmt.Sprint(e.Line), fmt.Sprint(e.StartUS),
					orDash(e.EndUS), orDash(int64(e.TriggerSeq)), orDash(e.DetectUS),
					fmt.Sprint(e.SwitchUS), orDash(e.RetrieveUS), orDash(e.TotalUS),
					fmt.Sprint(e.Retrieved))
			}
			fmt.Fprint(s.out, tbl.String())
			fmt.Fprintf(s.out, "recoveries %d, keepalives %d, unclosed %d, retrieved %d\n",
				rep.Recoveries, rep.Keepalives, rep.Unclosed, rep.Retrieved)
			fmt.Fprintf(s.out, "recovery total_us: %s\n", delayLine(rep.RecoveryDelay))
			fmt.Fprintf(s.out, "detect_us:         %s\n", delayLine(rep.DetectDelay))
			return true
		})
}

func cmdSeries(args []string, s stdio) int {
	fs := newFlags("series", s)
	asJSON := fs.Bool("json", false, "emit JSON instead of a text table")
	window := fs.Duration("window", time.Second, "window width in simulated time")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() < 1 || *window <= 0 {
		usage(s.err)
		return 2
	}
	windowUS := window.Microseconds()
	return forEachFile(fs.Args(), s, packetPass(analyze.Options{WindowUS: windowUS}),
		func(path string, rep *analyze.Report) bool {
			if *asJSON {
				writeJSON(s.out, struct {
					File     string               `json:"file"`
					WindowUS int64                `json:"window_us"`
					Points   []analyze.TracePoint `json:"points"`
				}{path, windowUS, rep.Points})
				return true
			}
			// Columns: the union of count keys across every window.
			keySet := map[string]bool{}
			for _, p := range rep.Points {
				for k := range p.Counts {
					keySet[k] = true
				}
			}
			keys := sortedKeys(keySet)
			tbl := stats.NewTable(fmt.Sprintf("series: %s (window %v)", path, *window),
				append([]string{"start_us", "end_us"}, keys...)...)
			for _, p := range rep.Points {
				row := []string{fmt.Sprint(p.StartUS), fmt.Sprint(p.EndUS)}
				for _, k := range keys {
					if n := p.Counts[k]; n != 0 {
						row = append(row, fmt.Sprint(n))
					} else {
						row = append(row, "")
					}
				}
				tbl.AddRow(row...)
			}
			fmt.Fprint(s.out, tbl.String())
			return true
		})
}

func cmdSummary(args []string, s stdio) int {
	fs := newFlags("summary", s)
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	if !parseFiles(fs, args, s) {
		return 2
	}
	return forEachFile(fs.Args(), s, packetPass(analyze.Options{}),
		func(path string, rep *analyze.Report) bool {
			if *asJSON {
				writeJSON(s.out, struct {
					File string `json:"file"`
					*analyze.Report
				}{path, rep})
				return true
			}
			fmt.Fprintf(s.out, "%s: %d lines, %d events", path, rep.Lines, rep.Events)
			if len(rep.Runs) > 0 {
				fmt.Fprintf(s.out, ", runs %v, span [%dus, %dus]", rep.Runs, rep.FirstUS, rep.LastUS)
			}
			fmt.Fprintln(s.out)

			types := stats.NewTable("", "event", "count")
			for _, k := range sortedKeys(rep.ByType) {
				types.AddRow(k, fmt.Sprint(rep.ByType[k]))
			}
			fmt.Fprint(s.out, types.String())

			links := stats.NewTable("links",
				"link", "delivered", "wasted", "lost", "retries", "drops",
				"hd-evict", "hd-refuse", "bursts", "max-burst")
			for _, k := range sortedKeys(rep.Links) {
				ls := rep.Links[k]
				links.AddRow(k, fmt.Sprint(ls.TxDelivered), fmt.Sprint(ls.TxWasted),
					fmt.Sprint(ls.TxLost), fmt.Sprint(ls.Retries), fmt.Sprint(ls.Drops),
					fmt.Sprint(ls.HeadDropEvict), fmt.Sprint(ls.HeadDropRefuse),
					fmt.Sprint(ls.LossBursts), fmt.Sprint(ls.MaxBurst))
			}
			fmt.Fprint(s.out, links.String())

			fmt.Fprintf(s.out, "episodes: %d recoveries, %d keepalives, %d unclosed; %d retrieved, %d playout misses\n",
				rep.Recoveries, rep.Keepalives, rep.Unclosed, rep.Retrieved, rep.PlayoutMisses)
			fmt.Fprintf(s.out, "recovery total_us: %s\n", delayLine(rep.RecoveryDelay))
			if rep.Clean() {
				fmt.Fprintln(s.out, "lint: clean")
			} else {
				fmt.Fprintf(s.out, "lint: %d violations (run `tracetool lint %s`)\n",
					rep.TotalViolations, path)
			}
			return true
		})
}

func cmdExport(args []string, s stdio) int {
	fs := newFlags("export", s)
	format := fs.String("format", "chrome", "output format (chrome)")
	outPath := fs.String("o", "", "write to this file instead of stdout")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		usage(s.err)
		return 2
	}
	if *format != "chrome" {
		fmt.Fprintf(s.err, "tracetool: unknown export format %q (supported: chrome)\n", *format)
		return 2
	}
	return writeExport(fs.Arg(0), *outPath, s, analyze.ChromeTrace)
}

// familyCmd builds the subcommand of one event family (fleet, slo): a
// report per FILE through pass and show, or, with -export chrome, one
// FILE rendered by export. report names the report in the -json help.
func familyCmd[R any](name, report string, pass func(io.Reader, int) (R, error),
	show func(w io.Writer, path string, rep R, asJSON bool) bool,
	export func(io.Reader, io.Writer) error) func([]string, stdio) int {
	return func(args []string, s stdio) int {
		fs := newFlags(name, s)
		asJSON := fs.Bool("json", false, "emit the full "+report+" report as JSON")
		maxV := fs.Int("max", 0, "max violations to print per file (0 = default 100, negative = all)")
		format := fs.String("export", "", "export format instead of a report (chrome)")
		outPath := fs.String("o", "", "write the export to this file instead of stdout")
		if !parseFiles(fs, args, s) {
			return 2
		}
		if *format != "" {
			if *format != "chrome" {
				fmt.Fprintf(s.err, "tracetool: unknown %s export format %q (supported: chrome)\n", name, *format)
				return 2
			}
			if fs.NArg() != 1 {
				fmt.Fprintf(s.err, "tracetool: %s -export takes exactly one FILE\n", name)
				return 2
			}
			return writeExport(fs.Arg(0), *outPath, s, export)
		}
		return forEachFile(fs.Args(), s,
			func(r io.Reader) (R, error) { return pass(r, *maxV) },
			func(path string, rep R) bool { return show(s.out, path, rep, *asJSON) })
	}
}

// writeExport renders the trace at path ("-" = stdin) with export onto
// outPath, or onto stdout when outPath is empty.
func writeExport(path, outPath string, s stdio, export func(io.Reader, io.Writer) error) int {
	in, closeIn, err := open(path, s)
	if err != nil {
		fmt.Fprintln(s.err, "tracetool:", err)
		return 1
	}
	defer closeIn()
	out := s.out
	var outFile *os.File
	if outPath != "" {
		if outFile, err = os.Create(outPath); err != nil {
			fmt.Fprintln(s.err, "tracetool:", err)
			return 1
		}
		out = outFile
	}
	err = export(in, out)
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(s.err, "tracetool:", err)
		return 1
	}
	return 0
}

// printViolations prints one "file:line: kind: message" line per finding.
func printViolations(w io.Writer, path string, vs []analyze.Violation) {
	for _, v := range vs {
		fmt.Fprintf(w, "%s:%d: %s: %s\n", path, v.Line, v.Kind, v.Msg)
	}
}

// printFleet renders one file's fleet report, returning rep.Clean().
func printFleet(stdout io.Writer, path string, rep *analyze.FleetReport, asJSON bool) bool {
	if asJSON {
		writeJSON(stdout, struct {
			File string `json:"file"`
			*analyze.FleetReport
		}{path, rep})
		return rep.Clean()
	}
	printViolations(stdout, path, rep.Violations)
	fmt.Fprintf(stdout, "%s: %d events (%d fleet, %d skipped)", path, rep.Events, rep.FleetEvents, rep.Skipped)
	if len(rep.Runs) > 0 {
		fmt.Fprintf(stdout, ", runs %v", rep.Runs)
	}
	fmt.Fprintln(stdout)

	lanes := stats.NewTable("worker lanes", "node", "events", "first_us", "last_us")
	for _, node := range sortedKeys(rep.Lanes) {
		l := rep.Lanes[node]
		lanes.AddRow(node, fmt.Sprint(l.Events), fmt.Sprint(l.FirstUS), fmt.Sprint(l.LastUS))
	}
	fmt.Fprint(stdout, lanes.String())

	leases := stats.NewTable("leases",
		"lease", "worker", "span", "grant_us", "end_us", "ttl_us", "hb", "outcome", "re-leased")
	for _, e := range rep.Leases {
		outcome := e.Outcome
		if e.Reason != "" {
			outcome += " (" + e.Reason + ")"
		}
		if e.ReLease {
			outcome += " [re-lease]"
		}
		releasedTag := ""
		if e.ReLeased {
			releasedTag = "yes"
		}
		leases.AddRow(e.ID, e.Worker, fmt.Sprintf("%d:%d", e.From, e.To),
			fmt.Sprint(e.GrantUS), orDash(e.EndUS), fmt.Sprint(e.TTLUS),
			fmt.Sprint(e.Heartbeats), outcome, releasedTag)
	}
	fmt.Fprint(stdout, leases.String())

	fmt.Fprintf(stdout, "grants %d (%d re-lease), completed %d, expired %d, stale rejects %d, heartbeats %d\n",
		rep.Grants, rep.ReLeases, rep.Completed, rep.Expired, rep.StaleRejects, rep.Heartbeats)
	fmt.Fprintf(stdout, "expire->re-lease episodes: %d\n", rep.ExpireReLeaseEpisodes)
	if rep.Clean() {
		fmt.Fprintln(stdout, "fleet lint: clean")
	} else {
		fmt.Fprintf(stdout, "fleet lint: %d violations (%d shown)\n",
			rep.TotalViolations, len(rep.Violations))
	}
	return rep.Clean()
}

// printSLO renders one file's SLO report, returning rep.Clean().
func printSLO(stdout io.Writer, path string, rep *analyze.SLOReport, asJSON bool) bool {
	if asJSON {
		writeJSON(stdout, struct {
			File string `json:"file"`
			*analyze.SLOReport
		}{path, rep})
		return rep.Clean()
	}
	printViolations(stdout, path, rep.Violations)
	fmt.Fprintf(stdout, "%s: %d events (%d slo, %d skipped)", path, rep.Events, rep.SLOEvents, rep.Skipped)
	if len(rep.Runs) > 0 {
		fmt.Fprintf(stdout, ", runs %v", rep.Runs)
	}
	fmt.Fprintln(stdout)

	rules := stats.NewTable("rules", "rule", "episodes", "fired", "resolved", "open", "firing_us")
	for _, name := range sortedKeys(rep.Rules) {
		st := rep.Rules[name]
		rules.AddRow(name, fmt.Sprint(st.Episodes), fmt.Sprint(st.Fired),
			fmt.Sprint(st.Resolved), fmt.Sprint(st.Open), fmt.Sprint(st.FiringUS))
	}
	fmt.Fprint(stdout, rules.String())

	eps := stats.NewTable("episodes",
		"rule", "seq", "pending_us", "firing_us", "resolved_us", "outcome", "value", "bound")
	for _, e := range rep.Episodes {
		eps.AddRow(e.Rule, fmt.Sprint(e.Seq), fmt.Sprint(e.PendingUS),
			orDash(e.FiringUS), orDash(e.ResolvedUS), e.Outcome, e.Value, e.Bound)
	}
	fmt.Fprint(stdout, eps.String())

	if rep.Clean() {
		fmt.Fprintln(stdout, "slo lint: clean")
	} else {
		fmt.Fprintf(stdout, "slo lint: %d violations (%d shown)\n",
			rep.TotalViolations, len(rep.Violations))
	}
	return rep.Clean()
}

// orDash renders v, with the analyzer's -1 "not determined" sentinel as "-".
func orDash(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprint(v)
}

// delayLine renders a DelayStats as "count N min X mean Y max Z".
func delayLine(d analyze.DelayStats) string {
	if d.Count == 0 {
		return "count 0"
	}
	return fmt.Sprintf("count %d min %d mean %.1f max %d", d.Count, d.MinUS, d.MeanUS(), d.MaxUS)
}

func writeJSON(w io.Writer, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(w, "{}")
		return
	}
	w.Write(data)
	io.WriteString(w, "\n")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
