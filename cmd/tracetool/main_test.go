package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// exec runs the CLI entry point and captures its streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, strings.NewReader(""), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestGoldenOutputs pins the exact bytes of every subcommand's text and JSON
// output over the checked-in fixture traces. Regenerate after a deliberate
// format change with
//
//	go test ./cmd/tracetool -run TestGoldenOutputs -update
//
// and review the diff like any other contract change.
func TestGoldenOutputs(t *testing.T) {
	sample := filepath.Join("testdata", "sample.trace.jsonl")
	dirty := filepath.Join("testdata", "dirty.trace.jsonl")
	fleet := filepath.Join("testdata", "fleet.trace.jsonl")
	fleetDirty := filepath.Join("testdata", "fleet-dirty.trace.jsonl")
	sloTrace := filepath.Join("testdata", "slo.trace.jsonl")
	sloDirty := filepath.Join("testdata", "slo-dirty.trace.jsonl")
	// A real simulation trace, pinned by the simtest golden harness: the
	// chrome export of a byte-stable input must itself be byte-stable.
	simtrace := filepath.Join("..", "..", "internal", "simtest", "testdata", "head-drop-recovery.trace.jsonl")
	cases := []struct {
		golden   string
		args     []string
		wantCode int
	}{
		{"episodes.txt", []string{"episodes", sample}, 0},
		{"episodes.json", []string{"episodes", "-json", sample}, 0},
		{"summary.txt", []string{"summary", sample}, 0},
		{"summary.json", []string{"summary", "-json", sample}, 0},
		{"series.txt", []string{"series", "-window", "50ms", sample}, 0},
		{"lint.txt", []string{"lint", sample, dirty}, 1},
		{"chrome.json", []string{"export", "-format", "chrome", sample}, 0},
		{"chrome-head-drop.json", []string{"export", simtrace}, 0},
		{"fleet.txt", []string{"fleet", fleet}, 0},
		{"fleet.json", []string{"fleet", "-json", fleet}, 0},
		{"fleet-dirty.txt", []string{"fleet", fleet, fleetDirty}, 1},
		{"fleet-chrome.json", []string{"fleet", "-export", "chrome", fleet}, 0},
		{"slo.txt", []string{"slo", sloTrace}, 0},
		{"slo.json", []string{"slo", "-json", sloTrace}, 0},
		{"slo-dirty.txt", []string{"slo", sloTrace, sloDirty}, 1},
		{"slo-chrome.json", []string{"slo", "-export", "chrome", sloTrace}, 0},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			code, out, errOut := exec(t, c.args...)
			if code != c.wantCode {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, c.wantCode, errOut)
			}
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s — if intended, re-run with -update and review\ngot:\n%s\nwant:\n%s",
					path, out, want)
			}
		})
	}
}

func TestLintExitCodes(t *testing.T) {
	if code, _, _ := exec(t, "lint", filepath.Join("testdata", "sample.trace.jsonl")); code != 0 {
		t.Errorf("lint on clean trace exited %d", code)
	}
	if code, _, _ := exec(t, "lint", filepath.Join("testdata", "dirty.trace.jsonl")); code != 1 {
		t.Errorf("lint on dirty trace exited %d, want 1", code)
	}
	if code, _, _ := exec(t, "lint", filepath.Join("testdata", "no-such-file.jsonl")); code != 1 {
		t.Errorf("lint on missing file exited %d, want 1", code)
	}
	if code, _, _ := exec(t); code != 2 {
		t.Errorf("no-args exited %d, want 2", code)
	}
	if code, _, _ := exec(t, "frobnicate"); code != 2 {
		t.Errorf("unknown command exited %d, want 2", code)
	}
	if code, _, _ := exec(t, "help"); code != 0 {
		t.Errorf("help exited %d, want 0", code)
	}
}

// TestStdinInput reads "-" on every subcommand that analyzes a trace and
// compares the output with that subcommand's golden, in which the fixture
// path reads as "-".
func TestStdinInput(t *testing.T) {
	sample := filepath.Join("testdata", "sample.trace.jsonl")
	fleet := filepath.Join("testdata", "fleet.trace.jsonl")
	sloTrace := filepath.Join("testdata", "slo.trace.jsonl")
	cases := []struct {
		golden   string
		stdin    string
		args     []string
		wantCode int
	}{
		{"lint.txt", sample, []string{"lint", "-", filepath.Join("testdata", "dirty.trace.jsonl")}, 1},
		{"fleet.txt", fleet, []string{"fleet", "-"}, 0},
		{"slo.txt", sloTrace, []string{"slo", "-"}, 0},
		{"chrome.json", sample, []string{"export", "-"}, 0},
	}
	for _, c := range cases {
		t.Run(c.args[0], func(t *testing.T) {
			data, err := os.ReadFile(c.stdin)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.ReplaceAll(string(golden), c.stdin, "-")
			var out, errBuf bytes.Buffer
			if code := run(c.args, bytes.NewReader(data), &out, &errBuf); code != c.wantCode {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, c.wantCode, errBuf.String())
			}
			if out.String() != want {
				t.Errorf("stdin output differs from %s with the path read as \"-\"\ngot:\n%s\nwant:\n%s",
					c.golden, out.String(), want)
			}
		})
	}
}

// TestLongLineEveryFamily: every subcommand shares the analyzer's 4 MiB
// line limit, so a valid event whose detail exceeds 1 MiB passes lint and
// exports under every family.
func TestLongLineEveryFamily(t *testing.T) {
	line, err := json.Marshal(obs.Event{
		TUS: 1, Ev: obs.EvSLOPending, Run: "slo/1a2b3c4d", Node: "mos-floor", Seq: 1,
		Detail: "value=3.1 min=3.600 note=" + strings.Repeat("x", 2<<20),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "long.trace.jsonl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"lint", path},
		{"export", path},
		{"fleet", "-export", "chrome", path},
		{"slo", "-export", "chrome", path},
	} {
		if code, _, stderr := exec(t, args...); code != 0 {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
		}
	}
}

func TestExportToFileAndErrors(t *testing.T) {
	sample := filepath.Join("testdata", "sample.trace.jsonl")
	outPath := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := exec(t, "export", "-o", outPath, sample)
	if code != 0 || stdout != "" {
		t.Fatalf("export -o: code %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "chrome.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Error("export -o output differs from stdout golden")
	}

	if code, _, stderr := exec(t, "export", "-format", "svg", sample); code != 2 ||
		!strings.Contains(stderr, "unknown export format") {
		t.Errorf("bad format: code %d, stderr %q", code, stderr)
	}
	if code, _, _ := exec(t, "export", sample, sample); code != 2 {
		t.Errorf("two files: code %d, want usage error", code)
	}
	if code, _, stderr := exec(t, "export", filepath.Join("testdata", "no-such.jsonl")); code != 1 ||
		stderr == "" {
		t.Errorf("missing file: code %d, stderr %q", code, stderr)
	}
}

// simtestGoldens returns the seeded-equivalence golden traces checked in
// under internal/simtest/testdata.
func simtestGoldens(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "internal", "simtest", "testdata", "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 6 {
		t.Fatalf("expected the six simtest golden traces, found %d: %v", len(paths), paths)
	}
	return paths
}

// TestSimtestGoldensLintClean is the acceptance gate: every golden trace of
// the seeded-equivalence harness passes the linter.
func TestSimtestGoldensLintClean(t *testing.T) {
	code, out, errOut := exec(t, append([]string{"lint"}, simtestGoldens(t)...)...)
	if code != 0 {
		t.Fatalf("lint over simtest goldens exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestSimtestGoldenEpisodesMatchMetrics is the acceptance gate for episode
// reconstruction: `tracetool episodes -json` over each golden trace must
// reproduce that scenario's metric snapshot bit-identically —
// client.recovery_switches / client.keepalive_switches as episode counts,
// the client.recovery_delay_us histogram's count/min/max as the
// switch→first-retrieval delay stats, and client.recovered /
// client.playout_misses as the retrieval totals.
func TestSimtestGoldenEpisodesMatchMetrics(t *testing.T) {
	for _, tracePath := range simtestGoldens(t) {
		name := strings.TrimSuffix(filepath.Base(tracePath), ".trace.jsonl")
		t.Run(name, func(t *testing.T) {
			code, out, errOut := exec(t, "episodes", "-json", tracePath)
			if code != 0 {
				t.Fatalf("episodes exited %d: %s", code, errOut)
			}
			var got struct {
				Recoveries    int64              `json:"recoveries"`
				Keepalives    int64              `json:"keepalives"`
				Unclosed      int64              `json:"unclosed"`
				Retrieved     int64              `json:"retrieved"`
				RecoveryDelay analyze.DelayStats `json:"recovery_delay"`
			}
			if err := json.Unmarshal([]byte(out), &got); err != nil {
				t.Fatalf("parse episodes JSON: %v", err)
			}

			metricsPath := strings.TrimSuffix(tracePath, ".trace.jsonl") + ".metrics.json"
			data, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			var metrics struct {
				Counters   map[string]int64 `json:"counters"`
				Histograms map[string]struct {
					Count int64 `json:"count"`
					Min   int64 `json:"min"`
					Max   int64 `json:"max"`
				} `json:"histograms"`
			}
			if err := json.Unmarshal(data, &metrics); err != nil {
				t.Fatal(err)
			}

			if want := metrics.Counters["client.recovery_switches"]; got.Recoveries != want {
				t.Errorf("recoveries = %d, metrics say %d", got.Recoveries, want)
			}
			if want := metrics.Counters["client.keepalive_switches"]; got.Keepalives != want {
				t.Errorf("keepalives = %d, metrics say %d", got.Keepalives, want)
			}
			if want := metrics.Counters["client.recovered"]; got.Retrieved != want {
				t.Errorf("retrieved = %d, metrics say %d", got.Retrieved, want)
			}
			if got.Unclosed != 0 {
				t.Errorf("unclosed episodes = %d, want 0", got.Unclosed)
			}
			hist := metrics.Histograms["client.recovery_delay_us"]
			if got.RecoveryDelay.Count != hist.Count {
				t.Errorf("recovery delay count = %d, histogram says %d", got.RecoveryDelay.Count, hist.Count)
			}
			if hist.Count > 0 {
				if got.RecoveryDelay.MinUS != hist.Min || got.RecoveryDelay.MaxUS != hist.Max {
					t.Errorf("recovery delay min/max = %d/%d, histogram says %d/%d",
						got.RecoveryDelay.MinUS, got.RecoveryDelay.MaxUS, hist.Min, hist.Max)
				}
			}
		})
	}
}

// TestFleetSubcommand pins the fleet lint's exit-code and smoke-grep
// contract: scripts/sweep-smoke.sh greps the "expire->re-lease episodes"
// line and the JSON report's expire_release_episodes field after killing a
// worker, so both handles must stay stable.
func TestFleetSubcommand(t *testing.T) {
	fleet := filepath.Join("testdata", "fleet.trace.jsonl")
	fleetDirty := filepath.Join("testdata", "fleet-dirty.trace.jsonl")

	code, out, _ := exec(t, "fleet", fleet)
	if code != 0 {
		t.Fatalf("fleet on clean trace exited %d", code)
	}
	if !strings.Contains(out, "fleet lint: clean") {
		t.Errorf("clean trace output missing lint verdict:\n%s", out)
	}
	if !strings.Contains(out, "expire->re-lease episodes: 1") {
		t.Errorf("output missing the smoke-grep episode line:\n%s", out)
	}

	code, out, _ = exec(t, "fleet", "-json", fleet)
	if code != 0 {
		t.Fatalf("fleet -json exited %d", code)
	}
	var rep struct {
		Episodes   int64 `json:"expire_release_episodes"`
		Violations int64 `json:"total_violations"`
		Grants     int64 `json:"grants"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("parse fleet JSON: %v", err)
	}
	if rep.Episodes != 1 || rep.Violations != 0 || rep.Grants != 2 {
		t.Errorf("fleet JSON episodes/violations/grants = %d/%d/%d, want 1/0/2",
			rep.Episodes, rep.Violations, rep.Grants)
	}

	if code, _, _ := exec(t, "fleet", fleetDirty); code != 1 {
		t.Errorf("fleet on dirty trace exited %d, want 1", code)
	}
	if code, _, _ := exec(t, "fleet", filepath.Join("testdata", "no-such.jsonl")); code != 1 {
		t.Errorf("fleet on missing file exited %d, want 1", code)
	}
	if code, _, _ := exec(t, "fleet"); code != 2 {
		t.Errorf("fleet with no files exited %d, want 2", code)
	}
	if code, _, stderr := exec(t, "fleet", "-export", "svg", fleet); code != 2 ||
		!strings.Contains(stderr, "unknown fleet export format") {
		t.Errorf("bad export format: code %d, stderr %q", code, stderr)
	}
	if code, _, _ := exec(t, "fleet", "-export", "chrome", fleet, fleet); code != 2 {
		t.Errorf("export with two files exited %d, want usage error", code)
	}

	// -o writes the same bytes the stdout golden pins.
	outPath := filepath.Join(t.TempDir(), "fleet.json")
	if code, stdout, stderr := exec(t, "fleet", "-export", "chrome", "-o", outPath, fleet); code != 0 || stdout != "" {
		t.Fatalf("fleet -export -o: code %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "fleet-chrome.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Error("fleet -export -o output differs from stdout golden")
	}

	// Stdin input works for the report path.
	data, err := os.ReadFile(fleet)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := run([]string{"fleet", "-"}, bytes.NewReader(data), &buf, &buf); code != 0 ||
		!strings.Contains(buf.String(), "fleet lint: clean") {
		t.Fatalf("fleet over stdin: code %d, out %q", code, buf.String())
	}
}

// TestSLOSubcommand pins the slo analyzer CLI's exit-code contract and the
// handles scripts/slo-smoke.sh greps: the per-rule episode accounting and
// the "slo lint: clean" verdict line.
func TestSLOSubcommand(t *testing.T) {
	sloTrace := filepath.Join("testdata", "slo.trace.jsonl")
	sloDirty := filepath.Join("testdata", "slo-dirty.trace.jsonl")

	code, out, _ := exec(t, "slo", sloTrace)
	if code != 0 {
		t.Fatalf("slo on clean trace exited %d", code)
	}
	if !strings.Contains(out, "slo lint: clean") {
		t.Errorf("clean trace output missing lint verdict:\n%s", out)
	}
	if !strings.Contains(out, "mos-floor") || !strings.Contains(out, "resolved") {
		t.Errorf("output missing the episode table:\n%s", out)
	}

	code, out, _ = exec(t, "slo", "-json", sloTrace)
	if code != 0 {
		t.Fatalf("slo -json exited %d", code)
	}
	var rep struct {
		SLOEvents  int64 `json:"slo_events"`
		Violations int64 `json:"total_violations"`
		Rules      map[string]struct {
			Episodes int64 `json:"episodes"`
			Fired    int64 `json:"fired"`
			Open     int64 `json:"open"`
		} `json:"rules"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("parse slo JSON: %v", err)
	}
	if rep.SLOEvents != 4 || rep.Violations != 0 {
		t.Errorf("slo JSON events/violations = %d/%d, want 4/0", rep.SLOEvents, rep.Violations)
	}
	if r := rep.Rules["mos-floor"]; r.Episodes != 1 || r.Fired != 1 {
		t.Errorf("mos-floor = %+v", r)
	}
	if r := rep.Rules["miss-rate"]; r.Open != 1 {
		t.Errorf("miss-rate = %+v", r)
	}

	if code, _, _ := exec(t, "slo", sloDirty); code != 1 {
		t.Errorf("slo on dirty trace exited %d, want 1", code)
	}
	if code, _, _ := exec(t, "slo", filepath.Join("testdata", "no-such.jsonl")); code != 1 {
		t.Errorf("slo on missing file exited %d, want 1", code)
	}
	if code, _, _ := exec(t, "slo"); code != 2 {
		t.Errorf("slo with no files exited %d, want 2", code)
	}
	if code, _, stderr := exec(t, "slo", "-export", "svg", sloTrace); code != 2 ||
		!strings.Contains(stderr, "unknown slo export format") {
		t.Errorf("bad export format: code %d, stderr %q", code, stderr)
	}
	if code, _, _ := exec(t, "slo", "-export", "chrome", sloTrace, sloTrace); code != 2 {
		t.Errorf("export with two files exited %d, want usage error", code)
	}

	outPath := filepath.Join(t.TempDir(), "slo.json")
	if code, stdout, stderr := exec(t, "slo", "-export", "chrome", "-o", outPath, sloTrace); code != 0 || stdout != "" {
		t.Fatalf("slo -export -o: code %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "slo-chrome.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Error("slo -export -o output differs from stdout golden")
	}

	data, err := os.ReadFile(sloTrace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := run([]string{"slo", "-"}, bytes.NewReader(data), &buf, &buf); code != 0 ||
		!strings.Contains(buf.String(), "slo lint: clean") {
		t.Fatalf("slo over stdin: code %d, out %q", code, buf.String())
	}
}
