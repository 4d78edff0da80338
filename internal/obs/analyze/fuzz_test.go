package analyze

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// fuzzFamilies runs one input through every event family and returns each
// family's line count and violations.
var fuzzFamilies = []struct {
	name string
	run  func(r io.Reader) (lines int64, vs []Violation, err error)
}{
	{"packet", func(r io.Reader) (int64, []Violation, error) {
		rep, err := Analyze(r, Options{MaxViolations: -1, KeepEpisodes: true, WindowUS: 1000})
		if err != nil {
			return 0, nil, err
		}
		return rep.Lines, rep.Violations, nil
	}},
	{"fleet", func(r io.Reader) (int64, []Violation, error) {
		rep, err := AnalyzeFleet(r, -1)
		if err != nil {
			return 0, nil, err
		}
		return rep.Lines, rep.Violations, nil
	}},
	{"slo", func(r io.Reader) (int64, []Violation, error) {
		rep, err := AnalyzeSLO(r, -1)
		if err != nil {
			return 0, nil, err
		}
		return rep.Lines, rep.Violations, nil
	}},
}

// FuzzAnalyze feeds arbitrary JSONL to every family's analyzer and asserts
// two invariants for each: it never panics, and its decode-kind violations
// identify exactly the non-blank lines obs.DecodeEvent rejects — no silent
// acceptance of malformed lines, no spurious rejection of valid ones.
func FuzzAnalyze(f *testing.F) {
	var sample [][]byte
	for _, ev := range obs.SampleEvents() {
		line, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		sample = append(sample, line)
	}
	f.Add(bytes.Join(sample, []byte("\n")))
	f.Add([]byte(""))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte("not json\n" + `{"t_us":1,"ev":"warp","seq":-1}` + "\n"))
	f.Add([]byte(`{"t_us":100,"ev":"link-switch","node":"c","seq":1,"detail":"to-secondary"}` + "\n" +
		`{"t_us":200,"ev":"retrieve-from-secondary","node":"c","seq":1,"dur_us":100}`))
	f.Add([]byte(`{"t_us":9223372036854775807,"ev":"playout-miss","node":"c","seq":0}`))
	for _, name := range []string{"fleet.trace.jsonl", "slo.trace.jsonl"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "tracetool", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A lease grant without its span token decodes fine: the finding is a
	// lease violation, not a decode one.
	f.Add([]byte(`{"t_us":1,"ev":"lease-grant","run":"fleet/a","node":"w0","seq":1,"detail":"src=coord"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.Split(data, []byte("\n"))
		// A trailing newline yields a final empty fragment the scanner
		// never sees as a line.
		if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
			lines = lines[:n-1]
		}
		for _, fam := range fuzzFamilies {
			gotLines, vs, err := fam.run(bytes.NewReader(data))
			if err != nil {
				// Only a reader failure reaches here; bytes.Reader cannot
				// fail short of a line exceeding the scanner limit.
				if len(data) < maxLineBytes {
					t.Fatalf("%s: error on small input: %v", fam.name, err)
				}
				continue
			}
			decodeViol := make(map[int64]bool)
			for _, v := range vs {
				if v.Kind == VDecode {
					if decodeViol[v.Line] {
						t.Errorf("%s: duplicate decode violation for line %d", fam.name, v.Line)
					}
					decodeViol[v.Line] = true
				}
			}
			for i, line := range lines {
				ln := int64(i + 1)
				trimmed := bytes.TrimSpace(line)
				if len(trimmed) == 0 {
					if decodeViol[ln] {
						t.Errorf("%s: line %d: blank line flagged as decode violation", fam.name, ln)
					}
					continue
				}
				_, derr := obs.DecodeEvent(trimmed)
				if (derr != nil) != decodeViol[ln] {
					t.Errorf("%s: line %d: DecodeEvent err=%v but decode violation=%v (line %q)",
						fam.name, ln, derr, decodeViol[ln], trimmed)
				}
			}
			if int64(len(lines)) != gotLines {
				t.Errorf("%s: lines = %d, report says %d", fam.name, len(lines), gotLines)
			}
		}
	})
}
