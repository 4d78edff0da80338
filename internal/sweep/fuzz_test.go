package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec feeds arbitrary documents to ParseSpec, the sweep-v1 trust
// boundary. Rejection is fine; a panic is not, and an accepted spec must
// re-parse from its own JSON encoding to the same job stream (Hash and
// Total) — the round trip HTTPTransport.FetchSpec puts every spec through.
// Seeded with the example sweeps.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../examples/sweeps/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example sweeps to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := ParseSpec(doc)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("accepted spec does not re-parse from %s: %v", enc, err)
		}
		if again.Hash() != s.Hash() || again.Total() != s.Total() {
			t.Fatalf("round trip changed the job stream: hash %s→%s, total %d→%d",
				s.Hash(), again.Hash(), s.Total(), again.Total())
		}
	})
}
