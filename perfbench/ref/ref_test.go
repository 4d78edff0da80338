package ref

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWorkIsDeterministic(t *testing.T) {
	a, b := Work(), Work()
	if a != b || a == 0 {
		t.Fatalf("Work checksums %#x and %#x; want equal and nonzero", a, b)
	}
}

// TestImportsOnlyStdlib keeps the reference frozen: a package that
// imported any of the program's code would move whenever the program did,
// and could no longer cancel host drift out of the program's timings.
func TestImportsOnlyStdlib(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(files))
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "repro/") || strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
				t.Errorf("%s imports %q; the reference may import only the standard library", name, path)
			}
		}
	}
}

func BenchmarkWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Work()
	}
}
