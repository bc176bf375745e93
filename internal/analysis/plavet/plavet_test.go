package plavet

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantMarkers reads the `// want PVnnn` annotations out of a source
// file: line number -> expected code.
func wantMarkers(t *testing.T, path string) map[int]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[int]string{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		_, marker, ok := strings.Cut(sc.Text(), "// want ")
		if !ok {
			continue
		}
		want[line] = strings.Fields(marker)[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSamplePackage type-checks the testdata package and compares the
// findings line-by-line against its `// want` annotations — both
// directions: every marker fires, nothing unmarked fires.
func TestSamplePackage(t *testing.T) {
	dir := filepath.Join("testdata", "src", "sample")
	findings, err := NewChecker().Dir(dir)
	if err != nil {
		t.Fatalf("Dir(%s): %v", dir, err)
	}
	want := wantMarkers(t, filepath.Join(dir, "sample.go"))
	got := map[int]string{}
	for _, f := range findings {
		if prev, dup := got[f.Pos.Line]; dup {
			t.Errorf("line %d: two findings (%s, %s)", f.Pos.Line, prev, f.Code)
		}
		got[f.Pos.Line] = f.Code
		if f.Message == "" || f.Pos.Filename == "" {
			t.Errorf("finding %v lacks message or position", f)
		}
	}
	for line, code := range want {
		if got[line] != code {
			t.Errorf("line %d: want %s, got %q", line, code, got[line])
		}
	}
	for line, code := range got {
		if want[line] == "" {
			t.Errorf("line %d: unexpected finding %s", line, code)
		}
	}
}

// TestRepoClean runs the pass over the whole repository — the gate the
// Makefile lint target enforces. Production code must not drop an audit
// write's sink outcome silently.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full repo; skipped in -short")
	}
	findings, err := NewChecker().Tree(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatalf("Tree(repo root): %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestFindingOrderDeterministic vets the same directory twice and
// requires identical output, line for line.
func TestFindingOrderDeterministic(t *testing.T) {
	dir := filepath.Join("testdata", "src", "sample")
	render := func() string {
		findings, err := NewChecker().Dir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range findings {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("non-deterministic findings:\n--- first\n%s--- second\n%s", a, b)
	}
}
