package enforce_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plabi/internal/core"
	"plabi/internal/report"
	"plabi/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/explain.golden")

// TestExplainGolden pins ExplainCompiled's text for every (report, role)
// pair of the healthcare scenario, bare and under every internal/diff
// corpus bundle. The roles are each report's declared roles plus the
// anonymous one. Run with -update to rewrite testdata/explain.golden.
func TestExplainGolden(t *testing.T) {
	bundles, err := filepath.Glob(filepath.Join("..", "diff", "testdata", "*.pla"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no corpus bundles: %v", err)
	}
	var b strings.Builder
	for _, bundle := range append([]string{""}, bundles...) {
		cfg := workload.DefaultConfig(1)
		cfg.Prescriptions = 60
		cfg.Patients = 20
		e, _, err := core.BuildHealthcareEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := "(bare)"
		if bundle != "" {
			name = filepath.Base(bundle)
			src, err := os.ReadFile(bundle)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddPLAs(string(src)); err != nil {
				t.Fatalf("layer %s: %v", bundle, err)
			}
		}
		fmt.Fprintf(&b, "=== %s\n", name)
		for _, def := range e.Reports.All() {
			for _, role := range append(append([]string(nil), def.Roles...), "") {
				out, err := e.ExplainCompiled(def.ID, report.Consumer{Role: role, Purpose: def.Purpose})
				if err != nil {
					t.Fatalf("%s %s/%s: %v", name, def.ID, role, err)
				}
				b.WriteString(out)
			}
		}
		e.Close()
	}
	golden := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("Explain drifted from %s at line %d:\n  got:  %q\n  want: %q", golden, i+1, g, w)
			}
		}
	}
}
