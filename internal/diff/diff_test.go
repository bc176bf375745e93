package diff_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plabi/internal/core"
	"plabi/internal/diff"
	"plabi/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// scenarioState builds the standard healthcare deployment with a corpus
// bundle layered on top and returns its diffable state. A small fixed
// workload keeps the corpus fast; impact analysis never reads data.
func scenarioState(t *testing.T, bundle string) *diff.State {
	t.Helper()
	cfg := workload.DefaultConfig(1)
	cfg.Prescriptions = 60
	cfg.Patients = 20
	e, _, err := core.BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if bundle != "" {
		src, err := os.ReadFile(filepath.Join("testdata", bundle))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddPLAs(string(src)); err != nil {
			t.Fatalf("layer %s: %v", bundle, err)
		}
	}
	return e.DiffState()
}

var corpus = []string{"pd001", "pd002", "pd003", "pd004", "pd005"}

// auditBundle is the audit example's agreements, a bundle relative to
// testdata like the corpus.
const auditBundle = "../../../examples/audit/policy.pla"

// TestGoldenCorpus proves each impact class is detected by its code,
// with byte-identical output across two fully independent runs (fresh
// engines both times), pinned against a golden file.
func TestGoldenCorpus(t *testing.T) {
	for _, name := range corpus {
		t.Run(name, func(t *testing.T) {
			code := strings.ToUpper(name)
			var runs [2]string
			for i := range runs {
				oldS := scenarioState(t, name+".old.pla")
				newS := scenarioState(t, name+".new.pla")
				imps, err := diff.Diff(oldS, newS)
				if err != nil {
					t.Fatal(err)
				}
				var b bytes.Buffer
				if err := diff.WriteText(&b, imps); err != nil {
					t.Fatal(err)
				}
				runs[i] = b.String()
				if i == 0 {
					hit := false
					for _, im := range imps {
						if im.Code == code {
							hit = true
							break
						}
					}
					if !hit {
						t.Errorf("no %s impact emitted:\n%s", code, b.String())
					}
				}
			}
			if runs[0] != runs[1] {
				t.Fatalf("non-deterministic output:\n--- run 1 ---\n%s--- run 2 ---\n%s", runs[0], runs[1])
			}
			goldenPath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(runs[0]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if runs[0] != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, runs[0], want)
			}
		})
	}
}

// TestGoldenJSON pins the machine-readable output format on the PD001
// corpus pair.
func TestGoldenJSON(t *testing.T) {
	oldS := scenarioState(t, "pd001.old.pla")
	newS := scenarioState(t, "pd001.new.pla")
	imps, err := diff.Diff(oldS, newS)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := diff.WriteJSON(&b, imps); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "pd001.json.golden")
	if *update {
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("JSON output differs:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestIdentityDiffSilent: a state diffed against an equally built state
// is empty, for the bare scenario and under every corpus bundle.
func TestIdentityDiffSilent(t *testing.T) {
	bundles := []string{""}
	for _, name := range corpus {
		bundles = append(bundles, name+".old.pla", name+".new.pla")
	}
	for _, bundle := range bundles {
		label := bundle
		if label == "" {
			label = "bare"
		}
		t.Run(label, func(t *testing.T) {
			a := scenarioState(t, bundle)
			b := scenarioState(t, bundle)
			imps, err := diff.Diff(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(imps) != 0 {
				var buf bytes.Buffer
				_ = diff.WriteText(&buf, imps)
				t.Fatalf("identity diff produced %d impacts:\n%s", len(imps), buf.String())
			}
		})
	}
}

// TestExpansionsAsymmetric: reversing a restricting change turns its
// warnings into error-severity expansions — the property the plabid
// reload gate keys on.
func TestExpansionsAsymmetric(t *testing.T) {
	oldS := scenarioState(t, "pd005.old.pla")
	newS := scenarioState(t, "pd005.new.pla")
	forward, err := diff.Diff(oldS, newS)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Expansions(forward)) == 0 {
		t.Error("mask drop produced no expansion impacts")
	}
	reverse, err := diff.Diff(newS, oldS)
	if err != nil {
		t.Fatal(err)
	}
	if exp := diff.Expansions(reverse); len(exp) != 0 {
		var b bytes.Buffer
		_ = diff.WriteText(&b, exp)
		t.Errorf("re-adding a mask must not count as expansion:\n%s", b.String())
	}
}

// TestValidateScenarioClean is the PD000 acceptance gate: the compiled
// residual program of every (report, role, purpose) triple in the full
// scenario — bare, under the audit example's bundle (the two states make
// lint diffs) and under every corpus bundle — matches its independent
// interpreted recomputation.
func TestValidateScenarioClean(t *testing.T) {
	bundles := []string{"", auditBundle}
	for _, name := range corpus {
		bundles = append(bundles, name+".old.pla", name+".new.pla")
	}
	for _, bundle := range bundles {
		label := bundle
		switch bundle {
		case "":
			label = "bare"
		case auditBundle:
			label = "audit-example"
		}
		t.Run(label, func(t *testing.T) {
			s := scenarioState(t, bundle)
			imps, err := diff.Validate(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(imps) != 0 {
				var b bytes.Buffer
				_ = diff.WriteText(&b, imps)
				t.Fatalf("PD000: %d compiler divergences:\n%s", len(imps), b.String())
			}
		})
	}
}

// TestFilterAndSeverity exercises the severity plumbing on a corpus
// pair with mixed severities.
func TestFilterAndSeverity(t *testing.T) {
	oldS := scenarioState(t, "pd003.old.pla")
	newS := scenarioState(t, "pd003.new.pla")
	imps, err := diff.Diff(oldS, newS)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) == 0 {
		t.Fatal("threshold loosening produced no impacts")
	}
	max := diff.MaxSeverity(imps)
	kept := diff.Filter(imps, max)
	if len(kept) == 0 {
		t.Fatalf("Filter at max severity %v dropped everything", max)
	}
	for _, im := range kept {
		if im.Severity < max {
			t.Errorf("Filter(%v) kept %v finding %s", max, im.Severity, im.Code)
		}
	}
	if got := len(diff.Filter(imps, 0)); got != len(imps) {
		t.Errorf("Filter(info) kept %d of %d", got, len(imps))
	}
}
