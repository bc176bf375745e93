package enforce

import (
	"strings"
	"testing"

	"plabi/internal/policy"
	"plabi/internal/report"
)

// programOver builds the program of report "r" over the prescriptions
// fixture under the given PLAs, for role analyst and purpose quality.
func programOver(t *testing.T, plas, query string) (*ReportEnforcer, *Program) {
	t.Helper()
	e := NewReportEnforcer(registryWith(t, plas), fixtureCatalog(), Config{})
	p, _, err := e.ProgramFor(&report.Definition{ID: "r", Query: query}, "analyst", "quality")
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

// TestProgramPrunesShadowedAllow: an allow fully covered by an
// unconditional deny in a co-governing report-level agreement is pruned
// from the residual rule set (PL001), and the pruning is recorded with
// its reason.
func TestProgramPrunesShadowedAllow(t *testing.T) {
	_, p := programOver(t, `
pla "src" { owner "h"; level source; scope "prescriptions";
    allow attribute drug; allow attribute patient; }
pla "lock" { owner "h"; level report; scope "r"; deny attribute patient; }`,
		"SELECT drug, patient FROM prescriptions")
	if p.TotalRules != 3 || p.LiveRules != 2 || len(p.Pruned) != 1 {
		t.Fatalf("rules: total=%d live=%d pruned=%d, want 3/2/1", p.TotalRules, p.LiveRules, len(p.Pruned))
	}
	pr := p.Pruned[0]
	if pr.PLA != "src" || pr.Attribute != "patient" || !strings.Contains(pr.Reason, "lock") {
		t.Fatalf("pruned rule = %+v", pr)
	}
}

// TestProgramNoCrossScopeShadowing: source-level denies only shadow
// within their own scope — a deny on one table says nothing about a
// same-named attribute of another.
func TestProgramNoCrossScopeShadowing(t *testing.T) {
	plas, err := policy.ParseFile(`
pla "one" { owner "h"; level source; scope "t1"; allow attribute x; }
pla "two" { owner "h"; level source; scope "t2"; deny attribute x; }`)
	if err != nil {
		t.Fatal(err)
	}
	if pruned := pruneDeadRules(policy.Compose(plas...)); len(pruned) != 0 {
		t.Fatalf("cross-scope shadowing assumed: pruned %+v", pruned)
	}
}

// TestProgramBakesMergedThresholds: thresholds merge most-restrictive
// per grouping attribute and arrive pre-sorted; they only survive into
// aggregated programs — a flat report under a threshold is refused.
func TestProgramBakesMergedThresholds(t *testing.T) {
	const plas = `
pla "a" { owner "h"; level source; scope "prescriptions";
    allow attribute *; aggregate min 3 by patient; }
pla "b" { owner "h"; level report; scope "r"; aggregate min 5 by patient; }`
	_, agg := programOver(t, plas, "SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug")
	if len(agg.Thresholds) != 1 {
		t.Fatalf("thresholds = %+v, want one merged entry", agg.Thresholds)
	}
	th := agg.Thresholds[0]
	if th.By != "patient" || th.Min != 5 {
		t.Fatalf("merged threshold = %+v, want min 5 by patient", th)
	}
	if len(th.PLAs) != 2 {
		t.Fatalf("threshold PLAs = %v, want both agreements", th.PLAs)
	}

	_, flat := programOver(t, plas, "SELECT drug, patient FROM prescriptions")
	if len(flat.Thresholds) != 0 || !flat.Blocked() {
		t.Fatalf("non-aggregated program: thresholds %+v, blocked %v", flat.Thresholds, flat.Blocked())
	}
}

// TestExplainDeterministic: Explain output is stable across calls and
// names every section the docs promise.
func TestExplainDeterministic(t *testing.T) {
	_, p := programOver(t, `
pla "src" { owner "h"; level source; scope "prescriptions";
    allow attribute *; aggregate min 2 by patient; }`,
		"SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug")
	out := p.Explain()
	if out != p.Explain() {
		t.Fatal("Explain is not deterministic")
	}
	for _, want := range []string{
		"residual program r (role analyst, purpose quality)",
		"generations:",
		"governing PLAs (1): src",
		"rules: 1 total, 1 live, 0 pruned (PL001)",
		`min 2 by "patient"`,
		"row filters: none",
		"n: aggregate (threshold-governed)",
		"pipeline: exec -> thresholds -> mask",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainBlockedShortCircuits: a refused program explains as a
// compile-time constant and omits the pipeline line.
func TestExplainBlockedShortCircuits(t *testing.T) {
	_, p := programOver(t, `
pla "src" { owner "h"; level source; scope "prescriptions";
    allow attribute *; aggregate min 2 by patient; }`,
		"SELECT drug, patient FROM prescriptions")
	out := p.Explain()
	if !strings.Contains(out, "render is a compile-time constant") {
		t.Fatalf("static refusal not explained:\n%s", out)
	}
	if strings.Contains(out, "pipeline:") {
		t.Fatalf("refused program still prints a pipeline:\n%s", out)
	}
}

// TestExplainMaskOnlyProgram: static mask decisions alone do not make a
// render constant. The program explains its columns and pipeline, and
// the render releases every row with the denied column masked.
func TestExplainMaskOnlyProgram(t *testing.T) {
	e, p := programOver(t, `
pla "src" { owner "hospital"; level source; scope "prescriptions";
    allow attribute drug; allow attribute date; }`,
		"SELECT patient, drug FROM prescriptions")
	if len(p.Static) == 0 || p.Blocked() {
		t.Fatalf("want a mask-only program, static = %v", p.Static)
	}
	out := p.Explain()
	for _, want := range []string{
		"  thresholds: none\n",
		"  row filters: none\n",
		"    - patient: mask (access-default-deny)\n",
		"    - drug: release\n",
		"  pipeline: exec -> mask\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "compile-time constant") {
		t.Errorf("mask-only program explained as a constant:\n%s", out)
	}
	enf, err := e.Render(&report.Definition{ID: "r", Query: "SELECT patient, drug FROM prescriptions"},
		report.Consumer{Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	if n := enf.Table.NumRows(); n != 5 || enf.MaskedCells != 5 {
		t.Fatalf("render: %d rows, %d masked cells, want 5 and 5", n, enf.MaskedCells)
	}
}
