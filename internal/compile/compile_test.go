package compile

import (
	"strings"
	"testing"

	"plabi/internal/policy"
)

func mustParse(t *testing.T, src string) []*policy.PLA {
	t.Helper()
	plas, err := policy.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return plas
}

// TestCompilePrunesShadowedAllow: an allow fully covered by an
// unconditional deny in a co-governing report-level agreement is pruned
// from the residual rule set (PL001), and the pruning is recorded with
// its reason.
func TestCompilePrunesShadowedAllow(t *testing.T) {
	plas := mustParse(t, `
pla "src" { owner "h"; level source; scope "t";
    allow attribute a; allow attribute b; }
pla "lock" { owner "h"; level report; scope "r"; deny attribute b; }`)
	p := Compile(Input{
		Report: "r", Role: "analyst", Purpose: "quality",
		Composite: policy.Compose(plas...),
	})
	if p.TotalRules != 3 || p.LiveRules != 2 || len(p.Pruned) != 1 {
		t.Fatalf("rules: total=%d live=%d pruned=%d, want 3/2/1", p.TotalRules, p.LiveRules, len(p.Pruned))
	}
	pr := p.Pruned[0]
	if pr.PLA != "src" || pr.Attribute != "b" || !strings.Contains(pr.Reason, "lock") {
		t.Fatalf("pruned rule = %+v", pr)
	}
}

// TestCompileNoCrossScopeShadowing: source-level denies only shadow
// within their own scope — a deny on one table says nothing about a
// same-named attribute of another.
func TestCompileNoCrossScopeShadowing(t *testing.T) {
	plas := mustParse(t, `
pla "one" { owner "h"; level source; scope "t1"; allow attribute x; }
pla "two" { owner "h"; level source; scope "t2"; deny attribute x; }`)
	p := Compile(Input{Report: "r", Composite: policy.Compose(plas...)})
	if len(p.Pruned) != 0 {
		t.Fatalf("cross-scope shadowing assumed: pruned %+v", p.Pruned)
	}
}

// TestCompileBakesMergedThresholds: thresholds merge most-restrictive
// per grouping attribute and arrive pre-sorted; they only survive into
// aggregated programs.
func TestCompileBakesMergedThresholds(t *testing.T) {
	plas := mustParse(t, `
pla "a" { owner "h"; level source; scope "t";
    allow attribute *; aggregate min 3 by patient; }
pla "b" { owner "h"; level report; scope "r"; aggregate min 5 by patient; }`)
	comp := policy.Compose(plas...)

	agg := Compile(Input{Report: "r", Aggregated: true, Composite: comp})
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

	flat := Compile(Input{Report: "r", Aggregated: false, Composite: comp})
	if len(flat.Thresholds) != 0 {
		t.Fatalf("non-aggregated program carries thresholds: %+v", flat.Thresholds)
	}
}

// TestExplainDeterministic: Explain output is stable across calls and
// names every section the docs promise.
func TestExplainDeterministic(t *testing.T) {
	plas := mustParse(t, `
pla "src" { owner "h"; level source; scope "t";
    allow attribute *; aggregate min 2 by patient; }`)
	p := Compile(Input{
		Report: "r", Role: "analyst", Purpose: "quality",
		Aggregated: true,
		Composite:  policy.Compose(plas...),
		Columns: []ColumnPlan{
			{Name: "drug"},
			{Name: "n", Aggregate: true},
		},
	})
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

// TestExplainStaticVerdictShortCircuits: a program with folded verdicts
// explains as a compile-time constant and omits the pipeline line.
func TestExplainStaticVerdictShortCircuits(t *testing.T) {
	plas := mustParse(t, `
pla "src" { owner "h"; level source; scope "t"; deny attribute x; }`)
	p := Compile(Input{
		Report:    "r",
		Composite: policy.Compose(plas...),
		Static: []Verdict{{
			Outcome: "block", Rule: "attribute-access", Subject: "x",
			Detail: "denied", PLAs: []string{"src"},
		}},
	})
	out := p.Explain()
	if !strings.Contains(out, "render is a compile-time constant") {
		t.Fatalf("static fold not explained:\n%s", out)
	}
	if strings.Contains(out, "pipeline:") {
		t.Fatalf("static program still prints a pipeline:\n%s", out)
	}
}
