package lint_test

import (
	"errors"
	"strings"
	"testing"

	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/lint"
	"plabi/internal/policy"
	"plabi/internal/relation"
)

// guardVerdicts runs pipe under the PLA guard and lints it, returning the
// run's violation (nil when it ran through) and the PL006 findings of
// error severity.
func guardVerdicts(t *testing.T, plas string, pipe *etl.Pipeline) (*etl.ViolationError, []lint.Finding) {
	t.Helper()
	parsed, err := policy.ParseFile(plas)
	if err != nil {
		t.Fatal(err)
	}
	p := &lint.Pass{PLAs: parsed, Pipelines: []*etl.Pipeline{pipe}}
	var errs []lint.Finding
	for _, f := range lint.Run(p) {
		if f.Code == "PL006" && f.Severity == lint.SevError {
			errs = append(errs, f)
		}
	}
	_, err = pipe.Run(etl.NewContext(enforce.NewPLAGuard(p.Registry)), false)
	var ve *etl.ViolationError
	if err != nil && !errors.As(err, &ve) {
		t.Fatalf("run: %v", err)
	}
	return ve, errs
}

// TestProjectionDoesNotHideAJoinedTable: a ⋈ c projected to c's column
// still derives every row from a, so joining it with b is refused at run
// time — with an aggregate between them too — and PL006 reports the same
// pair under the same agreement.
func TestProjectionDoesNotHideAJoinedTable(t *testing.T) {
	const plas = `pla "a-src" { owner "oa"; level source; scope "a"; allow attribute *; allow join with c; forbid join with b; }`
	a := relation.NewBase("a", relation.NewSchema(relation.Col("aid", relation.TInt), relation.Col("ac", relation.TInt)))
	b := relation.NewBase("b", relation.NewSchema(relation.Col("bname", relation.TString), relation.Col("bval", relation.TInt)))
	c := relation.NewBase("c", relation.NewSchema(relation.Col("cid", relation.TInt), relation.Col("cname", relation.TString)))
	for i := range 3 {
		a.AppendVals(relation.Int(int64(i)), relation.Int(int64(i)))
		c.AppendVals(relation.Int(int64(i)), relation.Str(string(rune('x'+i))))
		b.AppendVals(relation.Str(string(rune('x'+i))), relation.Int(int64(10*i)))
	}
	src := etl.NewSource("s", "s", a, b, c)
	for _, aggregate := range []bool{false, true} {
		steps := []etl.Step{
			etl.NewExtract("ext-a", src, "a", ""),
			etl.NewExtract("ext-b", src, "b", ""),
			etl.NewExtract("ext-c", src, "c", ""),
			etl.NewJoin("join-ac", "a", "c", relation.Eq(relation.ColRefExpr("l.ac"), relation.ColRefExpr("r.cid")), relation.InnerJoin, "ac"),
			etl.NewProject("only-c", "ac", "names", "cname"),
		}
		if aggregate {
			steps = append(steps, etl.NewAggregate("count", "names", "names", []string{"cname"}, []relation.AggSpec{{Kind: relation.AggCount}}))
		}
		steps = append(steps, etl.NewJoin("join-b", "names", "b",
			relation.Eq(relation.ColRefExpr("l.cname"), relation.ColRefExpr("r.bname")), relation.InnerJoin, "out"))
		ve, fs := guardVerdicts(t, plas, &etl.Pipeline{Name: "hide", Steps: steps})
		if ve == nil || ve.Step != "join-b" || ve.Rule != "join-permission" || !strings.HasPrefix(ve.Detail, "a join b:") || !strings.Contains(ve.Detail, "a-src") {
			t.Errorf("aggregate=%v: run violation = %+v, want join-b refused as a join b by a-src", aggregate, ve)
		}
		if len(fs) != 1 || fs[0].Subject != "hide/join-b: a JOIN b" || len(fs[0].PLAs) != 1 || fs[0].PLAs[0] != "a-src" {
			t.Errorf("aggregate=%v: PL006 = %v, want join-b's a JOIN b under a-src", aggregate, fs)
		}
	}
}

// TestSelfDerivationIsOneTable: a table named Rx joined with a projection
// of itself derives from one table whatever the case of its name, so a PLA
// that allows joins with one other table only refuses neither the run nor
// the lint.
func TestSelfDerivationIsOneTable(t *testing.T) {
	const plas = `pla "rx-src" { owner "h"; level source; scope "rx"; allow attribute *; allow join with drugcost; }`
	rx := relation.NewBase("Rx", relation.NewSchema(relation.Col("patient", relation.TString), relation.Col("drug", relation.TString)))
	rx.AppendVals(relation.Str("Alice"), relation.Str("DH"))
	src := etl.NewSource("hospital", "hospital", rx)
	pipe := &etl.Pipeline{Name: "self", Steps: []etl.Step{
		etl.NewExtract("ext-rx", src, "Rx", "rx"),
		etl.NewProject("patients", "rx", "patients", "patient"),
		etl.NewJoin("rejoin", "rx", "patients", relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")), relation.InnerJoin, "out"),
	}}
	ve, fs := guardVerdicts(t, plas, pipe)
	if ve != nil {
		t.Errorf("run refused the self-derivation: %v", ve)
	}
	if len(fs) != 0 {
		t.Errorf("PL006 = %v, want none", fs)
	}
}

// TestPL006ReportsStepFailingOverZeroRows: a step the zero-row run cannot
// take is one warning naming it, not a silent pass.
func TestPL006ReportsStepFailingOverZeroRows(t *testing.T) {
	pipe := fixturePipeline()
	pipe.Steps = append(pipe.Steps, etl.NewProject("bad-project", "rx_fd", "slim", "no_such_column"))
	p := &lint.Pass{PLAs: parseTestdata(t, "pl006.pla"), Pipelines: []*etl.Pipeline{pipe}}
	var warned []lint.Finding
	for _, f := range lint.Run(p) {
		if f.Code == "PL006" && strings.Contains(f.Subject, "bad-project") {
			warned = append(warned, f)
		}
	}
	if len(warned) != 1 || warned[0].Severity != lint.SevWarning || !strings.Contains(warned[0].Message, "no_such_column") {
		t.Errorf("findings for bad-project = %v, want one warning with the step's error", warned)
	}
}

// TestCanonProjectionDoesNotHideADonor: a canon drawn from residents ⋈ x
// and projected to residents' column still derives from x, so x's
// prohibition refuses the resolution at run time, and PL006 reports the
// same donor at the rule that forbids it.
func TestCanonProjectionDoesNotHideADonor(t *testing.T) {
	const plas = `pla "x-src" { owner "ox"; level source; scope "x"; allow attribute *;
    forbid integration for familydoctors; }`
	residents := relation.NewBase("residents", relation.NewSchema(relation.Col("name", relation.TString), relation.Col("k", relation.TInt)))
	residents.AppendVals(relation.Str("Alice Rossi"), relation.Int(1))
	x := relation.NewBase("x", relation.NewSchema(relation.Col("xk", relation.TInt)))
	x.AppendVals(relation.Int(1))
	fd := relation.NewBase("familydoctor", relation.NewSchema(relation.Col("patient", relation.TString)))
	fd.AppendVals(relation.Str("Alice Rosi"))
	src := etl.NewSource("registry", "registry", residents, x, fd)
	pipe := &etl.Pipeline{Name: "canon", Steps: []etl.Step{
		etl.NewExtract("ext-residents", src, "residents", ""),
		etl.NewExtract("ext-x", src, "x", ""),
		etl.NewExtract("ext-fd", src, "familydoctor", ""),
		etl.NewJoin("join-x", "residents", "x", relation.Eq(relation.ColRefExpr("l.k"), relation.ColRefExpr("r.xk")), relation.InnerJoin, "rx"),
		etl.NewProject("names", "rx", "names", "name"),
		etl.NewEntityResolution("resolve", "familydoctor", "patient", "names", "name", "familydoctors", 0.9, "resolved"),
	}}
	ve, fs := guardVerdicts(t, plas, pipe)
	if ve == nil || ve.Step != "resolve" || ve.Rule != "integration-permission" || !strings.HasPrefix(ve.Detail, "donor x cleaning data of familydoctors:") {
		t.Errorf("run violation = %+v, want resolve refused for donor x", ve)
	}
	if len(fs) != 1 || fs[0].Subject != "canon/resolve: x for familydoctors" || len(fs[0].PLAs) != 1 || fs[0].PLAs[0] != "x-src" || fs[0].Pos.Line != 2 {
		t.Errorf("PL006 = %v, want resolve's x for familydoctors at x-src's rule", fs)
	}
}
