package etl

import (
	"errors"
	"strings"
	"testing"

	"plabi/internal/obs"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

// denyGuard forbids one join pair and one integration beneficiary.
type denyGuard struct {
	joinA, joinB string
	beneficiary  string
}

func (g denyGuard) CheckJoin(l, r string) error {
	if (l == g.joinA && r == g.joinB) || (l == g.joinB && r == g.joinA) {
		return errors.New("forbidden by PLA")
	}
	return nil
}

func (g denyGuard) CheckIntegration(donor, beneficiary string) error {
	if beneficiary == g.beneficiary {
		return errors.New("forbidden by PLA")
	}
	return nil
}

func sources() (*Source, *Source, *Source) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	fam := NewSource("familydoctors", "familydoctors", workload.FamilyDoctorFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	return hosp, fam, agency
}

func TestExtractAndTransform(t *testing.T) {
	hosp, _, _ := sources()
	c := NewContext(nil)
	p := &Pipeline{Name: "test", Steps: []Step{
		NewExtract("ext", hosp, "prescriptions", ""),
		NewFilter("flt", "prescriptions", "asthma_only", relation.ColEqStr("disease", "asthma")),
		NewProject("prj", "asthma_only", "slim", "patient", "drug"),
	}}
	res, err := p.Run(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 3 {
		t.Errorf("steps = %d", res.StepsRun)
	}
	out, err := c.Get("slim")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Schema.Len() != 2 {
		t.Errorf("out = %v", out)
	}
	// Lineage must reach the original source rows.
	if !out.RowLineage(0).Contains(relation.RowRef{Table: "prescriptions", Row: 2}) {
		t.Errorf("lineage = %v", out.RowLineage(0))
	}
	// The graph recorded all steps.
	if steps := c.Graph.Upstream("slim"); len(steps) != 3 {
		t.Errorf("graph steps = %d", len(steps))
	}
}

func TestCleanse(t *testing.T) {
	dirty := relation.NewBase("d", relation.NewSchema(relation.Col("name", relation.TString)))
	dirty.AppendVals(relation.Str("  Alice   Rossi "))
	src := NewSource("s", "s", dirty)
	c := NewContext(nil)
	p := &Pipeline{Steps: []Step{
		NewExtract("e", src, "d", ""),
		NewCleanse("c", "d", "clean", "name"),
	}}
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	out, _ := c.Get("clean")
	if out.Get(0, "name").S != "Alice Rossi" {
		t.Errorf("cleansed = %q", out.Get(0, "name").S)
	}
}

func TestJoinAllowed(t *testing.T) {
	hosp, _, agency := sources()
	c := NewContext(denyGuard{joinA: "prescriptions", joinB: "familydoctor"})
	p := &Pipeline{Steps: []Step{
		NewExtract("e1", hosp, "prescriptions", ""),
		NewExtract("e2", agency, "drugcost", ""),
		NewJoin("j", "prescriptions", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")),
			relation.InnerJoin, "joined"),
	}}
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	out, _ := c.Get("joined")
	if out.NumRows() != 5 {
		t.Errorf("joined rows = %d", out.NumRows())
	}
	if !out.Schema.HasColumn("cost") {
		t.Errorf("schema = %s", out.Schema)
	}
}

// TestForbiddenJoinBlocked reproduces Fig. 3b: the ETL annotation forbids
// joining Prescriptions with Familydoctor, and the engine blocks it.
func TestForbiddenJoinBlocked(t *testing.T) {
	hosp, fam, _ := sources()
	c := NewContext(denyGuard{joinA: "prescriptions", joinB: "familydoctor"})
	p := &Pipeline{Steps: []Step{
		NewExtract("e1", hosp, "prescriptions", ""),
		NewExtract("e2", fam, "familydoctor", ""),
		NewJoin("j", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "joined"),
	}}
	res, err := p.Run(c, false)
	if err == nil || !IsViolation(err) {
		t.Fatalf("expected violation, got %v", err)
	}
	if len(res.Violations) != 1 {
		t.Errorf("violations = %v", res.Violations)
	}
	if _, gerr := c.Get("joined"); gerr == nil {
		t.Error("blocked join must not produce output")
	}
	var v *ViolationError
	if !errors.As(err, &v) || v.Rule != "join-permission" {
		t.Errorf("violation = %v", err)
	}
}

// TestForbiddenJoinCaughtAfterTransformation verifies the guard sees base
// tables through intermediate transformations.
func TestForbiddenJoinCaughtAfterTransformation(t *testing.T) {
	hosp, fam, _ := sources()
	c := NewContext(denyGuard{joinA: "prescriptions", joinB: "familydoctor"})
	p := &Pipeline{Steps: []Step{
		NewExtract("e1", hosp, "prescriptions", ""),
		NewExtract("e2", fam, "familydoctor", ""),
		NewProject("p1", "prescriptions", "slim", "patient", "drug"),
		NewJoin("j", "slim", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "joined"),
	}}
	_, err := p.Run(c, false)
	if !IsViolation(err) {
		t.Fatalf("expected violation through transformation, got %v", err)
	}
}

func TestContinueOnViolation(t *testing.T) {
	hosp, fam, agency := sources()
	c := NewContext(denyGuard{joinA: "prescriptions", joinB: "familydoctor"})
	p := &Pipeline{Steps: []Step{
		NewExtract("e1", hosp, "prescriptions", ""),
		NewExtract("e2", fam, "familydoctor", ""),
		NewExtract("e3", agency, "drugcost", ""),
		NewJoin("bad", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "bad_out"),
		NewJoin("good", "prescriptions", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")),
			relation.InnerJoin, "good_out"),
	}}
	res, err := p.Run(c, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.StepsRun != 4 {
		t.Errorf("violations=%d steps=%d", len(res.Violations), res.StepsRun)
	}
	if _, gerr := c.Get("good_out"); gerr != nil {
		t.Error("good join should have run")
	}
}

func TestEntityResolution(t *testing.T) {
	// Dirty familydoctor names resolved against the canonical hospital
	// patient list.
	canon := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
	for _, n := range []string{"Alice Rossi", "Bruno Verdi", "Carla Bianchi"} {
		canon.AppendVals(relation.Str(n))
	}
	dirty := relation.NewBase("familydoctor", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("doctor", relation.TString),
	))
	dirty.AppendVals(relation.Str("Alice Rosi"), relation.Str("Dr. A"))  // typo
	dirty.AppendVals(relation.Str("BRUNO verdi"), relation.Str("Dr. B")) // case
	dirty.AppendVals(relation.Str("Zoe Unknown"), relation.Str("Dr. C")) // no match

	c := NewContext(nil)
	c.Metrics = obs.New()
	c.Put("residents", canon)
	c.Put("familydoctor", dirty)
	er := NewEntityResolution("er", "familydoctor", "patient", "residents", "patient",
		"familydoctors", 0.9, "resolved")
	p := &Pipeline{Steps: []Step{er}}
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	out, _ := c.Get("resolved")
	if out.Get(0, "patient").S != "Alice Rossi" {
		t.Errorf("typo not resolved: %q", out.Get(0, "patient").S)
	}
	if out.Get(1, "patient").S != "Bruno Verdi" {
		t.Errorf("case not resolved: %q", out.Get(1, "patient").S)
	}
	if out.Get(2, "patient").S != "Zoe Unknown" {
		t.Errorf("unmatched must stay: %q", out.Get(2, "patient").S)
	}
	if r, u := c.Metrics.Counter("etl.er.resolved").Value(), c.Metrics.Counter("etl.er.unmatched").Value(); r != 2 || u != 1 {
		t.Errorf("stats: resolved=%d unmatched=%d", r, u)
	}
}

// TestIntegrationForbidden reproduces §5 v: the donor's PLA forbids using
// its data to clean the beneficiary's data.
func TestIntegrationForbidden(t *testing.T) {
	canon := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
	canon.AppendVals(relation.Str("Alice Rossi"))
	dirty := relation.NewBase("familydoctor", relation.NewSchema(relation.Col("patient", relation.TString)))
	dirty.AppendVals(relation.Str("Alice Rosi"))

	c := NewContext(denyGuard{beneficiary: "familydoctors"})
	c.Put("residents", canon)
	c.Put("familydoctor", dirty)
	er := NewEntityResolution("er", "familydoctor", "patient", "residents", "patient",
		"familydoctors", 0.9, "resolved")
	_, err := (&Pipeline{Steps: []Step{er}}).Run(c, false)
	if !IsViolation(err) {
		t.Fatalf("expected integration violation, got %v", err)
	}
	if !strings.Contains(err.Error(), "integration-permission") {
		t.Errorf("err = %v", err)
	}
}

func TestEntityResolutionAtScale(t *testing.T) {
	cfg := workload.DefaultConfig(11)
	cfg.Patients = 300
	cfg.DirtyRate = 0.3
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	c := NewContext(nil)
	c.Metrics = obs.New()
	c.Put("residents", ds.Residents)
	c.Put("familydoctor", ds.FamilyDoctor)
	er := NewEntityResolution("er", "familydoctor", "patient", "residents", "patient",
		"familydoctors", 0.88, "resolved")
	if _, err := (&Pipeline{Steps: []Step{er}}).Run(c, false); err != nil {
		t.Fatal(err)
	}
	out, _ := c.Get("resolved")
	clean := map[string]bool{}
	for _, n := range ds.PatientNames {
		clean[n] = true
	}
	bad := 0
	for i := 0; i < out.NumRows(); i++ {
		if !clean[out.Get(i, "patient").S] {
			bad++
		}
	}
	// At least 95% of references must resolve to canonical names.
	if float64(bad)/float64(out.NumRows()) > 0.05 {
		t.Errorf("%d/%d unresolved", bad, out.NumRows())
	}
	if c.Metrics.Counter("etl.er.resolved").Value() == 0 {
		t.Error("expected some resolutions")
	}
}

func TestAggregateStep(t *testing.T) {
	hosp, _, _ := sources()
	c := NewContext(nil)
	p := &Pipeline{Steps: []Step{
		NewExtract("e", hosp, "prescriptions", ""),
		NewAggregate("agg", "prescriptions", "by_drug",
			[]string{"drug"}, []relation.AggSpec{{Kind: relation.AggCount, As: "n"}}),
	}}
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	out, _ := c.Get("by_drug")
	if out.NumRows() != 4 {
		t.Errorf("groups = %d", out.NumRows())
	}
}

func TestStepErrors(t *testing.T) {
	hosp, _, _ := sources()
	c := NewContext(nil)
	// Missing staging input.
	p := &Pipeline{Steps: []Step{NewFilter("f", "ghost", "out", relation.Lit(relation.Bool(true)))}}
	if _, err := p.Run(c, false); err == nil {
		t.Error("missing input must fail")
	}
	// Missing source table.
	p2 := &Pipeline{Steps: []Step{NewExtract("e", hosp, "nope", "")}}
	if _, err := p2.Run(NewContext(nil), false); err == nil {
		t.Error("missing source table must fail")
	}
	// Operational errors are not violations.
	if IsViolation(errors.New("boom")) {
		t.Error("plain error must not be a violation")
	}
}

func TestObserver(t *testing.T) {
	hosp, _, _ := sources()
	c := NewContext(nil)
	var events []string
	c.Observe = func(step, op, output string, in, out int, err error) {
		events = append(events, step+":"+op)
	}
	p := &Pipeline{Steps: []Step{
		NewExtract("e", hosp, "prescriptions", ""),
		NewProject("p", "prescriptions", "out", "patient"),
	}}
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "e:extract" || events[1] != "p:project" {
		t.Errorf("events = %v", events)
	}
}

func TestExtractWithAlias(t *testing.T) {
	hosp, _, _ := sources()
	c := NewContext(nil)
	p := &Pipeline{Steps: []Step{NewExtract("e", hosp, "prescriptions", "staging_rx")}}
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	out, err := c.Get("staging_rx")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5 {
		t.Errorf("rows = %d", out.NumRows())
	}
	// The extract records the fully-qualified input in the graph.
	steps := c.Graph.Upstream("staging_rx")
	if len(steps) != 1 || steps[0].Inputs[0] != "hospital.prescriptions" {
		t.Errorf("graph = %v", steps)
	}
}

func TestDeriveStep(t *testing.T) {
	hosp, _, _ := sources()
	c := NewContext(nil)
	p := &Pipeline{Steps: []Step{
		NewExtract("e", hosp, "prescriptions", ""),
		NewDerive("d", "prescriptions", "with_year", "year",
			relation.Fn("YEAR", relation.ColRefExpr("date"))),
	}}
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	out, _ := c.Get("with_year")
	if !out.Schema.HasColumn("year") || out.Get(0, "year").I != 2007 {
		t.Errorf("derive = %v", out.Row(0))
	}
}
