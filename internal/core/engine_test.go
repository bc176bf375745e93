package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"plabi/internal/audit"
	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/fault"
	"plabi/internal/metareport"
	"plabi/internal/obs"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

// buildScenario loads the healthcare scenario onto an engine built from
// cfg; attach, when set, first gives the engine its storage (an audit
// sink, a segment store).
func buildScenario(wcfg workload.Config, cfg Config, attach func(*Engine)) (*Engine, *workload.Dataset, error) {
	e := New(cfg)
	if attach != nil {
		attach(e)
	}
	ds, err := LoadHealthcareScenario(e, wcfg)
	return e, ds, err
}

func smallEngine(t *testing.T) (*Engine, *workload.Dataset) {
	t.Helper()
	cfg := workload.DefaultConfig(42)
	cfg.Patients, cfg.Prescriptions, cfg.LabResults = 120, 800, 100
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestBuildHealthcareEngine(t *testing.T) {
	e, ds := smallEngine(t)
	// The wide staging table exists and joins all permitted sources.
	wide, ok := e.Table("rx_wide")
	if !ok {
		t.Fatal("rx_wide missing")
	}
	if wide.NumRows() != ds.Prescriptions.NumRows() {
		t.Errorf("wide rows = %d, want %d", wide.NumRows(), ds.Prescriptions.NumRows())
	}
	for _, col := range []string{"patient", "drug", "cost", "age", "zip"} {
		if !wide.Schema.HasColumn(col) {
			t.Errorf("rx_wide lacks %q (%s)", col, wide.Schema)
		}
	}
	// Meta-reports derived and every report assigned.
	if len(e.MetaReports()) == 0 {
		t.Fatal("no metas")
	}
	for _, d := range e.Reports.All() {
		if e.Assignment(d.ID) == "" {
			t.Errorf("report %s unassigned", d.ID)
		}
	}
	// ETL steps audited.
	if len(e.Audit.ByKind("transform")) < 6 {
		t.Errorf("transform events = %d", len(e.Audit.ByKind("transform")))
	}
}

func TestRenderDrugConsumptionEnforced(t *testing.T) {
	e, _ := smallEngine(t)
	enf, err := e.Render("drug-consumption", report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.Table.NumRows() == 0 {
		t.Fatal("empty report")
	}
	// Aggregation threshold: every remaining group has >= 3 distinct
	// patients. (Suppressed groups recorded as decisions.)
	for _, d := range enf.Decisions {
		if d.Outcome == enforce.Block {
			t.Errorf("unexpected block: %v", d)
		}
	}
	// Render audited.
	if len(e.Audit.ByKind("render")) != 1 {
		t.Error("render not audited")
	}
}

func TestRenderPatientActivityMasksHIV(t *testing.T) {
	e, _ := smallEngine(t)
	enf, err := e.Render("patient-activity", report.Consumer{Name: "ana", Role: "analyst", Purpose: "reimbursement"})
	if err != nil {
		t.Fatal(err)
	}
	// The report is non-aggregated; the hospital PLA has an aggregation
	// threshold, so static checking blocks it outright.
	blocked := false
	for _, d := range enf.Decisions {
		if d.Outcome == enforce.Block && d.Rule == "aggregation-threshold" {
			blocked = true
		}
	}
	if !blocked {
		t.Errorf("expected static block, decisions = %v", enf.Decisions)
	}
	if enf.Table.NumRows() != 0 {
		t.Error("blocked report must be empty")
	}
}

func TestCheckReportCompliance(t *testing.T) {
	e, _ := smallEngine(t)
	ds, err := e.CheckReportCompliance("drug-consumption", report.Consumer{Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Outcome == enforce.Block {
			t.Errorf("drug-consumption should be compliant: %v", d)
		}
	}
	// A report over a forbidden join is caught.
	if err := e.DefineReport(&report.Definition{ID: "linkage",
		Query: "SELECT p.patient FROM prescriptions p JOIN familydoctor f ON p.patient = f.patient"}); err != nil {
		t.Fatal(err)
	}
	ds, err = e.CheckReportCompliance("linkage", report.Consumer{Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	foundBlock := false
	for _, d := range ds {
		if d.Outcome == enforce.Block {
			foundBlock = true
		}
	}
	if !foundBlock {
		t.Errorf("forbidden-join report not caught: %v", ds)
	}
	if _, err := e.CheckReportCompliance("ghost", report.Consumer{}); err == nil {
		t.Error("unknown report must fail")
	}
}

// TestScenarioContainmentSeesColumns: every report of the scenario shows
// base columns, each is derivable from the meta-report it was assigned to,
// and a report showing a column that meta-report omits is not — so the
// column clause of containment compares something.
func TestScenarioContainmentSeesColumns(t *testing.T) {
	e, _ := smallEngine(t)
	metas := e.MetaReports()
	if len(metas) != 1 || metas[0].ID != "meta-01-rx_wide" {
		t.Fatalf("metas = %v", metas)
	}
	for _, def := range e.Reports.All() {
		prof, err := sql.ProfileSQL(e.Catalog, def.Query)
		if err != nil {
			t.Fatal(err)
		}
		if len(prof.OutputCols) == 0 {
			t.Errorf("%s shows no base column", def.ID)
		}
		c, err := metareport.IsDerivable(e.Catalog, def, metas[0])
		if err != nil || !c.Derivable || e.Assignment(def.ID) != metas[0].ID {
			t.Errorf("%s: derivable=%v (%v) err=%v assigned to %q", def.ID, c.Derivable, c.Reasons, err, e.Assignment(def.ID))
		}
	}
	// No scenario report reads doctor, so the derived meta-report omits it.
	if err := e.DefineReport(&report.Definition{ID: "doctor-load", Purpose: "quality",
		Query: "SELECT doctor, COUNT(*) AS n FROM rx_wide GROUP BY doctor"}); err != nil {
		t.Fatal(err)
	}
	def, _ := e.Reports.Get("doctor-load")
	c, err := metareport.IsDerivable(e.Catalog, def, metas[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.Derivable || len(c.Reasons) != 1 || c.Reasons[0] != "output column prescriptions.doctor not covered" {
		t.Errorf("doctor-load: derivable=%v reasons=%v", c.Derivable, c.Reasons)
	}
	ds, err := e.CheckReportCompliance("doctor-load", report.Consumer{Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 || ds[0].Rule != "meta-derivability" || ds[0].Outcome != enforce.Block {
		t.Errorf("doctor-load compliance = %v", ds)
	}
}

func TestComplianceSuiteCatchesRawRender(t *testing.T) {
	e, _ := smallEngine(t)
	consumer := report.Consumer{Role: "analyst", Purpose: "quality"}
	tests, err := e.ComplianceSuite("drug-consumption", consumer)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	// The ENFORCED output passes the suite.
	enf, err := e.Render("drug-consumption", consumer)
	if err != nil {
		t.Fatal(err)
	}
	if fails := metareport.RunTests(tests, enf.Table); len(fails) != 0 {
		t.Errorf("enforced output fails suite: %v", fails)
	}
	// The RAW (unenforced) output fails it: the threshold test notices
	// under-supported groups, if any exist; with 120 patients over many
	// drugs, small groups exist.
	d, _ := e.Reports.Get("drug-consumption")
	raw, err := d.Render(e.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumRows() > enf.Table.NumRows() {
		if fails := metareport.RunTests(tests, raw); len(fails) == 0 {
			t.Error("raw output with extra groups should fail the suite")
		}
	}
}

func TestAuditorDispute(t *testing.T) {
	e, _ := smallEngine(t)
	enf, err := e.Render("drug-consumption", report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	a := e.Auditor()
	d, err := a.ResolveDispute(enf.Table, 0, "consumption")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PLAs) == 0 {
		t.Error("dispute lacks PLAs")
	}
	if len(d.Transformations) == 0 {
		t.Error("dispute lacks transformation chain")
	}
	if !strings.Contains(d.String(), "hospital-prescriptions") {
		t.Errorf("dispute = %s", d)
	}
}

func TestSourceEnforcerFromEngine(t *testing.T) {
	e, ds := smallEngine(t)
	rel, rep, err := e.SourceEnforcer().Release(ds.Residents)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KAnonStats.Partitions == 0 {
		t.Error("k-anonymity not applied to residents")
	}
	if rel.NumRows()+rep.RowsSuppressed != ds.Residents.NumRows() {
		t.Error("row accounting broken")
	}
}

func TestQueryRewriterFromEngine(t *testing.T) {
	e, _ := smallEngine(t)
	out, decisions, err := e.QueryRewriter().RewriteSQL(
		"SELECT patient, disease FROM prescriptions", "analyst", "quality")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatalf("query blocked: %v", decisions)
	}
	// disease is only allowed to auditors: the analyst sees a masked
	// column.
	if !strings.Contains(out, "'***'") {
		t.Errorf("rewritten = %q", out)
	}
}

func TestEngineValidation(t *testing.T) {
	e := New(Config{})
	if err := e.AddPLAs("not a pla"); err == nil {
		t.Error("bad DSL must fail")
	}
	if _, err := e.Render("nope", report.Consumer{}); err == nil {
		t.Error("unknown report must fail")
	}
	if _, err := e.ComplianceSuite("nope", report.Consumer{}); err == nil {
		t.Error("unknown report must fail")
	}
}

// TestNewWiresTheConfiguration: New hands every substrate its part of the
// configuration — the audit log its metrics, injector and per-site retry
// override, the injector the engine's metrics.
func TestNewWiresTheConfiguration(t *testing.T) {
	m := obs.New()
	fi := fault.NewInjector(1)
	fi.Enable(fault.SiteAuditSink, fault.SiteConfig{ErrorRate: 1, Transient: true, Times: 2})
	none := fault.RetryPolicy{}
	e := New(Config{Metrics: m, Faults: fi, Retry: &none,
		RetrySites: map[string]fault.RetryPolicy{fault.SiteAuditSink: fastRetry()}})
	if e.Obs() != m || e.Faults() != fi {
		t.Fatal("engine does not hold the configured registry and injector")
	}
	var sink bytes.Buffer
	e.Audit.SetSink(&sink)
	if _, err := e.Audit.AppendChecked(context.Background(), audit.Event{Kind: "render"}); err != nil {
		t.Fatalf("the audit.sink.write override did not retry past two injected faults: %v", err)
	}
	if got := m.Counter("fault.injected").Value(); got != 2 {
		t.Errorf("fault.injected = %d in the engine's registry, want 2", got)
	}
	if got := m.Counter("audit.events").Value(); got != 1 {
		t.Errorf("audit.events = %d in the engine's registry, want 1", got)
	}
	if err := e.Close(); err != nil || sink.Len() == 0 {
		t.Fatalf("Close = %v with %d sink bytes", err, sink.Len())
	}
}

// TestRunETLLeavesThePipelineAlone: the engine's worker bound applies to
// a run without being written into the caller's pipeline, so the same
// pipeline run on another engine gets that engine's bound.
func TestRunETLLeavesThePipelineAlone(t *testing.T) {
	e := New(Config{Workers: 2})
	e.AddSource(etl.NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	src, _ := e.Source("hospital")
	p := &etl.Pipeline{Name: "p", Steps: []etl.Step{etl.NewExtract("ext", src, "prescriptions", "")}}
	if _, err := e.RunETL(p, false); err != nil {
		t.Fatal(err)
	}
	if p.Workers != 0 {
		t.Fatalf("RunETL set the caller's pipeline to %d workers", p.Workers)
	}
}

// TestWarehouseLevelPLAOnWideTable verifies that PLAs elicited at the
// warehouse level, scoped to the warehouse relation itself (Fig. 3:
// "meta-data in the DWH"), govern reports rendered over it.
func TestWarehouseLevelPLAOnWideTable(t *testing.T) {
	e, _ := smallEngine(t)
	if err := e.AddPLAs(`
pla "dwh-age" {
    owner "bi-provider"; level warehouse; scope "rx_wide";
    deny attribute age to roles analyst;
}`); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineReport(&report.Definition{ID: "ages",
		Query: "SELECT drug, age, COUNT(*) AS n FROM rx_wide GROUP BY drug, age LIMIT 20"}); err != nil {
		t.Fatal(err)
	}
	enf, err := e.Render("ages", report.Consumer{Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < enf.Table.NumRows(); i++ {
		if enf.Table.Get(i, "age").S != "***" {
			t.Fatal("warehouse-level deny on rx_wide.age not enforced")
		}
	}
	found := false
	for _, d := range enf.Decisions {
		if d.Rule == "access-deny" && d.Subject == "age" {
			found = true
		}
	}
	if !found {
		t.Errorf("decisions = %v", enf.Decisions)
	}
}

// TestPurposeScopedAccess verifies purpose-based access control (the
// P-RBAC-style dimension of §1): an allow restricted to one purpose does
// not release data requested under another.
func TestPurposeScopedAccess(t *testing.T) {
	e, _ := smallEngine(t)
	if err := e.AddPLAs(`
pla "purpose-rule" {
    owner "hospital"; level report; scope "purpose-report";
    allow attribute drug purpose "reimbursement";
}`); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineReport(&report.Definition{ID: "purpose-report",
		Query: "SELECT drug, COUNT(*) AS n FROM rx_wide GROUP BY drug LIMIT 5"}); err != nil {
		t.Fatal(err)
	}
	// Matching purpose: drug visible.
	enf, err := e.Render("purpose-report", report.Consumer{Role: "analyst", Purpose: "reimbursement"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.Table.NumRows() == 0 || enf.Table.Get(0, "drug").S == "***" {
		t.Errorf("reimbursement purpose should see drug: %v", enf.Table.Rows)
	}
	// Mismatched purpose: masked. The scenario's source-level drug allow
	// has no purpose restriction, so this half runs on an engine whose only
	// drug allow is bound to a purpose.
	pe := New(Config{})
	pe.AddSource(etl.NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	if err := pe.AddPLAs(`
pla "purpose-src" {
    owner "hospital"; level source; scope "prescriptions";
    allow attribute drug purpose "reimbursement";
}`); err != nil {
		t.Fatal(err)
	}
	if err := pe.DefineReport(&report.Definition{ID: "purpose-report",
		Query: "SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug"}); err != nil {
		t.Fatal(err)
	}
	enf2, err := pe.Render("purpose-report", report.Consumer{Role: "analyst", Purpose: "marketing"})
	if err != nil {
		t.Fatal(err)
	}
	if enf2.Table.NumRows() == 0 {
		t.Fatal("marketing render returned no rows")
	}
	if enf2.Table.NumRows() > 0 && enf2.Table.Get(0, "drug").S != "***" {
		t.Errorf("marketing purpose should be masked: %v", enf2.Table.Rows)
	}
}

// TestConcurrentRenders exercises the engine's read paths under
// concurrency: many consumers rendering simultaneously must neither race
// nor interfere (run with -race).
func TestConcurrentRenders(t *testing.T) {
	e, _ := smallEngine(t)
	consumers := []report.Consumer{
		{Name: "a1", Role: "analyst", Purpose: "quality"},
		{Name: "a2", Role: "auditor", Purpose: "quality"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, d := range e.Reports.All() {
				if _, err := e.Render(d.ID, consumers[w%len(consumers)]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 8 workers × 5 reports renders audited.
	if got := len(e.Audit.ByKind("render")); got != 40 {
		t.Errorf("renders audited = %d", got)
	}
	verifyResident(t, e)
}

// TestETLRunDecomposedPerStep: after one healthcare RunETL the engine's
// own metrics say where the run's time went (a duration sample per step)
// and how much entity resolution's bound pruned; a delta through the same
// driver adds a sample for each step it executed and none for the steps
// it left untouched.
func TestETLRunDecomposedPerStep(t *testing.T) {
	cfg := workload.DefaultConfig(42)
	cfg.Patients, cfg.Prescriptions, cfg.LabResults = 2000, 800, 100
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Obs().Snapshot()
	for _, s := range HealthcarePipeline(e).Steps {
		if h := snap.Histograms["etl.step."+s.Name()+".duration"]; h.Count != 1 {
			t.Errorf("step %s: %d duration samples, want 1", s.Name(), h.Count)
		}
	}
	c := snap.Counters
	if c["etl.er.values"] != 2000 || c["etl.er.exact"] == 0 || c["etl.er.exact"] >= 2000 {
		t.Errorf("values %d, exact %d", c["etl.er.values"], c["etl.er.exact"])
	}
	if !(0 < c["etl.er.scored"] && c["etl.er.scored"] < c["etl.er.candidates"]) {
		t.Errorf("scored %d of %d candidates: want 0 < scored < candidates", c["etl.er.scored"], c["etl.er.candidates"])
	}
	if c["etl.er.resolved"] == 0 || c["etl.er.unmatched"] > c["etl.er.values"]-c["etl.er.exact"] {
		t.Errorf("resolved %d, unmatched %d", c["etl.er.resolved"], c["etl.er.unmatched"])
	}

	res, err := e.ApplyDelta(context.Background(), familyDoctorDelta(ds, 0))
	if err != nil {
		t.Fatal(err)
	}
	touched := map[string]bool{"ext-familydoctor": true, "cleanse-fd": true, "resolve-fd": true}
	if res.StepsIncremental+res.StepsRebuilt != len(touched) {
		t.Fatalf("the family-doctor delta executed %d steps, want %d", res.StepsIncremental+res.StepsRebuilt, len(touched))
	}
	after := e.Obs().Snapshot()
	for _, s := range HealthcarePipeline(e).Steps {
		name := "etl.step." + s.Name() + ".duration"
		want := snap.Histograms[name].Count
		if touched[s.Name()] {
			want++
		}
		if got := after.Histograms[name].Count; got != want {
			t.Errorf("step %s after the delta: %d duration samples, want %d", s.Name(), got, want)
		}
	}
}

// TestGraphHoldsEachStepOnce: the transformation graph records each
// distinct transformation once. After the first render per (report,
// consumer) and the first delta through every step, the renders, deltas and
// rebuilds that repeat them leave the graph its size.
func TestGraphHoldsEachStepOnce(t *testing.T) {
	e, ds := smallEngine(t)
	renderAll := func() {
		for _, d := range e.Reports.All() {
			for _, c := range oracleConsumers(d) {
				if _, err := e.Render(d.ID, c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Every source changes, so the delta runs through every step.
	delta := func(round int) {
		row := func(source, table string, ri int) relation.Row {
			return sourceTable(t, e, source, table).Row(ri).Clone()
		}
		cost := row("healthagency", "drugcost", 0)
		cost[1] = relation.Int(int64(10 + round))
		rx := sourceTable(t, e, "hospital", "prescriptions")
		if _, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{
			{Source: "hospital", Table: "prescriptions", Inserts: []relation.Row{randRxRow(rand.New(rand.NewSource(int64(round))), ds, round)},
				Updates: []etl.RowUpdate{{Row: round, Vals: row("hospital", "prescriptions", round+1)}}, Deletes: []int{rx.NumRows() - 1}},
			{Source: "familydoctors", Table: "familydoctor", Inserts: []relation.Row{{relation.Str(" " + ds.PatientNames[round] + " "), relation.Str("Dr. Who")}}},
			{Source: "healthagency", Table: "drugcost", Updates: []etl.RowUpdate{{Row: 0, Vals: cost}}},
			{Source: "municipality", Table: "residents", Updates: []etl.RowUpdate{{Row: round, Vals: row("municipality", "residents", round)}}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	renderAll()
	delta(0)
	steps := len(e.Graph.Steps())
	for round := 1; round <= 2; round++ {
		renderAll()
		delta(round)
		if _, err := e.RunETL(HealthcarePipeline(e), false); err != nil {
			t.Fatal(err)
		}
		renderAll()
		if got := len(e.Graph.Steps()); got != steps {
			t.Fatalf("round %d: the graph holds %d steps, %d after the first render and delta", round, got, steps)
		}
	}
	if up := e.Graph.Upstream("drug-consumption"); len(up) == 0 || len(up) > steps {
		t.Errorf("drug-consumption derives from %d steps", len(up))
	}
}
