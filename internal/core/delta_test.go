package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/fault"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// dumpTable renders a table with its per-row lineage, so convergence
// checks cover provenance byte-for-byte, not just cell values.
func dumpTable(t *relation.Table) string {
	var b strings.Builder
	b.WriteString(t.String())
	for i := 0; i < t.NumRows(); i++ {
		for _, ref := range t.RowLineage(i) {
			b.WriteString(ref.String())
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// buildEngineFromTables assembles the full healthcare deployment over
// explicit source-table versions — the fresh-rebuild oracle an
// incrementally refreshed engine must converge to.
func buildEngineFromTables(rx, fd, dc, lr, res *relation.Table) (*Engine, error) {
	e := New(Config{})
	e.AddSource(etl.NewSource("hospital", "hospital", rx))
	e.AddSource(etl.NewSource("familydoctors", "familydoctors", fd))
	e.AddSource(etl.NewSource("healthagency", "healthagency", dc))
	e.AddSource(etl.NewSource("laboratory", "laboratory", lr))
	e.AddSource(etl.NewSource("municipality", "municipality", res))
	if err := e.AddPLAs(ScenarioPLAs); err != nil {
		return nil, err
	}
	if _, err := e.RunETL(HealthcarePipeline(e), false); err != nil {
		return nil, err
	}
	for _, d := range StandardReports() {
		if err := e.DefineReport(d); err != nil {
			return nil, err
		}
	}
	if _, err := e.DeriveMetaReports(); err != nil {
		return nil, err
	}
	return e, nil
}

// sourceTable fetches the current version of a source table.
func sourceTable(t *testing.T, e *Engine, source, table string) *relation.Table {
	t.Helper()
	src, ok := e.Source(source)
	if !ok {
		t.Fatalf("no source %q", source)
	}
	tb, ok := src.Table(table)
	if !ok {
		t.Fatalf("source %q has no table %q", source, table)
	}
	return tb
}

// randRxRow synthesizes a prescriptions row referencing existing
// patients and drugs, so joins and thresholds stay exercised.
func randRxRow(rng *rand.Rand, ds *workload.Dataset, id int) relation.Row {
	return relation.Row{
		relation.Int(int64(1_000_000 + id)),
		relation.Str(ds.PatientNames[rng.Intn(len(ds.PatientNames))]),
		relation.Str("Dr. " + ds.PatientNames[rng.Intn(len(ds.PatientNames))]),
		relation.Str(ds.DrugNames[rng.Intn(len(ds.DrugNames))]),
		relation.Str(ds.Diseases[rng.Intn(len(ds.Diseases))]),
		relation.DateYMD(2008, time.Month(1+rng.Intn(12)), 1+rng.Intn(28)),
	}
}

// dirtyName re-cases a canonical patient name the way the workload's
// dirty references do, so entity resolution has real work on deltas.
func dirtyName(rng *rand.Rand, name string) string {
	switch rng.Intn(3) {
	case 0:
		return strings.ToUpper(name)
	case 1:
		return strings.ToLower(name)
	default:
		return " " + name + "  "
	}
}

// randomBatch builds one seed-deterministic delta batch: insert-heavy
// prescriptions traffic, dirty family-doctor references, in-place
// updates — some to a patient no resident row knows, so the row's
// fan-out through the inner join drops to zero — deletes from the middle
// and from the end, a row both updated and deleted, and on odd rounds a
// second prescriptions delta whose indices address what the first left:
// it deletes a row the first inserted and updates one it kept.
func randomBatch(t *testing.T, rng *rand.Rand, ds *workload.Dataset, e *Engine, round int) etl.Batch {
	t.Helper()
	var b etl.Batch
	rx := sourceTable(t, e, "hospital", "prescriptions")
	n := rx.NumRows()
	d := etl.Delta{Source: "hospital", Table: "prescriptions"}
	for i := 0; i < 10+rng.Intn(10); i++ {
		d.Inserts = append(d.Inserts, randRxRow(rng, ds, round*1000+i))
	}
	for i := 0; i < rng.Intn(3); i++ {
		d.Updates = append(d.Updates, etl.RowUpdate{Row: rng.Intn(n), Vals: randRxRow(rng, ds, round*1000+500+i)})
	}
	gone := map[int]bool{}
	del := func(ri int) {
		d.Deletes = append(d.Deletes, ri)
		gone[ri] = true
	}
	switch round % 3 {
	case 1:
		stranger := randRxRow(rng, ds, round*1000+600)
		stranger[1] = relation.Str("Nobody Of Nowhere")
		d.Updates = append(d.Updates, etl.RowUpdate{Row: rng.Intn(n), Vals: stranger})
	case 2:
		del(rng.Intn(n))
		del(rng.Intn(n))
		both := rng.Intn(n)
		d.Updates = append(d.Updates, etl.RowUpdate{Row: both, Vals: randRxRow(rng, ds, round*1000+700)})
		del(both)
	}
	if round%2 == 0 {
		del(n - 1)
	}
	b.Deltas = append(b.Deltas, d)
	if round%2 == 1 {
		left := n - len(gone) + len(d.Inserts)
		b.Deltas = append(b.Deltas, etl.Delta{Source: "hospital", Table: "prescriptions",
			Inserts: []relation.Row{randRxRow(rng, ds, round*1000+800)},
			Updates: []etl.RowUpdate{{Row: rng.Intn(n - len(gone)), Vals: randRxRow(rng, ds, round*1000+801)}},
			Deletes: []int{left - 1},
		})
	}

	fd := etl.Delta{Source: "familydoctors", Table: "familydoctor"}
	for i := 0; i < 2+rng.Intn(3); i++ {
		fd.Inserts = append(fd.Inserts, relation.Row{
			relation.Str(dirtyName(rng, ds.PatientNames[rng.Intn(len(ds.PatientNames))])),
			relation.Str("Dr. " + ds.PatientNames[rng.Intn(len(ds.PatientNames))]),
		})
	}
	b.Deltas = append(b.Deltas, fd)

	if round%2 == 1 {
		dc := sourceTable(t, e, "healthagency", "drugcost")
		ri := rng.Intn(dc.NumRows())
		b.Deltas = append(b.Deltas, etl.Delta{Source: "healthagency", Table: "drugcost",
			Updates: []etl.RowUpdate{{Row: ri, Vals: relation.Row{
				dc.Get(ri, "drug"), relation.Int(int64(5 + rng.Intn(95)))}}},
		})
	}
	return b
}

// applyWithRetry pushes one batch through ApplyDelta, retrying the
// tolerable chaos outcomes (injected faults, isolated panics); every
// failed attempt must have rolled back, so the retry applies the same
// pre-delta row indices.
func applyWithRetry(t *testing.T, e *Engine, b etl.Batch) etl.DeltaResult {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		res, err := e.ApplyDelta(context.Background(), b)
		if err == nil {
			return res
		}
		if !tolerable(err) {
			t.Fatalf("attempt %d: intolerable delta error: %v", attempt, err)
		}
	}
	t.Fatal("delta batch never applied within the retry budget")
	return etl.DeltaResult{}
}

// deltaChaosInjector enables faults on the boundaries a delta crosses:
// the per-step etl.delta site (errors and panics), the full-rebuild
// path's step/extract sites, and the audit sink.
func deltaChaosInjector(seed int64) *fault.Injector {
	fi := fault.NewInjector(seed)
	fi.Enable(fault.SiteETLDelta, fault.SiteConfig{ErrorRate: 0.1, PanicRate: 0.03})
	fi.Enable(fault.SiteETLStep, fault.SiteConfig{ErrorRate: 0.02})
	fi.Enable(fault.SiteETLExtract, fault.SiteConfig{ErrorRate: 0.05, Transient: true})
	fi.Enable(fault.SiteAuditSink, fault.SiteConfig{ErrorRate: 0.05, Transient: true})
	return fi
}

// oracleConsumers enumerates every (report, consumer) pair of the
// standard portfolio.
func oracleConsumers(def *report.Definition) []report.Consumer {
	var out []report.Consumer
	for _, role := range def.Roles {
		out = append(out, report.Consumer{Name: "probe-" + role, Role: role, Purpose: def.Purpose})
	}
	return out
}

// renderString serializes everything observable about one render: the
// enforced table, every decision, and the suppression counters.
func renderString(enf *enforce.Enforced) string {
	var b strings.Builder
	b.WriteString(dumpTable(enf.Table))
	for _, d := range enf.Decisions {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "masked=%d suppressed=%d\n", enf.MaskedCells, enf.SuppressedRows)
	return b.String()
}

// renderKey renders and serializes, folding errors into the key so a
// blocked render must be blocked identically on both engines.
func renderKey(e *Engine, id string, c report.Consumer) string {
	enf, err := e.Render(id, c)
	if err != nil {
		return "err:" + err.Error()
	}
	return renderString(enf)
}

// TestDeltaConvergenceOracle streams randomized delta batches — under
// fault injection at the delta boundary — into the live healthcare
// deployment, then rebuilds a fresh engine from the final source tables
// and asserts byte-identical state: every staging and source table in
// the catalog (values and lineage), every render of every report for
// every consumer (tables, decisions, counters), and provenance traces
// sampled from the wide table. Run under -race in CI.
func TestDeltaConvergenceOracle(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDeltaOracle(t, seed)
		})
	}
}

func runDeltaOracle(t *testing.T, seed int64) {
	cfg := workload.DefaultConfig(seed)
	cfg.Prescriptions = 800
	cfg.Patients = 120
	cfg.LabResults = 50

	fi := deltaChaosInjector(seed)
	var live *Engine
	var ds *workload.Dataset
	for attempt := 0; ; attempt++ {
		var err error
		r := chaosRetry()
		live, ds, err = buildScenario(cfg, Config{Faults: fi, Retry: &r}, nil)
		if err == nil {
			break
		}
		if !tolerable(err) {
			t.Fatalf("build attempt %d: intolerable error: %v", attempt, err)
		}
		if attempt > 20 {
			t.Fatalf("build never succeeded: %v", err)
		}
	}

	defer verifyResident(t, live)

	probe := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	rng := rand.New(rand.NewSource(seed * 7))
	incremental := 0
	for round := 0; round < 6; round++ {
		res := applyWithRetry(t, live, randomBatch(t, rng, ds, live, round))
		incremental += res.StepsIncremental
		// Keep renders interleaved with the stream: plans must
		// keep serving between (and across) deltas.
		if _, err := live.Render("drug-consumption", probe); err != nil {
			t.Fatalf("round %d render: %v", round, err)
		}
		// Each committed version inherits what renders of the one before
		// published; check it before the next delta carries it on.
		verifyResident(t, live)
	}
	if incremental == 0 {
		t.Error("no step ever recomputed incrementally across the stream")
	}

	mirror, err := buildEngineFromTables(
		sourceTable(t, live, "hospital", "prescriptions").Clone(),
		sourceTable(t, live, "familydoctors", "familydoctor").Clone(),
		sourceTable(t, live, "healthagency", "drugcost").Clone(),
		sourceTable(t, live, "laboratory", "labresults").Clone(),
		sourceTable(t, live, "municipality", "residents").Clone(),
	)
	if err != nil {
		t.Fatalf("mirror build: %v", err)
	}

	// 1. Catalog state: every source and staging table byte-identical.
	for _, name := range []string{
		"prescriptions", "familydoctor", "drugcost", "residents",
		"familydoctor_clean", "familydoctor_resolved", "rx_cost", "rx_wide",
	} {
		lt, lok := live.Table(name)
		mt, mok := mirror.Table(name)
		if !lok || !mok {
			t.Fatalf("table %q: live=%v mirror=%v", name, lok, mok)
		}
		if dumpTable(lt) != dumpTable(mt) {
			t.Errorf("table %q diverges from full rebuild (%d vs %d rows)",
				name, lt.NumRows(), mt.NumRows())
		}
	}

	// 2. Every render of every report for every consumer.
	for _, def := range StandardReports() {
		for _, c := range oracleConsumers(def) {
			lk := renderKey(live, def.ID, c)
			mk := renderKey(mirror, def.ID, c)
			if lk != mk {
				t.Errorf("render %s/%s diverges:\nlive:\n%s\nmirror:\n%s", def.ID, c.Role, lk, mk)
			}
		}
	}

	// 3. Provenance traces sampled across the wide table.
	lw, _ := live.Table("rx_wide")
	mw, _ := mirror.Table("rx_wide")
	for _, ri := range []int{0, lw.NumRows() / 2, lw.NumRows() - 1} {
		lrt, lerr := live.Tracer.TraceRow(lw, ri)
		mrt, merr := mirror.Tracer.TraceRow(mw, ri)
		if (lerr == nil) != (merr == nil) {
			t.Fatalf("TraceRow(%d): live err=%v mirror err=%v", ri, lerr, merr)
		}
		if lerr == nil && (fmt.Sprint(lw.RowLineage(ri)) != fmt.Sprint(mw.RowLineage(ri)) ||
			live.Tracer.ThresholdSupport(lrt, "patient") != mirror.Tracer.ThresholdSupport(mrt, "patient")) {
			t.Errorf("row %d lineage diverges: %v vs %v", ri, lw.RowLineage(ri), mw.RowLineage(ri))
		}
		lct, lerr := live.Tracer.TraceCell(lw, ri, "drug")
		mct, merr := mirror.Tracer.TraceCell(mw, ri, "drug")
		if (lerr == nil) != (merr == nil) {
			t.Fatalf("TraceCell(%d): live err=%v mirror err=%v", ri, lerr, merr)
		}
		if lct.String() != mct.String() {
			t.Errorf("cell trace %d diverges: %s vs %s", ri, lct, mct)
		}
	}

	// 4. The stream left an audit trail of committed deltas.
	if len(live.Audit.ByKind("delta")) == 0 {
		t.Error("no delta audit events recorded")
	}

	// 5. Plan-cache survival: a delta swaps table versions, not the plan
	// generations — cached plans must outlive it and keep hitting.
	for _, def := range StandardReports() {
		for _, c := range oracleConsumers(def) {
			_ = renderKey(live, def.ID, c)
		}
	}
	before := live.CacheStats()
	applyWithRetry(t, live, etl.Batch{Deltas: []etl.Delta{{
		Source: "hospital", Table: "prescriptions",
		Inserts: []relation.Row{randRxRow(rng, ds, 999_000)},
	}}})
	after := live.CacheStats()
	if after.Entries*2 < before.Entries {
		t.Errorf("plan cache lost %d -> %d entries across a delta", before.Entries, after.Entries)
	}
	if _, err := live.Render("drug-consumption", probe); err != nil {
		t.Fatalf("post-delta render: %v", err)
	}
	final := live.CacheStats()
	if final.Hits <= after.Hits {
		t.Errorf("post-delta render missed the plan cache: hits %d -> %d", after.Hits, final.Hits)
	}
}

// TestPlansSurviveDelta pins plan survival across a delta: Catalog.Refresh
// swaps table versions without moving the catalog generation, so a delta
// to a table outside a report's reads leaves its render unchanged, and a
// delta to a table it reads invalidates no plan — the next render is a
// plan-cache hit over the new data, equal to a fresh rebuild's.
func TestPlansSurviveDelta(t *testing.T) {
	cfg := workload.DefaultConfig(5)
	cfg.Prescriptions = 400
	cfg.Patients = 80
	cfg.LabResults = 20
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}

	first, err := e.Render("drug-consumption", probe)
	if err != nil {
		t.Fatal(err)
	}

	// Unrelated delta: familydoctor feeds familydoctor_resolved only —
	// drug-consumption reads rx_wide and its base tables, none of which
	// move — so the render is unchanged.
	if _, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{
		Source: "familydoctors", Table: "familydoctor",
		Inserts: []relation.Row{{relation.Str(ds.PatientNames[0]), relation.Str("Dr. New")}},
	}}}); err != nil {
		t.Fatal(err)
	}
	afterUnrelated, err := e.Render("drug-consumption", probe)
	if err != nil {
		t.Fatal(err)
	}
	if afterUnrelated.Table.String() != first.Table.String() {
		t.Fatal("render changed after an unrelated delta")
	}

	// Touching delta: a prescriptions insert reaches rx_wide. The plan
	// survives (no cache invalidation, no entry dropped) and the next
	// render serves the new data from it.
	statsBefore := e.CacheStats()
	if _, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{
		Source: "hospital", Table: "prescriptions",
		Inserts: []relation.Row{{
			relation.Int(2_000_000), relation.Str(ds.PatientNames[0]), relation.Str("Dr. A"),
			relation.Str(ds.DrugNames[0]), relation.Str(ds.Diseases[0]), relation.DateYMD(2008, 9, 9),
		}},
	}}}); err != nil {
		t.Fatal(err)
	}
	touched, err := e.Render("drug-consumption", probe)
	if err != nil {
		t.Fatal(err)
	}
	if !touched.CacheHit {
		t.Error("render after a touching delta rebuilt its plan")
	}
	statsAfter := e.CacheStats()
	if statsAfter.Invalidations != statsBefore.Invalidations {
		t.Errorf("delta invalidated render plans: %d -> %d",
			statsBefore.Invalidations, statsAfter.Invalidations)
	}
	if statsAfter.Entries < statsBefore.Entries {
		t.Errorf("delta dropped plan entries: %d -> %d", statsBefore.Entries, statsAfter.Entries)
	}

	// The render after the delta must equal a fresh rebuild's render.
	mirror, err := buildEngineFromTables(
		sourceTable(t, e, "hospital", "prescriptions").Clone(),
		sourceTable(t, e, "familydoctors", "familydoctor").Clone(),
		sourceTable(t, e, "healthagency", "drugcost").Clone(),
		sourceTable(t, e, "laboratory", "labresults").Clone(),
		sourceTable(t, e, "municipality", "residents").Clone(),
	)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mirror.Render("drug-consumption", probe)
	if err != nil {
		t.Fatal(err)
	}
	if touched.Table.String() != want.Table.String() {
		t.Fatalf("render after delta diverges from rebuild:\n%s\nvs\n%s", touched.Table, want.Table)
	}
}

// TestDeltaRecoveryAfterDroppedContext: when a failed delta drops a
// pipeline's retained staging context, the next delta must rebuild the
// pipeline wholesale instead of silently skipping it.
func TestDeltaRecoveryAfterDroppedContext(t *testing.T) {
	cfg := workload.DefaultConfig(9)
	cfg.Prescriptions = 300
	cfg.Patients = 60
	cfg.LabResults = 20
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the post-failure state: the retained context is gone.
	e.mu.Lock()
	delete(e.etlCtxs, "healthcare")
	e.mu.Unlock()

	res, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{
		Source: "hospital", Table: "prescriptions",
		Inserts: []relation.Row{randRxRow(rand.New(rand.NewSource(1)), ds, 1)},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRebuilt == 0 {
		t.Fatalf("dropped context not rebuilt: %+v", res)
	}
	// The catalog serves the refreshed wide table.
	mirror, err := buildEngineFromTables(
		sourceTable(t, e, "hospital", "prescriptions").Clone(),
		sourceTable(t, e, "familydoctors", "familydoctor").Clone(),
		sourceTable(t, e, "healthagency", "drugcost").Clone(),
		sourceTable(t, e, "laboratory", "labresults").Clone(),
		sourceTable(t, e, "municipality", "residents").Clone(),
	)
	if err != nil {
		t.Fatal(err)
	}
	lt, _ := e.Table("rx_wide")
	mt, _ := mirror.Table("rx_wide")
	if dumpTable(lt) != dumpTable(mt) {
		t.Fatal("rebuilt pipeline state diverges from fresh build")
	}
	verifyResident(t, e)
}

// revocable is a step whose run a test can refuse, as a guard does once a
// join permission is revoked.
type revocable struct {
	etl.Step
	deny *bool
}

func (r revocable) Run(c *etl.Context) error {
	if *r.deny {
		return &etl.ViolationError{Step: r.Name(), Rule: "join-permission", Detail: "revoked"}
	}
	return r.Step.Run(c)
}

// TestFailedRunCommitsNothing: a run is all or nothing, like a delta. A
// RunETL that stops at a violating join leaves the recorded plans, the
// pipeline's retained context and the catalog's versions as the last
// successful run left them, and the next deltas converge to a rebuild.
func TestFailedRunCommitsNothing(t *testing.T) {
	cfg := workload.DefaultConfig(4)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 300, 60, 20
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deny := false
	p := HealthcarePipeline(e)
	for i, s := range p.Steps {
		if s.Name() == "join-residents" {
			p.Steps[i] = revocable{s, &deny}
		}
	}
	if _, err := e.RunETL(p, false); err != nil {
		t.Fatal(err)
	}
	kept := e.etlCtxs[p.Name]
	versions := map[string]*relation.Table{}
	for name := range kept.Staging {
		versions[name], _ = e.Table(name)
	}

	deny = true
	if _, err := e.RunETL(p, false); !etl.IsViolation(err) {
		t.Fatalf("run with join-residents refused: %v", err)
	}
	if e.etlCtxs[p.Name] != kept {
		t.Error("the failed run replaced the retained staging context")
	}
	for name, v := range versions {
		if now, _ := e.Table(name); now != v {
			t.Errorf("the failed run published a new version of %s", name)
		}
	}

	deny = false
	if _, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{Source: "hospital", Table: "prescriptions",
		Inserts: []relation.Row{randRxRow(rand.New(rand.NewSource(2)), ds, 2)}}}}); err != nil {
		t.Fatal(err)
	}

	// A revised plan whose first run fails is not recorded: the deltas
	// after it do not run it, and commit.
	revised := HealthcarePipeline(e)
	revised.Name = "healthcare-revised"
	for i, s := range revised.Steps {
		if s.Name() == "join-residents" {
			revised.Steps[i] = revocable{s, &deny}
		}
	}
	deny = true
	if _, err := e.RunETL(revised, false); !etl.IsViolation(err) {
		t.Fatalf("first run of the revised plan: %v", err)
	}
	for _, have := range e.Pipelines() {
		if have.Name == revised.Name {
			t.Error("the failed first run recorded its plan")
		}
	}
	if _, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{Source: "hospital", Table: "prescriptions",
		Inserts: []relation.Row{randRxRow(rand.New(rand.NewSource(3)), ds, 3)}}}}); err != nil {
		t.Fatalf("delta after the failed first run: %v", err)
	}
	mirror, err := buildEngineFromTables(
		sourceTable(t, e, "hospital", "prescriptions").Clone(),
		sourceTable(t, e, "familydoctors", "familydoctor").Clone(),
		sourceTable(t, e, "healthagency", "drugcost").Clone(),
		sourceTable(t, e, "laboratory", "labresults").Clone(),
		sourceTable(t, e, "municipality", "residents").Clone(),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rx_cost", "rx_wide", "familydoctor_resolved"} {
		lt, _ := e.Table(name)
		mt, _ := mirror.Table(name)
		if dumpTable(lt) != dumpTable(mt) {
			t.Errorf("%s after the failed run and a delta diverges from a rebuild", name)
		}
	}
}

// TestRenderAfterDeltaOverBlockedStep: a continue-on-violation run blocks
// entity resolution; a delta that touches its input and the prescriptions
// commits, the step stays blocked, and a render reads the delta's insert
// as a rebuild over the new sources renders it.
func TestRenderAfterDeltaOverBlockedStep(t *testing.T) {
	cfg := workload.DefaultConfig(4)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 300, 60, 20
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deny := true
	p := HealthcarePipeline(e)
	for i, s := range p.Steps {
		if s.Name() == "resolve-fd" {
			p.Steps[i] = revocable{s, &deny}
		}
	}
	if res, err := e.RunETL(p, true); err != nil || len(res.Violations) != 1 {
		t.Fatalf("continue-on-violation run: %+v, %v", res, err)
	}
	fd := sourceTable(t, e, "familydoctors", "familydoctor")
	if _, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{
		{Source: "hospital", Table: "prescriptions", Inserts: []relation.Row{randRxRow(rand.New(rand.NewSource(5)), ds, 5)}},
		{Source: "familydoctors", Table: "familydoctor", Inserts: []relation.Row{fd.Row(0).Clone()}},
	}}); err != nil {
		t.Fatalf("delta over the blocked step: %v", err)
	}
	if _, err := e.etlCtxs[p.Name].Get("familydoctor_resolved"); err == nil {
		t.Error("the blocked step staged its output")
	}
	mirror, err := buildEngineFromTables(
		sourceTable(t, e, "hospital", "prescriptions").Clone(),
		sourceTable(t, e, "familydoctors", "familydoctor").Clone(),
		sourceTable(t, e, "healthagency", "drugcost").Clone(),
		sourceTable(t, e, "laboratory", "labresults").Clone(),
		sourceTable(t, e, "municipality", "residents").Clone(),
	)
	if err != nil {
		t.Fatal(err)
	}
	c := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	got, err := e.Render("drug-consumption", c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mirror.Render("drug-consumption", c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.String() != want.Table.String() || got.MaskedCells != want.MaskedCells {
		t.Errorf("render after the delta:\n%s\nrebuild:\n%s", got.Table, want.Table)
	}
}

// TestDeltaStationaryBlockRebuildsNothing holds the count the benchmark's
// etl.delta.steps_rebuilt row shows: one block of the delta-mixed
// schedule's shapes on the healthcare pipeline — inserts, updates of base
// rows, a delete of the rows just inserted (the end of the table), plus a
// delete from the middle — places every change in the outputs the joins
// already have, and only a change of a join's right side reruns anything:
// a drugcost update rebuilds exactly the two joins downstream of it.
func TestDeltaStationaryBlockRebuildsNothing(t *testing.T) {
	cfg := workload.DefaultConfig(3)
	cfg.Prescriptions = 600
	cfg.Patients = 80
	cfg.LabResults = 20
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := sourceTable(t, e, "hospital", "prescriptions").NumRows()
	rx := func(d etl.Delta) etl.Batch {
		d.Source, d.Table = "hospital", "prescriptions"
		return etl.Batch{Deltas: []etl.Delta{d}}
	}
	var inserts, updates etl.Delta
	var inserted []int
	for i := 0; i < 20; i++ {
		inserts.Inserts = append(inserts.Inserts, randRxRow(rng, ds, i))
		inserted = append(inserted, n+i)
	}
	for _, ri := range []int{0, 7, n / 2, n - 1} {
		updates.Updates = append(updates.Updates, etl.RowUpdate{Row: ri, Vals: randRxRow(rng, ds, 100+ri)})
	}
	block := []struct {
		name  string
		batch etl.Batch
	}{
		{"insert", rx(inserts)},
		{"update of base rows", rx(updates)},
		{"tail delete", rx(etl.Delta{Deletes: inserted})},
		{"mid-table delete", rx(etl.Delta{Deletes: []int{n / 3, n / 3 * 2}})},
	}
	for _, op := range block {
		res, err := e.ApplyDelta(context.Background(), op.batch)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		// The extract and the two joins; the family-doctor branch and the
		// other extracts never see a prescriptions change.
		if res.StepsRebuilt != 0 || res.StepsIncremental != 3 || res.StepsUntouched != 5 {
			t.Errorf("%s: rebuilt=%d incremental=%d untouched=%d, want 0/3/5",
				op.name, res.StepsRebuilt, res.StepsIncremental, res.StepsUntouched)
		}
	}

	dc := sourceTable(t, e, "healthagency", "drugcost")
	res, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{
		Source: "healthagency", Table: "drugcost",
		Updates: []etl.RowUpdate{{Row: 0, Vals: relation.Row{dc.Get(0, "drug"), relation.Int(77)}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRebuilt != 2 || res.StepsIncremental != 1 ||
		!res.Changed["rx_cost"].Rebuilt || !res.Changed["rx_wide"].Rebuilt {
		t.Errorf("drugcost update: rebuilt=%d incremental=%d changed=%+v, want the two joins rebuilt and the extract alone incremental",
			res.StepsRebuilt, res.StepsIncremental, res.Changed)
	}

	mirror, err := buildEngineFromTables(
		sourceTable(t, e, "hospital", "prescriptions").Clone(),
		sourceTable(t, e, "familydoctors", "familydoctor").Clone(),
		sourceTable(t, e, "healthagency", "drugcost").Clone(),
		sourceTable(t, e, "laboratory", "labresults").Clone(),
		sourceTable(t, e, "municipality", "residents").Clone(),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"prescriptions", "rx_cost", "rx_wide"} {
		lt, _ := e.Table(name)
		mt, _ := mirror.Table(name)
		if dumpTable(lt) != dumpTable(mt) {
			t.Errorf("table %q diverges from full rebuild (%d vs %d rows)", name, lt.NumRows(), mt.NumRows())
		}
	}
}

// TestDeltaAuditTellsWithdrawalFromReload: the "delta" audit event counts
// what a committed delta removed, and says "rebuilt" only when a table
// was replaced wholesale; a multi-delta batch reports the one merged
// change per table, in the committed version's terms.
func TestDeltaAuditTellsWithdrawalFromReload(t *testing.T) {
	cfg := workload.DefaultConfig(4)
	cfg.Prescriptions = 200
	cfg.Patients = 40
	cfg.LabResults = 10
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	n := sourceTable(t, e, "hospital", "prescriptions").NumRows()
	res, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{
		{Source: "hospital", Table: "prescriptions",
			Inserts: []relation.Row{randRxRow(rng, ds, 1), randRxRow(rng, ds, 2)},
			Updates: []etl.RowUpdate{{Row: 5, Vals: randRxRow(rng, ds, 3)}, {Row: 9, Vals: randRxRow(rng, ds, 4)}},
			Deletes: []int{9, 30}},
		// Against n-2+2 rows: withdraw the second insert, correct the first
		// and the row that was #31 before the first delta.
		{Source: "hospital", Table: "prescriptions",
			Updates: []etl.RowUpdate{{Row: n - 2, Vals: randRxRow(rng, ds, 5)}, {Row: 29, Vals: randRxRow(rng, ds, 6)}},
			Deletes: []int{n - 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ch := res.Changed["hospital.prescriptions"]
	if fmt.Sprint(ch.Removed, ch.Updated, ch.Appended, ch.Rebuilt) != "[9 30] [5 31] 1 false" {
		t.Errorf("merged change = %+v, want rows 9 and 30 removed, 5 and 31 updated, one appended", ch)
	}
	events := e.Audit.ByKind("delta")
	if len(events) != 1 || events[0].Detail != "+1 rows, 2 updated, -2 removed" || events[0].Object != "prescriptions" {
		t.Errorf("delta events = %+v, want one saying +1 rows, 2 updated, -2 removed", events)
	}
	if res.StepsRebuilt != 0 {
		t.Errorf("rebuilt %d steps, want none", res.StepsRebuilt)
	}
}
