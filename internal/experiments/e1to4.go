package experiments

import (
	"fmt"
	"time"

	"plabi/internal/core"
	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/metadata"
	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// E1Pipeline runs the full Fig. 1 scenario at increasing scale: multi-
// owner extraction, guarded ETL (cleansing, entity resolution, permitted
// joins), warehouse load, and enforced rendering of the whole portfolio,
// verifying that every render is audited and no blocked operation leaks.
func E1Pipeline() (*Result, error) {
	res := &Result{}
	res.addf("%-8s %-10s %-8s %-9s %-9s %-9s %s", "facts", "build(ms)", "reports",
		"rows", "masked", "suppressed", "audit-events")
	for _, n := range []int{5000, 20000, 50000} {
		cfg := workload.DefaultConfig(42)
		cfg.Prescriptions = n
		cfg.Patients = n / 10
		cfg.LabResults = n / 4
		start := time.Now()
		e, _, err := core.BuildHealthcareEngine(cfg)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		consumers := map[string]report.Consumer{
			"drug-consumption": {Name: "ana", Role: "analyst", Purpose: "quality"},
			"drug-spend":       {Name: "ana", Role: "analyst", Purpose: "reimbursement"},
			"disease-by-year":  {Name: "aud", Role: "auditor", Purpose: "quality"},
			"age-profile":      {Name: "ana", Role: "analyst", Purpose: "quality"},
			"patient-activity": {Name: "ana", Role: "analyst", Purpose: "reimbursement"},
		}
		rows, masked, suppressed := 0, 0, 0
		for _, d := range e.Reports.All() {
			enf, err := e.Render(d.ID, consumers[d.ID])
			if err != nil {
				return nil, err
			}
			rows += enf.Table.NumRows()
			masked += enf.MaskedCells
			suppressed += enf.SuppressedRows
		}
		if got := len(e.Audit.ByKind("render")); got != len(e.Reports.All()) {
			return nil, fmt.Errorf("E1: %d renders audited, want %d", got, len(e.Reports.All()))
		}
		res.addf("%-8d %-10d %-8d %-9d %-9d %-9d %d", n, build.Milliseconds(),
			len(e.Reports.All()), rows, masked, suppressed, e.Audit.Len())
	}
	res.addf("claim check: pipeline runs end-to-end, every render audited, blocked reports render empty -> PASS")
	return res, nil
}

// E2Source reproduces Fig. 2: the paper's literal Prescriptions+Policies
// tables under source-level enforcement, the automatic coverage of newly
// inserted rows by intensional associations, and scaling of the release
// filter.
func E2Source() (*Result, error) {
	res := &Result{}
	reg := policy.NewRegistry()
	plas, err := policy.ParseFile(`pla "hospital-prescriptions" {
		owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
	}`)
	if err != nil {
		return nil, err
	}
	for _, p := range plas {
		if err := reg.Add(p); err != nil {
			return nil, err
		}
	}
	store := metadata.NewStore()
	if err := store.AddKeyed(&metadata.KeyedMetadata{
		Name: "patient-policies", Data: "prescriptions", DataKey: "patient",
		Meta: workload.PoliciesFixture(), MetaKey: "patient",
	}); err != nil {
		return nil, err
	}
	hiv, err := parseExprOrDie("disease = 'HIV'")
	if err != nil {
		return nil, err
	}
	if err := store.AddAssociation(&metadata.Association{
		Name: "hiv-restriction", Data: "prescriptions", When: hiv,
		Metadata: map[string]relation.Value{"ShowName": relation.Bool(false)},
		PLARef:   "hospital-prescriptions",
	}); err != nil {
		return nil, err
	}
	se := &enforce.SourceEnforcer{Registry: reg, Metadata: store,
		ConsentAliases: map[string]string{"name": "patient"}}

	fixture := workload.PrescriptionsFixture()
	released, rep, err := se.Release(fixture)
	if err != nil {
		return nil, err
	}
	res.addf("paper fixture (Fig. 2b) released with consent metadata + HIV intensional association:")
	for _, line := range tableLines(released) {
		res.addf("  %s", line)
	}
	res.addf("cells masked: %d (Fig. 2b consent: ShowDisease=no for Alice/Bob/Math, ShowName=no for Math; HIV names hidden intensionally)", rep.CellsMasked)

	// New HIV patient automatically covered — no metadata change.
	fixture2 := workload.PrescriptionsFixture()
	fixture2.AppendVals(relation.Str("Dana"), relation.Str("Luis"), relation.Str("DH"),
		relation.Str("HIV"), relation.DateYMD(2008, 6, 1))
	released2, _, err := se.Release(fixture2)
	if err != nil {
		return nil, err
	}
	last := released2.NumRows() - 1
	if released2.Get(last, "patient").S == "Dana" {
		return nil, fmt.Errorf("E2: new HIV patient not auto-covered")
	}
	res.addf("new HIV patient inserted -> name auto-masked by intensional association (no metadata edits): PASS")

	// Scaled release with a row filter.
	reg2 := policy.NewRegistry()
	plas2, err := policy.ParseFile(`pla "h2" {
		owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
		filter when disease <> 'HIV';
		anonymize attribute patient using pseudonym;
	}`)
	if err != nil {
		return nil, err
	}
	for _, p := range plas2 {
		if err := reg2.Add(p); err != nil {
			return nil, err
		}
	}
	se2 := &enforce.SourceEnforcer{Registry: reg2}
	res.addf("%-8s %-10s %-10s %s", "rows", "released", "filtered", "release(ms)")
	for _, n := range []int{1000, 10000, 50000} {
		cfg := workload.DefaultConfig(7)
		cfg.Prescriptions = n
		cfg.Patients = n / 10
		ds, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rel, rrep, err := se2.Release(ds.Prescriptions)
		if err != nil {
			return nil, err
		}
		res.addf("%-8d %-10d %-10d %d", n, rel.NumRows(), rrep.RowsFiltered, time.Since(start).Milliseconds())
	}
	return res, nil
}

// E3ETL reproduces Fig. 3: ETL-level annotations block the forbidden
// Prescriptions ⋈ Familydoctor join while the permitted DrugCost join
// proceeds, with lineage recorded for every loaded row; integration
// permissions guard entity resolution.
func E3ETL() (*Result, error) {
	res := &Result{}
	e := core.New(core.Config{})
	ds, err := workload.Generate(workload.DefaultConfig(42))
	if err != nil {
		return nil, err
	}
	e.AddSource(etl.NewSource("hospital", "hospital", ds.Prescriptions))
	e.AddSource(etl.NewSource("familydoctors", "familydoctors", ds.FamilyDoctor))
	e.AddSource(etl.NewSource("healthagency", "healthagency", ds.DrugCost))
	e.AddSource(etl.NewSource("municipality", "municipality", ds.Residents))
	if err := e.AddPLAs(`
pla "h" { owner "hospital"; level source; scope "prescriptions";
	allow attribute *;
	forbid join with familydoctor;
	allow join with drugcost;
	forbid integration for municipality;
}
pla "m" { owner "municipality"; level source; scope "residents";
	allow attribute *;
	allow integration for familydoctors;
}`); err != nil {
		return nil, err
	}

	p := &etl.Pipeline{Name: "fig3", Steps: []etl.Step{
		etl.NewExtract("e1", mustSource(e, "hospital"), "prescriptions", ""),
		etl.NewExtract("e2", mustSource(e, "familydoctors"), "familydoctor", ""),
		etl.NewExtract("e3", mustSource(e, "healthagency"), "drugcost", ""),
		etl.NewExtract("e4", mustSource(e, "municipality"), "residents", ""),
		etl.NewJoin("forbidden-join", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "rx_fd"),
		etl.NewJoin("permitted-join", "prescriptions", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")),
			relation.InnerJoin, "rx_cost"),
		etl.NewEntityResolution("permitted-integration", "familydoctor", "patient",
			"residents", "patient", "familydoctors", 0.88, "fd_resolved"),
	}}
	result, err := e.RunETL(p, true)
	if err != nil {
		return nil, err
	}
	if len(result.Violations) != 1 {
		return nil, fmt.Errorf("E3: violations = %d, want 1", len(result.Violations))
	}
	res.addf("forbidden Prescriptions JOIN Familydoctor: BLOCKED (%v)", result.Violations[0])
	rxCost, ok := e.Table("rx_cost")
	if !ok {
		return nil, fmt.Errorf("E3: permitted join missing")
	}
	res.addf("permitted Prescriptions JOIN DrugCost: %d rows loaded", rxCost.NumRows())
	fd, _ := e.Table("fd_resolved")
	res.addf("permitted integration (municipality cleans familydoctors): %d rows resolved", fd.NumRows())
	// Every loaded row has lineage back to a source.
	traced := 0
	for i := 0; i < rxCost.NumRows(); i++ {
		if len(rxCost.RowLineage(i)) >= 2 {
			traced++
		}
	}
	res.addf("lineage: %d/%d loaded facts trace to >= 2 source rows", traced, rxCost.NumRows())
	res.addf("ETL steps recorded in transformation graph: %d", len(e.Graph.Steps()))

	// The reverse check: an integration the donor forbids is blocked.
	p2 := &etl.Pipeline{Name: "fig3b", Steps: []etl.Step{
		etl.NewExtract("e1b", mustSource(e, "hospital"), "prescriptions", ""),
		etl.NewExtract("e2b", mustSource(e, "familydoctors"), "familydoctor", ""),
		etl.NewEntityResolution("forbidden-integration", "familydoctor", "patient",
			"prescriptions", "patient", "municipality", 0.88, "bad_resolved"),
	}}
	r2, err := e.RunETL(p2, true)
	if err != nil {
		return nil, err
	}
	if len(r2.Violations) != 1 {
		return nil, fmt.Errorf("E3: forbidden integration not blocked")
	}
	res.addf("forbidden integration (hospital data cleaning municipality's): BLOCKED")
	return res, nil
}

// E4Report reproduces Fig. 4: the literal Drug consumption report
// (DH 20, DV 28, DR 89, DM 2), then report-level enforcement with an
// aggregation-threshold sweep and the §5 intensional HIV condition.
func E4Report() (*Result, error) {
	res := &Result{}
	e := core.New(core.Config{})
	fig4 := workload.Fig4Prescriptions(1)
	e.AddSource(etl.NewSource("hospital", "hospital", fig4))
	if err := e.AddPLAs(`
pla "s" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
pla "r" { owner "hospital"; level report; scope "drug-consumption";
	allow attribute drug;
}`); err != nil {
		return nil, err
	}
	if err := e.DefineReport(&report.Definition{ID: "drug-consumption", Title: "Drug consumption",
		Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug ORDER BY drug"}); err != nil {
		return nil, err
	}
	enf, err := e.Render("drug-consumption", report.Consumer{Name: "ana", Role: "analyst"})
	if err != nil {
		return nil, err
	}
	res.addf("golden reproduction of Fig. 4b (no threshold):")
	for _, line := range tableLines(enf.Table) {
		res.addf("  %s", line)
	}
	got := map[string]int64{}
	for i := 0; i < enf.Table.NumRows(); i++ {
		got[enf.Table.Get(i, "drug").S] = enf.Table.Get(i, "consumption").I
	}
	for drug, want := range workload.Fig4Consumption {
		if got[drug] != want {
			return nil, fmt.Errorf("E4: %s = %d, want %d", drug, got[drug], want)
		}
	}
	res.addf("matches paper exactly: DH 20, DV 28, DR 89, DM 2 -> PASS")

	// Threshold sweep: groups below k distinct patients are suppressed.
	res.addf("%-4s %-14s %s", "k", "groups-shown", "suppressed")
	for _, k := range []int{2, 5, 10, 25} {
		e2 := core.New(core.Config{})
		e2.AddSource(etl.NewSource("hospital", "hospital", workload.Fig4Prescriptions(1)))
		if err := e2.AddPLAs(fmt.Sprintf(`
pla "s" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
pla "r" { owner "hospital"; level report; scope "drug-consumption";
	allow attribute drug; aggregate min %d by patient;
}`, k)); err != nil {
			return nil, err
		}
		if err := e2.DefineReport(&report.Definition{ID: "drug-consumption",
			Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug ORDER BY drug"}); err != nil {
			return nil, err
		}
		enf2, err := e2.Render("drug-consumption", report.Consumer{Role: "analyst"})
		if err != nil {
			return nil, err
		}
		res.addf("%-4d %-14d %d", k, enf2.Table.NumRows(), enf2.SuppressedRows)
	}

	// Intensional HIV condition (§5): patient column masked exactly on
	// HIV-supported rows.
	e3 := core.New(core.Config{})
	e3.AddSource(etl.NewSource("hospital", "hospital", workload.Fig4Prescriptions(1)))
	if err := e3.AddPLAs(`
pla "s" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
pla "r" { owner "hospital"; level report; scope "rx-list";
	allow attribute drug;
	allow attribute patient when disease <> 'HIV';
}`); err != nil {
		return nil, err
	}
	if err := e3.DefineReport(&report.Definition{ID: "rx-list",
		Query: "SELECT patient, drug FROM prescriptions ORDER BY drug"}); err != nil {
		return nil, err
	}
	enf3, err := e3.Render("rx-list", report.Consumer{Role: "analyst"})
	if err != nil {
		return nil, err
	}
	maskedHIV, shownOther := 0, 0
	for i := 0; i < enf3.Table.NumRows(); i++ {
		d := enf3.Table.Get(i, "drug").S
		masked := enf3.Table.Get(i, "patient").S == "***"
		if d == "DH" || d == "DV" {
			if !masked {
				return nil, fmt.Errorf("E4: HIV patient leaked")
			}
			maskedHIV++
		} else if !masked {
			shownOther++
		}
	}
	res.addf("intensional HIV condition: %d HIV-supported cells masked, %d others shown (48 HIV rows, 91 others) -> PASS",
		maskedHIV, shownOther)
	return res, nil
}

// tableLines splits a rendered table into lines for result embedding.
func tableLines(t *relation.Table) []string {
	var out []string
	cur := ""
	for _, r := range t.String() {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// mustSource fetches a scenario source that is known to exist.
func mustSource(e *core.Engine, name string) *etl.Source {
	s, _ := e.Source(name)
	return s
}
