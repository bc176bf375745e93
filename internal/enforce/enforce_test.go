package enforce

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"plabi/internal/metadata"
	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

func registryWith(t *testing.T, plaSrcs ...string) *policy.Registry {
	t.Helper()
	reg := policy.NewRegistry()
	for _, src := range plaSrcs {
		plas, err := policy.ParseFile(src)
		if err != nil {
			t.Fatalf("ParseFile: %v", err)
		}
		for _, p := range plas {
			if err := reg.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return reg
}

func fixtureCatalog() *sql.Catalog {
	cat := sql.NewCatalog()
	cat.Register(workload.PrescriptionsFixture(), workload.DrugCostFixture(), workload.FamilyDoctorFixture())
	return cat
}

// --- SourceEnforcer (Fig. 2a) ---

func TestSourceReleaseRowFilter(t *testing.T) {
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		filter when disease <> 'HIV';
	}`)
	e := &SourceEnforcer{Registry: reg}
	out, rep, err := e.Release(workload.PrescriptionsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 || rep.RowsFiltered != 2 {
		t.Errorf("rows = %d filtered = %d", out.NumRows(), rep.RowsFiltered)
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Get(i, "disease").S == "HIV" {
			t.Error("HIV row leaked")
		}
	}
}

func TestSourceReleaseAnonymize(t *testing.T) {
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		anonymize attribute patient using pseudonym;
		anonymize attribute date using generalize level 3;
	}`)
	e := &SourceEnforcer{Registry: reg}
	out, rep, err := e.Release(workload.PrescriptionsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ColumnsAnon) != 2 {
		t.Errorf("anon columns = %v", rep.ColumnsAnon)
	}
	if !strings.HasPrefix(out.Get(0, "patient").S, "anon-") {
		t.Errorf("patient = %q", out.Get(0, "patient").S)
	}
	if out.Get(0, "date").String() != "2007" {
		t.Errorf("date = %q", out.Get(0, "date").String())
	}
	// Stable pseudonyms: both Alice rows share one pseudonym.
	if out.Get(0, "patient").S != out.Get(4, "patient").S {
		t.Error("pseudonym not stable")
	}
}

func TestSourceReleaseConsentMetadata(t *testing.T) {
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
	}`)
	store := metadata.NewStore()
	if err := store.AddKeyed(&metadata.KeyedMetadata{
		Name: "patient-policies", Data: "prescriptions", DataKey: "patient",
		Meta: workload.PoliciesFixture(), MetaKey: "patient",
	}); err != nil {
		t.Fatal(err)
	}
	e := &SourceEnforcer{Registry: reg, Metadata: store,
		ConsentAliases: map[string]string{"name": "patient"}}
	out, rep, err := e.Release(workload.PrescriptionsFixture())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2b: Alice/Bob hide disease, Math hides name and disease,
	// Chris shows both. Rows: Alice, Chris, Bob, Math, Alice.
	if rep.CellsMasked != 5 { // diseases of rows 0,2,3,4 + name of row 3
		t.Errorf("cells masked = %d\n%s", rep.CellsMasked, out)
	}
	if out.Get(0, "disease").S != "***" || out.Get(1, "disease").S != "HIV" {
		t.Errorf("diseases = %v / %v", out.Get(0, "disease"), out.Get(1, "disease"))
	}
	if out.Get(3, "patient").S != "***" {
		t.Errorf("Math's name = %v", out.Get(3, "patient"))
	}
}

// TestSourceReleaseSegmentBacked: releasing a spilled table releases
// exactly what releasing its in-memory original does — same table, same
// report — under every kind of source rule.
func TestSourceReleaseSegmentBacked(t *testing.T) {
	consent := metadata.NewStore()
	if err := consent.AddKeyed(&metadata.KeyedMetadata{
		Name: "patient-policies", Data: "prescriptions", DataKey: "patient",
		Meta: workload.PoliciesFixture(), MetaKey: "patient",
	}); err != nil {
		t.Fatal(err)
	}
	ds, err := workload.Generate(workload.DefaultConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	rx := `pla "h" { owner "hospital"; level source; scope "prescriptions"; `
	cases := []struct {
		name  string
		table *relation.Table
		e     *SourceEnforcer
	}{
		{"row filter", workload.PrescriptionsFixture(),
			&SourceEnforcer{Registry: registryWith(t, rx+`filter when disease <> 'HIV'; }`)}},
		{"consent metadata", workload.PrescriptionsFixture(),
			&SourceEnforcer{Registry: registryWith(t, rx+`allow attribute *; }`), Metadata: consent,
				ConsentAliases: map[string]string{"name": "patient"}}},
		{"pseudonym + generalize", workload.PrescriptionsFixture(),
			&SourceEnforcer{Registry: registryWith(t, rx+`anonymize attribute patient using pseudonym;
				anonymize attribute date using generalize level 3; }`)}},
		{"k-anonymity + l-diversity", ds.Residents,
			&SourceEnforcer{Registry: registryWith(t, `pla "m" { owner "municipality"; level source; scope "residents";
				release kanonymity 5 quasi age, zip ldiversity 2 on municipality; }`)}},
	}
	for _, c := range cases {
		store := relation.NewSegmentStore(t.TempDir())
		store.SetPartitionRows(2)
		spilled, err := store.Spill(c.table)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep, err := c.e.Release(c.table)
		if err != nil {
			t.Fatalf("%s: in-memory release: %v", c.name, err)
		}
		got, gotRep, err := c.e.Release(spilled)
		if err != nil {
			t.Fatalf("%s: segment-backed release: %v", c.name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: released tables differ:\nsegment-backed:\n%s\nin-memory:\n%s", c.name, got, want)
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Errorf("%s: reports differ:\nsegment-backed: %+v\nin-memory:      %+v", c.name, gotRep, wantRep)
		}
	}
}

func TestSourceReleaseKAnonymity(t *testing.T) {
	reg := registryWith(t, `pla "m" { owner "municipality"; level source; scope "residents";
		release kanonymity 5 quasi age, zip ldiversity 2 on municipality;
	}`)
	ds, err := workload.Generate(workload.DefaultConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	e := &SourceEnforcer{Registry: reg}
	out, rep, err := e.Release(ds.Residents)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KAnonStats.Partitions == 0 {
		t.Error("no partitions recorded")
	}
	// The released table must satisfy 5-anonymity on (age, zip).
	classes := map[string]int{}
	for i := 0; i < out.NumRows(); i++ {
		classes[out.Get(i, "age").String()+"|"+out.Get(i, "zip").String()]++
	}
	for k, n := range classes {
		if n < 5 {
			t.Errorf("class %q has %d < 5 members", k, n)
		}
	}
}

// --- QueryRewriter (VPD) ---

func TestRewriteAddsFilter(t *testing.T) {
	cat := fixtureCatalog()
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
		filter when disease <> 'HIV';
	}`)
	rw := NewQueryRewriter(reg, cat)
	out, decisions, err := rw.RewriteSQL("SELECT patient, drug FROM prescriptions", "analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "WHERE") || !strings.Contains(out, "HIV") {
		t.Errorf("rewritten = %q", out)
	}
	if len(decisions) != 1 || decisions[0].Rule != "row-filter" {
		t.Errorf("decisions = %v", decisions)
	}
	// Running the rewritten query returns only non-HIV rows.
	res, err := cat.Query(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestRewriteMasksDeniedAttribute(t *testing.T) {
	cat := fixtureCatalog()
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
		deny attribute disease to roles analyst;
	}`)
	rw := NewQueryRewriter(reg, cat)
	out, decisions, err := rw.RewriteSQL("SELECT patient, disease FROM prescriptions", "analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat.Query(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "disease").S != "***" {
			t.Errorf("disease leaked: %v", res.Get(i, "disease"))
		}
		if res.Get(i, "patient").S == "***" {
			t.Error("patient should not be masked")
		}
	}
	found := false
	for _, d := range decisions {
		if d.Rule == "access-deny" && d.Subject == "disease" {
			found = true
		}
	}
	if !found {
		t.Errorf("decisions = %v", decisions)
	}
	// A different role is unaffected.
	out2, _, err := rw.RewriteSQL("SELECT patient, disease FROM prescriptions", "auditor", "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "***") {
		t.Error("auditor query should be untouched")
	}
}

func TestRewriteBlocksForbiddenJoin(t *testing.T) {
	cat := fixtureCatalog()
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
		forbid join with familydoctor;
		allow join with drugcost;
	}`)
	rw := NewQueryRewriter(reg, cat)
	out, decisions, err := rw.RewriteSQL(
		`SELECT p.patient FROM prescriptions p JOIN familydoctor f ON p.patient = f.patient`,
		"analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Errorf("blocked query should return empty, got %q", out)
	}
	if len(decisions) != 1 || decisions[0].Outcome != Block {
		t.Errorf("decisions = %v", decisions)
	}
	// The permitted drugcost join passes.
	out2, _, err := rw.RewriteSQL(
		`SELECT p.patient FROM prescriptions p JOIN drugcost d ON p.drug = d.drug`,
		"analyst", "")
	if err != nil || out2 == "" {
		t.Errorf("allowed join blocked: %q %v", out2, err)
	}
}

// --- ReportEnforcer (Fig. 4) ---

const reportPLAs = `
pla "hospital-report" {
    owner "hospital"; level report; scope "drug-consumption";
    allow attribute drug to roles analyst;
    aggregate min 5 by patient;
}
pla "hospital-source" {
    owner "hospital"; level source; scope "prescriptions";
    allow attribute *;
}
`

func enforcerWith(t *testing.T, plas string) (*ReportEnforcer, *sql.Catalog) {
	t.Helper()
	cat := fixtureCatalog()
	// Register the Fig. 4 fixture as the larger prescriptions table.
	cat.Register(workload.Fig4Prescriptions(1))
	reg := registryWith(t, plas)
	return NewReportEnforcer(reg, cat, Config{}), cat
}

func TestReportAggregationThreshold(t *testing.T) {
	e, _ := enforcerWith(t, reportPLAs)
	def := &report.Definition{
		ID:    "drug-consumption",
		Title: "Drug consumption",
		Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug ORDER BY drug",
	}
	enf, err := e.Render(def, report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4b counts: DH 20, DV 28, DR 89, DM 2. The min-5-patients
	// threshold suppresses the DM group (2 prescriptions from 2 patients).
	if enf.SuppressedRows != 1 {
		t.Fatalf("suppressed = %d\n%s", enf.SuppressedRows, enf.Table)
	}
	got := map[string]int64{}
	for i := 0; i < enf.Table.NumRows(); i++ {
		got[enf.Table.Get(i, "drug").S] = enf.Table.Get(i, "consumption").I
	}
	if got["DH"] != 20 || got["DV"] != 28 || got["DR"] != 89 {
		t.Errorf("consumption = %v", got)
	}
	if _, present := got["DM"]; present {
		t.Error("DM group must be suppressed")
	}
	// The decision carries lineage evidence.
	found := false
	for _, d := range enf.Decisions {
		if d.Rule == "aggregation-threshold" && len(d.Evidence) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("decisions = %v", enf.Decisions)
	}
}

func TestReportDeniedColumnMasked(t *testing.T) {
	e, _ := enforcerWith(t, `
pla "r" { owner "hospital"; level report; scope "rx-list";
    allow attribute drug to roles analyst;
    deny attribute patient to roles analyst;
}
pla "s" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
`)
	def := &report.Definition{ID: "rx-list",
		Query: "SELECT patient, drug FROM prescriptions WHERE drug = 'DM'"}
	enf, err := e.Render(def, report.Consumer{Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.Table.NumRows() != 2 {
		t.Fatalf("rows = %d", enf.Table.NumRows())
	}
	for i := 0; i < enf.Table.NumRows(); i++ {
		if enf.Table.Get(i, "patient").S != "***" {
			t.Error("patient not masked")
		}
		if enf.Table.Get(i, "drug").S == "***" {
			t.Error("drug wrongly masked")
		}
	}
	if enf.MaskedCells != 2 {
		t.Errorf("masked = %d", enf.MaskedCells)
	}
}

// TestReportIntensionalCondition reproduces the paper's §5 example: a
// patient-related column may be shown only for patients that are not HIV
// positive — even when the HIV column itself is not in the report.
func TestReportIntensionalCondition(t *testing.T) {
	e, _ := enforcerWith(t, `
pla "r" { owner "hospital"; level report; scope "rx-list";
    allow attribute patient to roles analyst when disease <> 'HIV';
    allow attribute drug to roles analyst;
}
pla "s" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
`)
	def := &report.Definition{ID: "rx-list",
		Query: "SELECT patient, drug FROM prescriptions WHERE drug IN ('DH', 'DM') ORDER BY drug"}
	enf, err := e.Render(def, report.Consumer{Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.Table.NumRows() != 22 { // 20 DH + 2 DM
		t.Fatalf("rows = %d", enf.Table.NumRows())
	}
	maskedPatients, shownPatients := 0, 0
	for i := 0; i < enf.Table.NumRows(); i++ {
		drug := enf.Table.Get(i, "drug").S
		patient := enf.Table.Get(i, "patient").S
		if drug == "DH" { // HIV prescriptions: patient must be masked
			if patient != "***" {
				t.Errorf("HIV patient leaked: %q", patient)
			}
			maskedPatients++
		} else { // DM = diabetes: patient shown
			if patient == "***" {
				t.Error("non-HIV patient wrongly masked")
			}
			shownPatients++
		}
	}
	if maskedPatients != 20 || shownPatients != 2 {
		t.Errorf("masked=%d shown=%d", maskedPatients, shownPatients)
	}
	// Condition decisions carry evidence naming the failing source rows.
	evidenced := false
	for _, d := range enf.Decisions {
		if d.Rule == "condition" && len(d.Evidence) > 0 && strings.Contains(d.Evidence[0], "prescriptions#") {
			evidenced = true
		}
	}
	if !evidenced {
		t.Error("condition decisions lack provenance evidence")
	}
}

func TestReportClosedWorldDefaultDeny(t *testing.T) {
	e, _ := enforcerWith(t, `
pla "r" { owner "hospital"; level report; scope "rx-list";
    allow attribute drug to roles analyst;
}
pla "s" { owner "hospital"; level source; scope "prescriptions"; allow attribute drug; }
`)
	def := &report.Definition{ID: "rx-list",
		Query: "SELECT patient, drug FROM prescriptions WHERE drug = 'DM'"}
	enf, err := e.Render(def, report.Consumer{Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	// patient has no allow anywhere: masked by default (closed world).
	for i := 0; i < enf.Table.NumRows(); i++ {
		if enf.Table.Get(i, "patient").S != "***" {
			t.Error("closed world violated")
		}
	}
	found := false
	for _, d := range enf.Decisions {
		if d.Rule == "access-default-deny" {
			found = true
		}
	}
	if !found {
		t.Errorf("decisions = %v", enf.Decisions)
	}
}

func TestStaticCheckCatchesViolations(t *testing.T) {
	e, _ := enforcerWith(t, `
pla "s" { owner "hospital"; level source; scope "prescriptions";
    allow attribute *;
    aggregate min 5 by patient;
    forbid join with familydoctor;
}
`)
	// Non-aggregated report under a threshold rule: static violation.
	def := &report.Definition{ID: "raw-list",
		Query: "SELECT patient, drug FROM prescriptions"}
	ds, err := e.StaticCheck(def, "analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	foundThreshold := false
	for _, d := range ds {
		if d.Rule == "aggregation-threshold" && d.Outcome == Block {
			foundThreshold = true
		}
	}
	if !foundThreshold {
		t.Errorf("static decisions = %v", ds)
	}
	// Forbidden join: static block, and Render returns an empty table.
	def2 := &report.Definition{ID: "joined",
		Query: "SELECT p.patient FROM prescriptions p JOIN familydoctor f ON p.patient = f.patient"}
	ds2, err := e.StaticCheck(def2, "analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	foundJoin := false
	for _, d := range ds2 {
		if d.Rule == "join-permission" && d.Outcome == Block {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Errorf("static decisions = %v", ds2)
	}
	enf, err := e.Render(def2, report.Consumer{Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.Table.NumRows() != 0 {
		t.Error("blocked report must render empty")
	}
}

func TestStaticCompliantReportPasses(t *testing.T) {
	e, _ := enforcerWith(t, reportPLAs)
	def := &report.Definition{ID: "drug-consumption",
		Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug"}
	ds, err := e.StaticCheck(def, "analyst", "quality")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Outcome == Block {
			t.Errorf("unexpected block: %v", d)
		}
	}
}

// --- PLAGuard ---

func TestPLAGuard(t *testing.T) {
	reg := registryWith(t, `
pla "h" { owner "hospital"; level source; scope "prescriptions";
    forbid join with familydoctor;
    allow join with drugcost;
    forbid integration for municipality;
    allow integration for laboratory;
}
`)
	g := NewPLAGuard(reg)
	if err := g.CheckJoin("prescriptions", "familydoctor"); err == nil {
		t.Error("forbidden join must fail")
	}
	if err := g.CheckJoin("familydoctor", "prescriptions"); err == nil {
		t.Error("forbidden join must fail in both directions")
	}
	if err := g.CheckJoin("prescriptions", "drugcost"); err != nil {
		t.Errorf("allowed join failed: %v", err)
	}
	// Tables without any join rules are unconstrained.
	if err := g.CheckJoin("labresults", "residents"); err != nil {
		t.Errorf("unconstrained join failed: %v", err)
	}
	if err := g.CheckIntegration("prescriptions", "municipality"); err == nil {
		t.Error("forbidden integration must fail")
	}
	if err := g.CheckIntegration("prescriptions", "laboratory"); err != nil {
		t.Errorf("allowed integration failed: %v", err)
	}
}

func TestDecisionStringAndSummary(t *testing.T) {
	d := Decision{Outcome: Mask, Rule: "access-deny", Subject: "patient",
		PLAs: []string{"p1"}, Detail: "denied"}
	if s := d.String(); !strings.Contains(s, "mask") || !strings.Contains(s, "p1") {
		t.Errorf("String = %q", s)
	}
	sum := Summarize([]Decision{
		{Outcome: Permit}, {Outcome: Mask}, {Outcome: Mask},
		{Outcome: SuppressRow}, {Outcome: SuppressGroup}, {Outcome: Block},
	})
	if sum.Permitted != 1 || sum.Masked != 2 || sum.RowsOut != 1 || sum.GroupsOut != 1 || sum.Blocked != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestSourceReleaseRetention(t *testing.T) {
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
		retain 365 days;
	}`)
	e := &SourceEnforcer{Registry: reg,
		Now: time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC)}
	out, rep, err := e.Release(workload.PrescriptionsFixture())
	if err != nil {
		t.Fatal(err)
	}
	// Cutoff is 2007-06-02: the two early-2007 rows fall out of the
	// window; the later three remain.
	if out.NumRows() != 3 || out.Get(2, "date").String() != "2008-04-15" {
		t.Errorf("rows = %v", out)
	}
	if rep.RowsFiltered != 2 {
		t.Errorf("filtered = %d", rep.RowsFiltered)
	}
	found := false
	for _, d := range rep.Decisions {
		if d.Rule == "retention" {
			found = true
		}
	}
	if !found {
		t.Errorf("decisions = %v", rep.Decisions)
	}

	// Zero Now disables retention (deterministic replays).
	e2 := &SourceEnforcer{Registry: reg}
	out2, _, err := e2.Release(workload.PrescriptionsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if out2.NumRows() != 5 {
		t.Errorf("retention should be disabled: %d rows", out2.NumRows())
	}

	// Custom retention column name.
	reg2 := registryWith(t, `pla "l" { owner "lab"; level source; scope "labresults";
		allow attribute *;
		retain 30 days;
	}`)
	lr := relation.NewBase("labresults", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("taken_on", relation.TDate),
	))
	lr.AppendVals(relation.Str("Alice"), relation.DateYMD(2008, 5, 20))
	lr.AppendVals(relation.Str("Bob"), relation.DateYMD(2008, 1, 1))
	e3 := &SourceEnforcer{Registry: reg2,
		Now:              time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC),
		RetentionColumns: map[string]string{"labresults": "taken_on"}}
	out3, _, err := e3.Release(lr)
	if err != nil {
		t.Fatal(err)
	}
	if out3.NumRows() != 1 || out3.Get(0, "patient").S != "Alice" {
		t.Errorf("rows = %v", out3)
	}
}

// TestRewriteConditionBecomesFilter verifies the VPD reading of the §5
// HIV example: an allow-with-condition turns into a WHERE conjunct, so
// the rewritten query cannot return rows violating the condition.
func TestRewriteConditionBecomesFilter(t *testing.T) {
	cat := fixtureCatalog()
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute drug;
		allow attribute patient when disease <> 'HIV';
	}`)
	rw := NewQueryRewriter(reg, cat)
	out, decisions, err := rw.RewriteSQL("SELECT patient, drug FROM prescriptions", "analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "WHERE") || !strings.Contains(out, "HIV") {
		t.Fatalf("condition not folded into WHERE: %q", out)
	}
	res, err := cat.Query(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 { // the two HIV rows are gone
		t.Errorf("rows = %d\n%s", res.NumRows(), res)
	}
	found := false
	for _, d := range decisions {
		if d.Rule == "condition-filter" {
			found = true
		}
	}
	if !found {
		t.Errorf("decisions = %v", decisions)
	}

	// A condition over columns the queried table lacks masks the
	// attribute conservatively instead of silently passing.
	reg2 := registryWith(t, `pla "c" { owner "agency"; level source; scope "drugcost";
		allow attribute drug;
		allow attribute cost when hivstatus <> 'positive';
	}`)
	rw2 := NewQueryRewriter(reg2, cat)
	out2, decisions2, err := rw2.RewriteSQL("SELECT drug, cost FROM drugcost", "analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cat.Query(out2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res2.NumRows(); i++ {
		if res2.Get(i, "cost").S != "***" {
			t.Errorf("unresolvable condition must mask: %v", res2.Row(i))
		}
	}
	foundUnres := false
	for _, d := range decisions2 {
		if d.Rule == "condition-unresolvable" {
			foundUnres = true
		}
	}
	if !foundUnres {
		t.Errorf("decisions = %v", decisions2)
	}
}

// TestRewriteStarDoesNotBypassMasking: SELECT * must be expanded and
// masked like explicit column lists.
func TestRewriteStarDoesNotBypassMasking(t *testing.T) {
	cat := fixtureCatalog()
	reg := registryWith(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute *;
		deny attribute disease to roles analyst;
	}`)
	rw := NewQueryRewriter(reg, cat)
	out, _, err := rw.RewriteSQL("SELECT * FROM prescriptions", "analyst", "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat.Query(out)
	if err != nil {
		t.Fatalf("rewritten %q: %v", out, err)
	}
	if res.Schema.Len() != 5 {
		t.Fatalf("expanded schema = %s", res.Schema)
	}
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "disease").S != "***" {
			t.Fatalf("SELECT * leaked disease: %v", res.Row(i))
		}
		if res.Get(i, "patient").S == "***" {
			t.Fatal("allowed column wrongly masked")
		}
	}
}

// Conditions and row filters are decided on base cells read through the
// tracer. When those cells cannot be read, the render fails instead of
// treating the condition as not applicable to the row.
func TestReportUnreadableSupportFailsRender(t *testing.T) {
	for name, rules := range map[string]string{
		"condition":  `allow attribute drug; allow attribute patient to roles analyst when disease <> 'HIV';`,
		"row filter": `allow attribute *; filter when disease <> 'HIV';`,
	} {
		rx := workload.PrescriptionsFixture()
		dir := t.TempDir()
		store := relation.NewSegmentStore(dir)
		store.SetPartitionRows(2) // three partitions; at most one stays cached
		seg, err := store.Spill(rx)
		if err != nil {
			t.Fatal(err)
		}
		// The query reads an in-memory view of the rows, so it stays
		// executable; their support is the segment-backed base.
		cat := sql.NewCatalog()
		cat.Register(seg, relation.Rename(rx, "rx"))
		def := &report.Definition{ID: "rx-list", Query: "SELECT patient, drug FROM rx"}
		e := NewReportEnforcer(registryWith(t, `pla "s" { owner "hospital"; level source; scope "prescriptions"; `+rules+` }`), cat, Config{})
		intact, err := e.Render(def, report.Consumer{Role: "analyst"})
		if err != nil || intact.MaskedCells+intact.SuppressedRows != 2 {
			t.Fatalf("%s: intact render: %v, %+v", name, err, intact)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		cat.Register(seg.Clone()) // same segments, nothing cached...
		_, err = e.Render(def, report.Consumer{Role: "analyst"})
		if err == nil || !strings.Contains(err.Error(), "provenance: reading prescriptions#") {
			t.Errorf("%s: render over unreadable support = %v, want a read error", name, err)
		}
	}
}
