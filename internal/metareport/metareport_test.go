package metareport

import (
	"strings"
	"testing"

	"plabi/internal/policy"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

func testCatalog() *sql.Catalog {
	cat := sql.NewCatalog()
	cat.Register(workload.Fig4Prescriptions(1), workload.DrugCostFixture(), workload.FamilyDoctorFixture())
	return cat
}

func portfolio() []*report.Definition {
	return []*report.Definition{
		{ID: "drug-consumption",
			Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug"},
		{ID: "disease-by-year",
			Query: "SELECT disease, YEAR(date) AS yr, COUNT(*) AS n FROM prescriptions GROUP BY disease, YEAR(date)"},
		{ID: "drug-spend",
			Query: "SELECT p.drug, SUM(c.cost) AS spend FROM prescriptions p JOIN drugcost c ON p.drug = c.drug GROUP BY p.drug"},
		{ID: "asthma-patients",
			Query: "SELECT patient, date FROM prescriptions WHERE disease = 'asthma'"},
	}
}

func TestDeriveClustersByFootprint(t *testing.T) {
	cat := testCatalog()
	metas, assign, err := Derive(cat, portfolio())
	if err != nil {
		t.Fatal(err)
	}
	// One cluster for prescriptions⋈drugcost (absorbs the single-table
	// prescriptions reports) — minimality in action.
	if len(metas) != 1 {
		for _, m := range metas {
			t.Logf("meta %s: %s", m.ID, m.Query)
		}
		t.Fatalf("metas = %d, want 1", len(metas))
	}
	if len(assign) != 4 {
		t.Errorf("assignments = %v", assign)
	}
	for id, mid := range assign {
		if mid != metas[0].ID {
			t.Errorf("report %s assigned to %s", id, mid)
		}
	}
	// The meta-report itself must be executable.
	res, err := cat.Query(metas[0].Query)
	if err != nil {
		t.Fatalf("meta query %q: %v", metas[0].Query, err)
	}
	if res.NumRows() == 0 {
		t.Error("meta-report is empty")
	}
	// The meta-report includes the disease column even though only used
	// in a filter (PLA-only column, §5).
	if !res.Schema.HasColumn("disease") {
		t.Errorf("schema = %s", res.Schema)
	}
}

func TestDeriveSeparateFootprints(t *testing.T) {
	cat := testCatalog()
	defs := []*report.Definition{
		{ID: "a", Query: "SELECT drug FROM prescriptions"},
		{ID: "b", Query: "SELECT patient FROM familydoctor"},
	}
	metas, assign, err := Derive(cat, defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("metas = %d", len(metas))
	}
	if assign["a"] == assign["b"] {
		t.Error("disjoint footprints must get separate meta-reports")
	}
}

func TestIsDerivable(t *testing.T) {
	cat := testCatalog()
	metas, _, err := Derive(cat, portfolio())
	if err != nil {
		t.Fatal(err)
	}
	meta := metas[0]

	// Every portfolio report is derivable from its meta.
	for _, d := range portfolio() {
		c, err := IsDerivable(cat, d, meta)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Derivable {
			t.Errorf("report %s not derivable: %v", d.ID, c.Reasons)
		}
	}

	// A NEW report over covered columns is derivable without
	// re-elicitation — the paper's stability argument.
	newRep := &report.Definition{ID: "new",
		Query: "SELECT drug, COUNT(DISTINCT patient) AS patients FROM prescriptions WHERE disease <> 'HIV' GROUP BY drug"}
	c, err := IsDerivable(cat, newRep, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Derivable {
		t.Errorf("new report not derivable: %v", c.Reasons)
	}

	// A report touching an uncovered table is NOT derivable.
	outside := &report.Definition{ID: "outside",
		Query: "SELECT patient FROM familydoctor"}
	c, err = IsDerivable(cat, outside, meta)
	if err != nil {
		t.Fatal(err)
	}
	if c.Derivable {
		t.Error("familydoctor report must not be derivable")
	}
	if len(c.Reasons) == 0 || !strings.Contains(c.Reasons[0], "familydoctor") {
		t.Errorf("reasons = %v", c.Reasons)
	}

	// A report selecting a column the meta does not expose is NOT
	// derivable.
	uncovered := &report.Definition{ID: "uncovered",
		Query: "SELECT doctor FROM prescriptions"}
	c, err = IsDerivable(cat, uncovered, meta)
	if err != nil {
		t.Fatal(err)
	}
	if c.Derivable {
		t.Error("uncovered column must not be derivable")
	}
}

func TestIsDerivableFilterContainment(t *testing.T) {
	cat := testCatalog()
	meta := &MetaReport{ID: "m", Query: "SELECT patient AS patient, drug AS drug, disease AS disease FROM prescriptions WHERE disease <> 'HIV'"}
	// Report confined to asthma rows: implied by disease <> 'HIV'.
	ok1, err := IsDerivable(cat, &report.Definition{ID: "r1",
		Query: "SELECT patient FROM prescriptions WHERE disease = 'asthma'"}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !ok1.Derivable {
		t.Errorf("asthma report should be derivable: %v", ok1.Reasons)
	}
	// Unfiltered report: not confined to the meta's rows.
	ok2, err := IsDerivable(cat, &report.Definition{ID: "r2",
		Query: "SELECT patient FROM prescriptions"}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if ok2.Derivable {
		t.Error("unfiltered report must not be derivable from filtered meta")
	}
}

func TestCoveringMeta(t *testing.T) {
	cat := testCatalog()
	metas, _, err := Derive(cat, portfolio())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := CoveringMeta(cat, portfolio()[0], metas)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no covering meta found")
	}
	m2, c, err := CoveringMeta(cat, &report.Definition{ID: "x",
		Query: "SELECT patient FROM familydoctor"}, metas)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != nil || len(c.Reasons) == 0 {
		t.Errorf("m2 = %v, reasons = %v", m2, c.Reasons)
	}
}

// --- compliance test generation (E7 machinery) ---

func complianceSetup(t *testing.T) (*policy.Registry, *sql.Catalog, *report.Definition) {
	t.Helper()
	cat := testCatalog()
	reg := policy.NewRegistry()
	plas, err := policy.ParseFile(`
pla "meta-pla" {
    owner "hospital"; level metareport; scope "meta-rx";
    allow attribute drug to roles analyst;
    allow attribute patient to roles analyst when disease <> 'HIV';
    aggregate min 5 by patient;
    filter when disease <> 'hepatitis';
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plas {
		if err := reg.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	def := &report.Definition{ID: "drug-consumption",
		Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug"}
	return reg, cat, def
}

func TestGenerateTestsShape(t *testing.T) {
	reg, cat, _ := complianceSetup(t)
	def := &report.Definition{ID: "rx-list",
		Query: "SELECT patient, drug, disease FROM prescriptions"}
	tests, err := GenerateTests(reg, cat, def, report.Consumer{Role: "analyst"}, []string{"meta-rx"})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, tc := range tests {
		kinds[tc.Kind]++
	}
	// disease: default-deny access test; patient: conditional test;
	// the PLA's filter and aggregation rules each yield one test.
	if kinds["access"] != 1 || kinds["condition"] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
	if kinds["aggregation"] != 1 || kinds["filter"] != 1 {
		t.Errorf("kinds = %v", kinds)
	}

	// An unconditionally-allowed aggregated report generates only the
	// aggregation test.
	aggDef := &report.Definition{ID: "drug-consumption",
		Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug"}
	aggTests, err := GenerateTests(reg, cat, aggDef, report.Consumer{Role: "analyst"}, []string{"meta-rx"})
	if err != nil {
		t.Fatal(err)
	}
	aggKinds := map[string]int{}
	for _, tc := range aggTests {
		aggKinds[tc.Kind]++
	}
	if aggKinds["aggregation"] != 1 || aggKinds["filter"] != 0 {
		t.Errorf("agg kinds = %v", aggKinds)
	}
}

func TestComplianceSuiteDetectsViolations(t *testing.T) {
	reg, cat, def := complianceSetup(t)
	tests, err := GenerateTests(reg, cat, def, report.Consumer{Role: "analyst"}, []string{"meta-rx"})
	if err != nil {
		t.Fatal(err)
	}

	// A compliant output: aggregated with all groups >= 5 distinct
	// patients (drop DM which has only 2).
	good, err := cat.Query("SELECT drug, COUNT(*) AS consumption FROM prescriptions WHERE drug <> 'DM' GROUP BY drug")
	if err != nil {
		t.Fatal(err)
	}
	if fails := RunTests(tests, good); len(fails) != 0 {
		t.Errorf("compliant output failed: %v", fails)
	}

	// A buggy output that kept the DM group (threshold bug) is caught.
	bad, err := cat.Query("SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug")
	if err != nil {
		t.Fatal(err)
	}
	fails := RunTests(tests, bad)
	if len(fails) == 0 {
		t.Fatal("threshold bug not detected")
	}
	if !strings.Contains(fails[0], "support") {
		t.Errorf("failures = %v", fails)
	}
}

func TestComplianceSuiteDetectsMaskingBug(t *testing.T) {
	reg, cat, _ := complianceSetup(t)
	def := &report.Definition{ID: "rx-list",
		Query: "SELECT patient, drug, disease FROM prescriptions"}
	tests, err := GenerateTests(reg, cat, def, report.Consumer{Role: "analyst"}, []string{"meta-rx"})
	if err != nil {
		t.Fatal(err)
	}
	// The raw render exposes HIV patients (condition bug) and the
	// disease column (default-deny bug): the suite must flag it.
	raw, err := cat.Query(def.Query)
	if err != nil {
		t.Fatal(err)
	}
	fails := RunTests(tests, raw)
	if len(fails) < 2 {
		t.Errorf("failures = %v", fails)
	}
}

func TestDeriveWithMaxWidth(t *testing.T) {
	cat := testCatalog()
	defs := []*report.Definition{
		{ID: "a", Query: "SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug"},
		{ID: "b", Query: "SELECT disease, COUNT(*) AS n FROM prescriptions GROUP BY disease"},
		{ID: "c", Query: "SELECT patient, date FROM prescriptions"},
		{ID: "d", Query: "SELECT doctor, COUNT(*) AS n FROM prescriptions GROUP BY doctor"},
	}
	// Unlimited: one meta covers everything.
	wide, _, err := DeriveWith(cat, defs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wide) != 1 {
		t.Fatalf("unlimited metas = %d", len(wide))
	}
	// Width 2: several narrow metas, each executable, each covering its
	// members.
	narrow, assign, err := DeriveWith(cat, defs, Options{MaxWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) < 2 {
		t.Fatalf("narrow metas = %d", len(narrow))
	}
	byID := map[string]*MetaReport{}
	for _, m := range narrow {
		if _, err := cat.Query(m.Query); err != nil {
			t.Errorf("meta %s does not run: %v", m.ID, err)
		}
		byID[m.ID] = m
	}
	for _, d := range defs {
		m := byID[assign[d.ID]]
		if m == nil {
			t.Fatalf("report %s unassigned", d.ID)
		}
		c, err := IsDerivable(cat, d, m)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Derivable {
			t.Errorf("report %s not derivable from its narrow meta: %v", d.ID, c.Reasons)
		}
	}
	// A single over-wide report still gets its own meta.
	big := []*report.Definition{{ID: "wide", Query: "SELECT patient, doctor, drug, disease, date FROM prescriptions"}}
	bigMetas, _, err := DeriveWith(cat, big, Options{MaxWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(bigMetas) != 1 {
		t.Errorf("over-wide report metas = %d", len(bigMetas))
	}
}

// TestDeriveThroughStarView: a view's columns are its executed header's, so
// a report over a SELECT * view contributes the columns it references to
// the derived meta-report, and containment sees them.
func TestDeriveThroughStarView(t *testing.T) {
	cat := testCatalog()
	if _, err := cat.Run("CREATE VIEW hivrx AS SELECT * FROM prescriptions WHERE disease = 'HIV'"); err != nil {
		t.Fatal(err)
	}
	def := &report.Definition{ID: "hiv-drugs", Query: "SELECT drug, COUNT(*) AS n FROM hivrx WHERE date >= DATE '2007-01-01' GROUP BY drug"}
	metas, assign, err := Derive(cat, []*report.Definition{def})
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || assign[def.ID] != metas[0].ID {
		t.Fatalf("metas = %v, assign = %v", metas, assign)
	}
	if want := "SELECT hivrx.date AS date, hivrx.drug AS drug FROM hivrx"; metas[0].Query != want {
		t.Errorf("meta query = %q, want %q", metas[0].Query, want)
	}
	c, err := IsDerivable(cat, def, metas[0])
	if err != nil || !c.Derivable {
		t.Errorf("report not derivable from its own meta: %v %v", c.Reasons, err)
	}
	shows := &report.Definition{ID: "hiv-patients", Query: "SELECT patient FROM hivrx"}
	c, err = IsDerivable(cat, shows, metas[0])
	if err != nil || c.Derivable {
		t.Errorf("a report showing a column the meta omits is derivable: %v %v", c, err)
	}
}
