package sql

import (
	"strings"
	"testing"

	"plabi/internal/relation"
)

func testCatalog() *Catalog {
	c := NewCatalog()
	p := relation.NewBase("prescriptions", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("doctor", relation.TString),
		relation.Col("drug", relation.TString),
		relation.Col("disease", relation.TString),
		relation.Col("date", relation.TDate),
	))
	p.AppendVals(relation.Str("Alice"), relation.Str("Luis"), relation.Str("DH"), relation.Str("HIV"), relation.DateYMD(2007, 2, 12))
	p.AppendVals(relation.Str("Chris"), relation.Null(), relation.Str("DV"), relation.Str("HIV"), relation.DateYMD(2007, 3, 10))
	p.AppendVals(relation.Str("Bob"), relation.Str("Anne"), relation.Str("DR"), relation.Str("asthma"), relation.DateYMD(2007, 8, 10))
	p.AppendVals(relation.Str("Math"), relation.Str("Mark"), relation.Str("DM"), relation.Str("diabetes"), relation.DateYMD(2007, 10, 15))
	p.AppendVals(relation.Str("Alice"), relation.Str("Luis"), relation.Str("DR"), relation.Str("asthma"), relation.DateYMD(2008, 4, 15))
	c.Register(p)

	d := relation.NewBase("drugcost", relation.NewSchema(
		relation.Col("drug", relation.TString),
		relation.Col("cost", relation.TInt),
	))
	d.AppendVals(relation.Str("DD"), relation.Int(50))
	d.AppendVals(relation.Str("DM"), relation.Int(10))
	d.AppendVals(relation.Str("DH"), relation.Int(60))
	d.AppendVals(relation.Str("DV"), relation.Int(30))
	d.AppendVals(relation.Str("DR"), relation.Int(10))
	c.Register(d)
	return c
}

func mustQuery(t *testing.T, c *Catalog, q string) *relation.Table {
	t.Helper()
	res, err := c.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT * FROM prescriptions")
	if res.NumRows() != 5 || res.Schema.Len() != 5 {
		t.Errorf("rows=%d cols=%d", res.NumRows(), res.Schema.Len())
	}
}

func TestSelectWhere(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT patient FROM prescriptions WHERE disease = 'HIV'")
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Get(0, "patient").S != "Alice" || res.Get(1, "patient").S != "Chris" {
		t.Errorf("rows = %v", res)
	}
}

func TestSelectExpressions(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT drug, cost * 2 AS dbl FROM drugcost WHERE cost >= 30 ORDER BY dbl DESC")
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Get(0, "dbl").I != 120 || res.Get(0, "drug").S != "DH" {
		t.Errorf("first = %v", res.Row(0))
	}
}

func TestJoinSQL(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, `SELECT p.patient, p.drug, d.cost
		FROM prescriptions p JOIN drugcost d ON p.drug = d.drug
		WHERE p.disease = 'HIV' ORDER BY patient`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Get(0, "cost").I != 60 || res.Get(1, "cost").I != 30 {
		t.Errorf("costs = %v %v", res.Get(0, "cost"), res.Get(1, "cost"))
	}
}

func TestLeftJoinSQL(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, `SELECT d.drug, p.patient FROM drugcost d
		LEFT JOIN prescriptions p ON d.drug = p.drug ORDER BY drug`)
	foundDD := false
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "drug").S == "DD" {
			foundDD = true
			if !res.Get(i, "patient").IsNull() {
				t.Error("DD must have NULL patient")
			}
		}
	}
	if !foundDD {
		t.Error("DD row missing")
	}
}

func TestGroupBySQL(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, `SELECT drug, COUNT(*) AS consumption
		FROM prescriptions GROUP BY drug ORDER BY drug`)
	want := map[string]int64{"DH": 1, "DM": 1, "DR": 2, "DV": 1}
	if res.NumRows() != 4 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	for i := 0; i < res.NumRows(); i++ {
		d := res.Get(i, "drug").S
		if res.Get(i, "consumption").I != want[d] {
			t.Errorf("%s = %v, want %d", d, res.Get(i, "consumption"), want[d])
		}
	}
}

func TestGroupByAggregatesSQL(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, `SELECT disease, COUNT(*) AS n, MIN(date) AS first, MAX(date) AS last
		FROM prescriptions GROUP BY disease ORDER BY disease`)
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
	// asthma group: base rows 2 and 4.
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "disease").S != "asthma" {
			continue
		}
		if res.Get(i, "n").I != 2 {
			t.Errorf("asthma = %v", res.Row(i))
		}
		if res.Get(i, "first").String() != "2007-08-10" || res.Get(i, "last").String() != "2008-04-15" {
			t.Errorf("dates = %v %v", res.Get(i, "first"), res.Get(i, "last"))
		}
	}
}

func TestImplicitSingleGroup(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT COUNT(*) AS n, SUM(cost) AS total FROM drugcost")
	if res.NumRows() != 1 || res.Get(0, "n").I != 5 || res.Get(0, "total").I != 160 {
		t.Errorf("res = %v", res)
	}
}

func TestCountDistinct(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT COUNT(DISTINCT patient) AS n FROM prescriptions")
	if res.Get(0, "n").I != 4 {
		t.Errorf("n = %v", res.Get(0, "n"))
	}
}

func TestHaving(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, `SELECT disease, COUNT(*) AS n FROM prescriptions
		GROUP BY disease HAVING n >= 2 ORDER BY disease`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// Byte-wise string order: "HIV" sorts before "asthma".
	if res.Get(0, "disease").S != "HIV" || res.Get(1, "disease").S != "asthma" {
		t.Errorf("rows = %v", res)
	}
}

func TestGroupByExpression(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, `SELECT YEAR(date) AS yr, COUNT(*) AS n
		FROM prescriptions GROUP BY YEAR(date) ORDER BY yr`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
	if res.Get(0, "yr").I != 2007 || res.Get(0, "n").I != 4 {
		t.Errorf("2007 = %v", res.Row(0))
	}
	if res.Get(1, "yr").I != 2008 || res.Get(1, "n").I != 1 {
		t.Errorf("2008 = %v", res.Row(1))
	}
}

// TestGroupByQualifiedKey: a select item that names its group key the way
// GROUP BY does — qualified — projects that key.
func TestGroupByQualifiedKey(t *testing.T) {
	c := testCatalog()
	const q = `SELECT p.drug, SUM(d.cost) AS spend FROM prescriptions p
		JOIN drugcost d ON p.drug = d.drug GROUP BY p.drug ORDER BY drug`
	res := mustQuery(t, c, q)
	if got := res.Schema.String(); got != "(drug STRING, spend INT)" {
		t.Fatalf("schema = %s", got)
	}
	if res.NumRows() != 4 || res.Get(2, "drug").S != "DR" || res.Get(2, "spend").I != 20 {
		t.Errorf("res = %v", res)
	}
	if got := res.ColumnOrigin(0); len(got) != 1 || got[0] != (relation.ColRef{Table: "prescriptions", Column: "drug"}) {
		t.Errorf("drug derives from %v", got)
	}
	checkHeaderIsExecuted(t, c, q)
}

func TestDistinctSQL(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT DISTINCT patient FROM prescriptions ORDER BY patient")
	if res.NumRows() != 4 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestLimitSQL(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT * FROM drugcost ORDER BY cost DESC LIMIT 2")
	if res.NumRows() != 2 || res.Get(0, "drug").S != "DH" {
		t.Errorf("res = %v", res)
	}
}

func TestInBetweenLike(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT patient FROM prescriptions WHERE drug IN ('DH', 'DV')")
	if res.NumRows() != 2 {
		t.Errorf("IN rows = %d", res.NumRows())
	}
	res = mustQuery(t, c, "SELECT drug FROM drugcost WHERE cost BETWEEN 10 AND 30 ORDER BY drug")
	if res.NumRows() != 3 {
		t.Errorf("BETWEEN rows = %d", res.NumRows())
	}
	res = mustQuery(t, c, "SELECT patient FROM prescriptions WHERE patient LIKE 'A%'")
	if res.NumRows() != 2 {
		t.Errorf("LIKE rows = %d", res.NumRows())
	}
	res = mustQuery(t, c, "SELECT patient FROM prescriptions WHERE doctor IS NULL")
	if res.NumRows() != 1 || res.Get(0, "patient").S != "Chris" {
		t.Errorf("IS NULL rows = %v", res)
	}
}

func TestDateLiteral(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT patient FROM prescriptions WHERE date >= DATE '2008-01-01'")
	if res.NumRows() != 1 || res.Get(0, "patient").S != "Alice" {
		t.Errorf("rows = %v", res)
	}
}

func TestCreateViewAndQuery(t *testing.T) {
	c := testCatalog()
	if _, err := c.Run(`CREATE VIEW hiv_patients AS SELECT patient, drug FROM prescriptions WHERE disease = 'HIV'`); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, c, "SELECT * FROM hiv_patients ORDER BY patient")
	if res.NumRows() != 2 || res.Schema.Len() != 2 {
		t.Errorf("res = %v", res)
	}
	// Lineage traces through the view to the base table.
	if !res.RowLineage(0).Contains(relation.RowRef{Table: "prescriptions", Row: 0}) {
		t.Errorf("lineage = %v", res.RowLineage(0))
	}
}

func TestViewOnView(t *testing.T) {
	c := testCatalog()
	if _, err := c.Run(`CREATE VIEW v1 AS SELECT patient, disease FROM prescriptions`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(`CREATE VIEW v2 AS SELECT patient FROM v1 WHERE disease = 'asthma'`); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, c, "SELECT * FROM v2 ORDER BY patient")
	if res.NumRows() != 2 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestViewCycleDetected(t *testing.T) {
	c := testCatalog()
	sel, err := ParseSelect("SELECT * FROM v")
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterView("v", sel)
	if _, err := c.Query("SELECT * FROM v"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestUnknownTableError(t *testing.T) {
	c := testCatalog()
	if _, err := c.Query("SELECT * FROM nope"); err == nil {
		t.Error("expected error")
	}
}

func TestNonGroupedColumnError(t *testing.T) {
	c := testCatalog()
	if _, err := c.Query("SELECT patient, COUNT(*) FROM prescriptions GROUP BY disease"); err == nil {
		t.Error("expected non-grouped column error")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t extra garbage",
		"SELECT SUM(*) FROM t",
		"CREATE VIEW v",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t WHERE a = SUM(b)",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestRoundTripString(t *testing.T) {
	queries := []string{
		"SELECT patient FROM prescriptions WHERE disease = 'HIV'",
		"SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug HAVING n >= 2 ORDER BY n DESC LIMIT 3",
		"SELECT p.patient FROM prescriptions AS p JOIN drugcost AS d ON p.drug = d.drug",
		"SELECT DISTINCT patient FROM prescriptions",
	}
	for _, q := range queries {
		sel, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		again, err := ParseSelect(sel.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", sel.String(), err)
		}
		if sel.String() != again.String() {
			t.Errorf("round trip: %q -> %q", sel.String(), again.String())
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "select patient from prescriptions where disease = 'HIV' order by patient")
	if res.NumRows() != 2 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestQuotedIdent(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, `SELECT "patient" FROM prescriptions WHERE disease = 'HIV'`)
	if res.NumRows() != 2 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestCommentsSkipped(t *testing.T) {
	c := testCatalog()
	res := mustQuery(t, c, "SELECT patient -- take the name\nFROM prescriptions -- base\nWHERE disease = 'HIV'")
	if res.NumRows() != 2 {
		t.Errorf("rows = %d", res.NumRows())
	}
}
