package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"plabi/internal/relation"
)

func mustProfile(t *testing.T, c *Catalog, q string) *Profile {
	t.Helper()
	p, err := ProfileSQL(c, q)
	if err != nil {
		t.Fatalf("ProfileSQL(%q): %v", q, err)
	}
	return p
}

func TestProfileBasics(t *testing.T) {
	c := testCatalog()
	p := mustProfile(t, c, "SELECT patient, drug FROM prescriptions WHERE disease = 'HIV'")
	if len(p.BaseTables) != 1 || p.BaseTables[0] != "prescriptions" {
		t.Errorf("tables = %v", p.BaseTables)
	}
	if !p.OutputCols.Contains(relation.ColRef{Table: "prescriptions", Column: "patient"}) {
		t.Errorf("outputs = %v", p.OutputCols)
	}
	if p.OutputCols.Contains(relation.ColRef{Table: "prescriptions", Column: "disease"}) {
		t.Error("disease should not be an output")
	}
	if len(p.Conjuncts) != 1 || p.Conjuncts[0].Col.Column != "disease" || p.Conjuncts[0].Val.S != "HIV" {
		t.Errorf("conjuncts = %v", p.Conjuncts)
	}
	if p.Opaque || p.Aggregated {
		t.Error("should be transparent and non-aggregated")
	}
}

func TestProfileJoinPairs(t *testing.T) {
	c := testCatalog()
	p := mustProfile(t, c, `SELECT p.patient, d.cost FROM prescriptions p
		JOIN drugcost d ON p.drug = d.drug`)
	if len(p.JoinPairs) != 1 || p.JoinPairs[0] != NewJoinPair("prescriptions", "drugcost") {
		t.Errorf("joins = %v", p.JoinPairs)
	}
	if len(p.BaseTables) != 2 {
		t.Errorf("tables = %v", p.BaseTables)
	}
}

func TestProfileAggregation(t *testing.T) {
	c := testCatalog()
	p := mustProfile(t, c, "SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug")
	if !p.Aggregated {
		t.Error("should be aggregated")
	}
	if !p.GroupKeys.Contains(relation.ColRef{Table: "prescriptions", Column: "drug"}) {
		t.Errorf("group keys = %v", p.GroupKeys)
	}
}

func TestProfileOpacity(t *testing.T) {
	c := testCatalog()
	p := mustProfile(t, c, "SELECT patient FROM prescriptions WHERE disease = 'HIV' OR disease = 'asthma'")
	if !p.Opaque {
		t.Error("OR should be opaque")
	}
	p = mustProfile(t, c, "SELECT patient FROM prescriptions WHERE disease IN ('HIV', 'asthma')")
	if p.Opaque {
		t.Error("IN should be transparent")
	}
	if p.Conjuncts[0].In == nil || len(p.Conjuncts[0].In) != 2 {
		t.Errorf("conjuncts = %v", p.Conjuncts)
	}
}

func TestProfileThroughView(t *testing.T) {
	c := testCatalog()
	if _, err := c.Run(`CREATE VIEW recent AS SELECT patient, drug, disease FROM prescriptions WHERE date >= DATE '2007-06-01'`); err != nil {
		t.Fatal(err)
	}
	p := mustProfile(t, c, "SELECT patient FROM recent WHERE disease = 'asthma'")
	if len(p.BaseTables) != 1 || p.BaseTables[0] != "prescriptions" {
		t.Errorf("tables = %v", p.BaseTables)
	}
	// Both the view's filter and the outer filter must be visible.
	if len(p.Conjuncts) != 2 {
		t.Errorf("conjuncts = %v", p.Conjuncts)
	}
}

func TestImplies(t *testing.T) {
	col := relation.ColRef{Table: "t", Column: "x"}
	eq := func(v relation.Value) SimplePred { return SimplePred{Col: col, Op: relation.OpEq, Val: v} }
	cmp := func(op relation.BinOp, v relation.Value) SimplePred {
		return SimplePred{Col: col, Op: op, Val: v}
	}
	in := func(vals ...relation.Value) SimplePred { return SimplePred{Col: col, In: vals} }
	notin := func(vals ...relation.Value) SimplePred { return SimplePred{Col: col, In: vals, NotP: true} }

	cases := []struct {
		r, m SimplePred
		want bool
	}{
		{eq(relation.Int(5)), eq(relation.Int(5)), true},
		{eq(relation.Int(5)), eq(relation.Int(6)), false},
		{eq(relation.Int(5)), cmp(relation.OpGt, relation.Int(3)), true},
		{eq(relation.Int(5)), cmp(relation.OpGt, relation.Int(5)), false},
		{cmp(relation.OpGt, relation.Int(5)), cmp(relation.OpGt, relation.Int(3)), true},
		{cmp(relation.OpGt, relation.Int(3)), cmp(relation.OpGt, relation.Int(5)), false},
		{cmp(relation.OpGe, relation.Int(5)), cmp(relation.OpGt, relation.Int(3)), true},
		{cmp(relation.OpGe, relation.Int(4)), cmp(relation.OpGe, relation.Int(4)), true},
		{cmp(relation.OpLt, relation.Int(3)), cmp(relation.OpLe, relation.Int(3)), true},
		{cmp(relation.OpLe, relation.Int(3)), cmp(relation.OpLt, relation.Int(3)), false},
		{eq(relation.Str("HIV")), in(relation.Str("HIV"), relation.Str("flu")), true},
		{eq(relation.Str("x")), in(relation.Str("HIV")), false},
		{in(relation.Str("a")), in(relation.Str("a"), relation.Str("b")), true},
		{in(relation.Str("a"), relation.Str("c")), in(relation.Str("a"), relation.Str("b")), false},
		{eq(relation.Str("flu")), notin(relation.Str("HIV")), true},
		{eq(relation.Str("HIV")), notin(relation.Str("HIV")), false},
		{notin(relation.Str("HIV"), relation.Str("flu")), notin(relation.Str("HIV")), true},
		{notin(relation.Str("flu")), notin(relation.Str("HIV")), false},
		{eq(relation.Int(5)), cmp(relation.OpNe, relation.Int(6)), true},
		{eq(relation.Int(5)), cmp(relation.OpNe, relation.Int(5)), false},
		{cmp(relation.OpGt, relation.Int(5)), cmp(relation.OpNe, relation.Int(3)), true},
		{cmp(relation.OpNe, relation.Int(3)), cmp(relation.OpNe, relation.Int(3)), true},
		{in(relation.Int(4), relation.Int(5)), cmp(relation.OpGt, relation.Int(3)), true},
		{in(relation.Int(2), relation.Int(5)), cmp(relation.OpGt, relation.Int(3)), false},
		{eq(relation.Str("Alice")), SimplePred{Col: col, Op: relation.OpLike, Val: relation.Str("A%")}, true},
		{eq(relation.Str("Bob")), SimplePred{Col: col, Op: relation.OpLike, Val: relation.Str("A%")}, false},
		// Different columns never imply each other.
		{SimplePred{Col: relation.ColRef{Table: "t", Column: "y"}, Op: relation.OpEq, Val: relation.Int(5)}, eq(relation.Int(5)), false},
	}
	for _, cse := range cases {
		if got := Implies(cse.r, cse.m); got != cse.want {
			t.Errorf("Implies(%v, %v) = %v, want %v", cse.r, cse.m, got, cse.want)
		}
	}
}

func TestConjunctionImplies(t *testing.T) {
	col := func(c string) relation.ColRef { return relation.ColRef{Table: "t", Column: c} }
	rs := []SimplePred{
		{Col: col("x"), Op: relation.OpEq, Val: relation.Int(5)},
		{Col: col("y"), Op: relation.OpGt, Val: relation.Int(10)},
	}
	ms := []SimplePred{{Col: col("x"), Op: relation.OpGt, Val: relation.Int(0)}}
	if !ConjunctionImplies(rs, ms) {
		t.Error("x=5 AND y>10 should imply x>0")
	}
	ms2 := []SimplePred{{Col: col("z"), Op: relation.OpGt, Val: relation.Int(0)}}
	if ConjunctionImplies(rs, ms2) {
		t.Error("no information about z")
	}
	if !ConjunctionImplies(rs, nil) {
		t.Error("anything implies the empty conjunction")
	}
}

func TestProfileAmbiguousColumnSkipped(t *testing.T) {
	c := testCatalog()
	// "drug" exists in both tables; unqualified output falls back to
	// qualified-only resolution and must not panic.
	p := mustProfile(t, c, `SELECT p.drug FROM prescriptions p JOIN drugcost d ON p.drug = d.drug`)
	if !p.OutputCols.Contains(relation.ColRef{Table: "prescriptions", Column: "drug"}) {
		t.Errorf("outputs = %v", p.OutputCols)
	}
}

// derivedCatalog is testCatalog plus "rx_cost": prescriptions joined with
// drugcost and registered as a derived table the way the ETL registers its
// staging outputs — column names qualified by the join side (l.drug,
// r.drug, r.cost), origins pointing at the base tables.
func derivedCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := testCatalog()
	p, _ := c.Table("prescriptions")
	d, _ := c.Table("drugcost")
	j, err := relation.Join(relation.Rename(p, "l"), relation.Rename(d, "r"),
		relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")), relation.InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	j.Name = "rx_cost"
	c.Register(j)
	return c
}

// checkProfileIsExecuted asserts the profile says of a query's output what
// executing it does: every output column that is not an aggregate profiles
// to the origins the result carries, and the profile's base tables cover
// every table in the result's column origins and row lineage.
func checkProfileIsExecuted(t *testing.T, c *Catalog, q string) {
	t.Helper()
	sel, err := ParseSelect(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	prof, err := ProfileQuery(c, sel)
	if err != nil {
		t.Fatalf("ProfileQuery(%q): %v", q, err)
	}
	res, err := c.Exec(sel)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	aggregate := map[string]bool{}
	for _, it := range sel.Items {
		if it.Agg != nil {
			aggregate[strings.ToLower(it.OutName())] = true
		}
	}
	reads := map[string]bool{}
	for _, b := range prof.BaseTables {
		reads[b] = true
	}
	for ci, col := range res.Schema.Columns {
		name := strings.ToLower(col.Name)
		if res.Schema.Index(name) != ci {
			continue // a repeated name means its first column
		}
		got, ok := prof.OutputNames[name]
		if !ok {
			t.Errorf("%q: output column %q is not in the profile", q, name)
			continue
		}
		for _, o := range res.ColumnOrigin(ci) {
			if !reads[o.Table] {
				t.Errorf("%q: column %q derives from %s, base tables are %v", q, name, o, prof.BaseTables)
			}
		}
		if !aggregate[name] && !reflect.DeepEqual(got, res.ColumnOrigin(ci)) {
			t.Errorf("%q: column %q profiles to %v, executes to %v", q, name, got, res.ColumnOrigin(ci))
		}
	}
	for ri := 0; ri < res.NumRows(); ri++ {
		for _, ref := range res.RowLineage(ri) {
			if !reads[ref.Table] {
				t.Fatalf("%q: row %d derives from %s, base tables are %v", q, ri, ref, prof.BaseTables)
			}
		}
	}
}

// TestProfileThroughDerivedTable: a registered derived table names its
// columns l.drug, r.cost, …; a query names them drug, cost. The profile
// resolves them as the executor does — to the base tables' columns.
func TestProfileThroughDerivedTable(t *testing.T) {
	c := derivedCatalog(t)
	p := mustProfile(t, c, "SELECT drug, patient, cost FROM rx_cost WHERE disease = 'HIV' AND cost > 20")
	want := map[string]relation.ColRef{
		"drug":    {Table: "prescriptions", Column: "drug"},
		"patient": {Table: "prescriptions", Column: "patient"},
		"cost":    {Table: "drugcost", Column: "cost"},
	}
	for name, ref := range want {
		if got := p.OutputNames[name]; len(got) != 1 || got[0] != ref {
			t.Errorf("%s profiles to %v, want %v", name, got, ref)
		}
	}
	if got := fmt.Sprint(p.BaseTables); got != "[drugcost prescriptions]" {
		t.Errorf("base tables = %s", got)
	}
	if len(p.Conjuncts) != 2 || p.Opaque ||
		p.Conjuncts[0].Col != (relation.ColRef{Table: "prescriptions", Column: "disease"}) ||
		p.Conjuncts[1].Col != (relation.ColRef{Table: "drugcost", Column: "cost"}) {
		t.Errorf("conjuncts = %v (opaque %v)", p.Conjuncts, p.Opaque)
	}
	g := mustProfile(t, c, "SELECT drug, COUNT(*) AS n, SUM(cost) AS spend FROM rx_cost GROUP BY drug")
	if !g.GroupKeys.Contains(want["drug"]) {
		t.Errorf("group keys = %v", g.GroupKeys)
	}
	// An aggregate shows its argument, COUNT(*) nothing: the report's output
	// columns are drug and cost, not every column it counts over.
	if len(g.OutputNames["n"]) != 0 || !g.OutputNames["spend"].Contains(want["cost"]) || len(g.OutputCols) != 2 {
		t.Errorf("aggregate outputs: n %v, spend %v, all %v", g.OutputNames["n"], g.OutputNames["spend"], g.OutputCols)
	}
	for _, q := range []string{
		"SELECT drug, patient, cost FROM rx_cost WHERE disease = 'HIV'",
		"SELECT * FROM rx_cost",
		"SELECT drug, COUNT(*) AS n, SUM(cost) AS spend FROM rx_cost GROUP BY drug",
		"SELECT x.patient, d.cost FROM rx_cost x JOIN drugcost d ON x.drug = d.drug",
	} {
		checkProfileIsExecuted(t, c, q)
	}
}

// TestProfileBaseTablesAreTheFromRelations: a table the query joins but
// shows no column of is still read.
func TestProfileBaseTablesAreTheFromRelations(t *testing.T) {
	c := derivedCatalog(t)
	if _, err := c.Run("CREATE VIEW priced AS SELECT p.patient FROM prescriptions p JOIN drugcost d ON p.drug = d.drug"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT patient FROM rx_cost",
		"SELECT patient FROM priced",
		"SELECT p.patient FROM prescriptions p JOIN drugcost d ON p.drug = d.drug",
	} {
		if got := fmt.Sprint(mustProfile(t, c, q).BaseTables); got != "[drugcost prescriptions]" {
			t.Errorf("%q: base tables = %s", q, got)
		}
	}
}

// TestProfileRejectsWhatTheExecutorRejects: a reference the executor does
// not resolve is an error of the profile — in the executor's words — not an
// empty origin set; that includes a predicate column, which the executor
// only trips over once a row reaches it.
func TestProfileRejectsWhatTheExecutorRejects(t *testing.T) {
	c := testCatalog()
	for _, v := range []string{
		"CREATE VIEW a AS SELECT * FROM b",
		"CREATE VIEW b AS SELECT * FROM a",
		"CREATE VIEW stale AS SELECT patient FROM prescriptions WHERE nope = 1",
	} {
		if _, err := c.Run(v); err != nil {
			t.Fatal(err)
		}
	}
	for q, want := range map[string]string{
		"SELECT nope FROM prescriptions":                                                            `unknown column "nope"`,
		"SELECT patient FROM prescriptions WHERE nope = 1":                                          `unknown column "nope"`,
		"SELECT p.patient FROM prescriptions p JOIN drugcost d ON p.drug = d.nope":                  `unknown column "d.nope"`,
		"SELECT COUNT(*) AS n FROM prescriptions GROUP BY YEAR(nope)":                               `unknown column "nope"`,
		"SELECT patient, COUNT(*) AS n FROM prescriptions GROUP BY drug":                            "neither aggregated nor grouped",
		"SELECT x FROM nowhere":                                                                     ErrUnknownTable.Error(),
		"SELECT * FROM a":                                                                           "view cycle",
		"SELECT patient FROM stale":                                                                 `view "stale": relation: unknown column "nope"`,
		"SELECT q.patient FROM prescriptions p JOIN drugcost d ON p.drug = d.drug":                  `unknown column "q.patient"`,
		"SELECT p.patient FROM prescriptions p JOIN drugcost d ON p.drug = d.drug WHERE cost > q.x": `unknown column "q.x"`,
	} {
		_, err := ProfileSQL(c, q)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ProfileSQL(%q) error = %v, want one naming %s", q, err, want)
			continue
		}
		if sel, perr := ParseSelect(q); perr == nil {
			if _, herr := c.Snapshot().Header(sel); herr != nil && herr.Error() != err.Error() {
				t.Errorf("ProfileSQL(%q) error = %v, Header's is %v", q, err, herr)
			}
		}
	}
}

// TestProfileAmbiguousColumnIsTheExecutors: the executor does not reject an
// unqualified name two joined relations carry — it resolves it to the first
// carrier in FROM order — so neither does the profile, and it names the
// same one.
func TestProfileAmbiguousColumnIsTheExecutors(t *testing.T) {
	c := testCatalog()
	const q = "SELECT drug FROM drugcost d JOIN prescriptions p ON d.drug = p.drug WHERE drug = 'DR'"
	p := mustProfile(t, c, q)
	first := relation.ColRef{Table: "drugcost", Column: "drug"}
	if got := p.OutputNames["drug"]; len(got) != 1 || got[0] != first {
		t.Errorf("drug profiles to %v, want %v", got, first)
	}
	if len(p.Conjuncts) != 1 || p.Conjuncts[0].Col != first {
		t.Errorf("conjuncts = %v", p.Conjuncts)
	}
	checkProfileIsExecuted(t, c, q)
	checkProfileIsExecuted(t, c, "SELECT * FROM drugcost d JOIN prescriptions p ON d.drug = p.drug")
}
