package sql

import (
	"strings"
	"testing"

	"plabi/internal/relation"
)

func TestParseExprStandalone(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"disease <> 'HIV'", "(disease <> 'HIV')"},
		{"NOT (a = 1)", "(NOT (a = 1))"},
		{"age + 1 * 2 - 3", "((age + (1 * 2)) - 3)"},
		{"-age", "(-age)"},
		{"a || 'x'", "(a || 'x')"},
		{"a % 2 = 0", "((a % 2) = 0)"},
		{"x NOT LIKE 'A%'", "(NOT (x LIKE 'A%'))"},
		{"x NOT BETWEEN 1 AND 3", "(NOT ((x >= 1) AND (x <= 3)))"},
		{"x NOT IN (1, 2)", "(x NOT IN (1, 2))"},
		{"TRUE OR FALSE", "(true OR false)"},
		{"UPPER(name)", "UPPER(name)"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.src, err)
		}
		if e.String() != c.want {
			t.Errorf("ParseExpr(%q) = %q, want %q", c.src, e.String(), c.want)
		}
	}
	for _, bad := range []string{"", "a = ", "a = 1 extra", "NOT", "((a)"} {
		if _, err := ParseExpr(bad); err == nil {
			t.Errorf("ParseExpr(%q) should fail", bad)
		}
	}
}

func TestParseExprOperatorPrecedence(t *testing.T) {
	e, err := ParseExpr("a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	// AND binds tighter than OR.
	if got := e.String(); got != "((a = 1) OR ((b = 2) AND (c = 3)))" {
		t.Errorf("precedence = %q", got)
	}
}

func TestCatalogUtilities(t *testing.T) {
	c := testCatalog()
	names := c.TableNames()
	if len(names) != 2 || names[0] != "drugcost" || names[1] != "prescriptions" {
		t.Errorf("tables = %v", names)
	}
	if _, err := c.Run("CREATE VIEW v1 AS SELECT drug FROM drugcost"); err != nil {
		t.Fatal(err)
	}
	if vs := c.Snapshot().ViewNames(); len(vs) != 1 || vs[0] != "v1" {
		t.Errorf("views = %v", vs)
	}
	c.DropView("v1")
	if vs := c.Snapshot().ViewNames(); len(vs) != 0 {
		t.Errorf("views after drop = %v", vs)
	}
	// Exec with an unsupported statement type.
	if _, err := c.Exec(nil); err == nil {
		t.Error("nil statement must fail")
	}
}

func TestCreateViewParsing(t *testing.T) {
	stmt, err := Parse("CREATE VIEW recent AS SELECT drug FROM drugcost WHERE cost > 10")
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := stmt.(*CreateViewStmt)
	if !ok || cv.Name != "recent" {
		t.Fatalf("stmt = %#v", stmt)
	}
	for _, bad := range []string{
		"CREATE TABLE t AS SELECT 1 FROM x",
		"CREATE VIEW AS SELECT 1 FROM x",
		"CREATE VIEW v SELECT 1 FROM x",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestFlippedComparisonProfile(t *testing.T) {
	c := testCatalog()
	// literal OP column must profile with the flipped operator.
	p := mustProfile(t, c, "SELECT drug FROM drugcost WHERE 20 < cost")
	if len(p.Conjuncts) != 1 {
		t.Fatalf("conjuncts = %v", p.Conjuncts)
	}
	if p.Conjuncts[0].Op != relation.OpGt || p.Conjuncts[0].Val.I != 20 {
		t.Errorf("flipped = %v", p.Conjuncts[0])
	}
	if s := p.Conjuncts[0].String(); !strings.Contains(s, "cost") {
		t.Errorf("String = %q", s)
	}
	inPred := SimplePred{Col: relation.ColRef{Table: "t", Column: "x"},
		In: []relation.Value{relation.Int(1)}, NotP: true}
	if s := inPred.String(); !strings.Contains(s, "NOT IN") {
		t.Errorf("String = %q", s)
	}
}

func TestSelectStmtStringEdges(t *testing.T) {
	sel, err := ParseSelect("SELECT DISTINCT d.drug AS x FROM drugcost AS d LEFT JOIN prescriptions AS p ON d.drug = p.drug WHERE d.cost > 1 GROUP BY d.drug HAVING x LIKE 'D%' ORDER BY x DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	s := sel.String()
	for _, want := range []string{"DISTINCT", "LEFT JOIN", "HAVING", "DESC", "LIMIT 2", "AS x", "AS d"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %s: %q", want, s)
		}
	}
	again, err := ParseSelect(s)
	if err != nil {
		t.Fatalf("re-parse %q: %v", s, err)
	}
	if again.String() != s {
		t.Errorf("unstable: %q vs %q", s, again.String())
	}
}

func TestAggCallString(t *testing.T) {
	sel, err := ParseSelect("SELECT COUNT(DISTINCT patient) FROM prescriptions")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Items[0].Agg.String(); got != "COUNT(DISTINCT patient)" {
		t.Errorf("agg string = %q", got)
	}
	sel2, err := ParseSelect("SELECT COUNT(*) FROM prescriptions")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel2.Items[0].Agg.String(); got != "COUNT(*)" {
		t.Errorf("agg string = %q", got)
	}
}

func TestSatisfiesLikeAndIn(t *testing.T) {
	col := relation.ColRef{Table: "t", Column: "x"}
	like := SimplePred{Col: col, Op: relation.OpLike, Val: relation.Str("A%")}
	if !satisfies(relation.Str("Alice"), like) || satisfies(relation.Str("Bob"), like) {
		t.Error("LIKE satisfaction wrong")
	}
	in := SimplePred{Col: col, In: []relation.Value{relation.Int(1), relation.Int(2)}}
	if !satisfies(relation.Int(1), in) || satisfies(relation.Int(3), in) {
		t.Error("IN satisfaction wrong")
	}
	notin := SimplePred{Col: col, In: []relation.Value{relation.Int(1)}, NotP: true}
	if satisfies(relation.Int(1), notin) || !satisfies(relation.Int(3), notin) {
		t.Error("NOT IN satisfaction wrong")
	}
	// Incomparable types never satisfy order predicates.
	lt := SimplePred{Col: col, Op: relation.OpLt, Val: relation.Int(5)}
	if satisfies(relation.Str("x"), lt) {
		t.Error("incomparable must not satisfy")
	}
}

func TestViewUnionedOriginsProfile(t *testing.T) {
	c := testCatalog()
	if _, err := c.Run("CREATE VIEW agg AS SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug"); err != nil {
		t.Fatal(err)
	}
	// Querying an aggregated view marks the profile opaque (fine-grained
	// reasoning unsound).
	p := mustProfile(t, c, "SELECT drug FROM agg WHERE n > 1")
	if !p.Opaque {
		t.Error("aggregated view must make the outer profile opaque")
	}
}
