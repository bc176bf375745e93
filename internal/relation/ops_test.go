package relation

import (
	"testing"
	"testing/quick"
)

// prescriptionsFixture builds the paper's Fig. 2b Prescriptions base table.
func prescriptionsFixture() *Table {
	t := NewBase("prescriptions", NewSchema(
		Col("patient", TString),
		Col("doctor", TString),
		Col("drug", TString),
		Col("disease", TString),
		Col("date", TDate),
	))
	t.AppendVals(Str("Alice"), Str("Luis"), Str("DH"), Str("HIV"), DateYMD(2007, 2, 12))
	t.AppendVals(Str("Chris"), Null(), Str("DV"), Str("HIV"), DateYMD(2007, 3, 10))
	t.AppendVals(Str("Bob"), Str("Anne"), Str("DR"), Str("asthma"), DateYMD(2007, 8, 10))
	t.AppendVals(Str("Math"), Str("Mark"), Str("DM"), Str("diabetes"), DateYMD(2007, 10, 15))
	t.AppendVals(Str("Alice"), Str("Luis"), Str("DR"), Str("asthma"), DateYMD(2008, 4, 15))
	return t
}

func drugCostFixture() *Table {
	t := NewBase("drugcost", NewSchema(Col("drug", TString), Col("cost", TInt)))
	t.AppendVals(Str("DD"), Int(50))
	t.AppendVals(Str("DM"), Int(10))
	t.AppendVals(Str("DH"), Int(60))
	t.AppendVals(Str("DV"), Int(30))
	t.AppendVals(Str("DR"), Int(10))
	return t
}

func TestSelect(t *testing.T) {
	p := prescriptionsFixture()
	out, err := Select(p, ColEqStr("disease", "HIV"))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("got %d rows, want 2", out.NumRows())
	}
	// Lineage must point at base rows 0 and 1.
	if !out.RowLineage(0).Contains(RowRef{"prescriptions", 0}) {
		t.Errorf("row 0 lineage = %v", out.RowLineage(0))
	}
	if !out.RowLineage(1).Contains(RowRef{"prescriptions", 1}) {
		t.Errorf("row 1 lineage = %v", out.RowLineage(1))
	}
}

func TestSelectNullPredicate(t *testing.T) {
	p := prescriptionsFixture()
	// doctor = 'Anne' must skip the NULL-doctor row without selecting it.
	out, err := Select(p, ColEqStr("doctor", "Anne"))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Get(0, "patient").S != "Bob" {
		t.Errorf("got %v", cells(out))
	}
}

func TestProject(t *testing.T) {
	p := prescriptionsFixture()
	out, err := ProjectCols(p, "patient", "drug")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Len() != 2 || out.NumRows() != 5 {
		t.Fatalf("schema %s rows %d", out.Schema, out.NumRows())
	}
	// Column origins track base columns.
	if !out.ColumnOrigin(0).Contains(ColRef{"prescriptions", "patient"}) {
		t.Errorf("origin = %v", out.ColumnOrigin(0))
	}
	if out.ColumnOrigin(1).Contains(ColRef{"prescriptions", "patient"}) {
		t.Error("drug column must not carry patient origin")
	}
}

func TestProjectComputedColumn(t *testing.T) {
	p := prescriptionsFixture()
	out, err := Project(p, P("patient"), PAs(Fn("YEAR", ColRefExpr("date")), "year"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Columns[1].Name != "year" || out.Schema.Columns[1].Type != TInt {
		t.Errorf("schema = %s", out.Schema)
	}
	if v := out.Get(0, "year"); v.I != 2007 {
		t.Errorf("year = %v", v)
	}
	// Computed column origin is the date column.
	if !out.ColumnOrigin(1).Contains(ColRef{"prescriptions", "date"}) {
		t.Errorf("origin = %v", out.ColumnOrigin(1))
	}
}

func TestProjectUnknownColumn(t *testing.T) {
	if _, err := ProjectCols(prescriptionsFixture(), "ghost"); err == nil {
		t.Error("expected error")
	}
}

func TestExtend(t *testing.T) {
	p := drugCostFixture()
	out, err := Extend(p, "double_cost", Bin(OpMul, ColRefExpr("cost"), Lit(Int(2))))
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Len() != 3 {
		t.Fatalf("schema = %s", out.Schema)
	}
	if v := out.Get(0, "double_cost"); v.I != 100 {
		t.Errorf("double_cost = %v", v)
	}
	if !out.ColumnOrigin(2).Contains(ColRef{"drugcost", "cost"}) {
		t.Errorf("origin = %v", out.ColumnOrigin(2))
	}
}

func TestJoinEquiHash(t *testing.T) {
	p := prescriptionsFixture()
	c := drugCostFixture()
	out, err := Join(Rename(p, "p"), Rename(c, "c"), Eq(ColRefExpr("p.drug"), ColRefExpr("c.drug")), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", out.NumRows())
	}
	// Alice/DH row joins with cost 60 and carries lineage from both bases.
	found := false
	for i := range out.NumRows() {
		if out.Get(i, "p.patient").S == "Alice" && out.Get(i, "p.drug").S == "DH" {
			found = true
			if out.Get(i, "c.cost").I != 60 {
				t.Errorf("cost = %v", out.Get(i, "c.cost"))
			}
			lin := out.RowLineage(i)
			if !lin.Contains(RowRef{"prescriptions", 0}) || !lin.Contains(RowRef{"drugcost", 2}) {
				t.Errorf("lineage = %v", lin)
			}
		}
	}
	if !found {
		t.Error("Alice/DH row missing")
	}
}

func TestJoinLeft(t *testing.T) {
	c := drugCostFixture() // has DD which never appears in prescriptions
	p := prescriptionsFixture()
	out, err := Join(Rename(c, "c"), Rename(p, "p"), Eq(ColRefExpr("c.drug"), ColRefExpr("p.drug")), LeftJoin)
	if err != nil {
		t.Fatal(err)
	}
	// DD row must survive with NULL right side.
	foundDD := false
	for i := range out.NumRows() {
		if out.Get(i, "c.drug").S == "DD" {
			foundDD = true
			if !out.Get(i, "p.patient").IsNull() {
				t.Error("DD should have NULL patient")
			}
		}
	}
	if !foundDD {
		t.Error("left join lost unmatched row")
	}
}

func TestJoinGeneralPredicate(t *testing.T) {
	c := drugCostFixture()
	out, err := Join(Rename(c, "a"), Rename(c, "b"),
		Bin(OpLt, ColRefExpr("a.cost"), ColRefExpr("b.cost")), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs with strictly smaller cost: costs are 50,10,60,30,10.
	// Sorted: 10,10,30,50,60 -> pairs (a<b): 10<30 x2,10<50 x2,10<60 x2,30<50,30<60,50<60 = 9.
	if out.NumRows() != 9 {
		t.Errorf("rows = %d, want 9", out.NumRows())
	}
}

func TestGroupByCountAndLineage(t *testing.T) {
	p := prescriptionsFixture()
	out, err := GroupBy(p, []string{"disease"}, []AggSpec{{Kind: AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for i := range out.NumRows() {
		counts[out.Get(i, "disease").S] = out.Get(i, "count").I
	}
	if counts["HIV"] != 2 || counts["asthma"] != 2 || counts["diabetes"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	// The HIV group's lineage must contain exactly base rows 0 and 1.
	for i := range out.NumRows() {
		if out.Get(i, "disease").S == "HIV" {
			lin := out.RowLineage(i)
			if len(lin) != 2 || !lin.Contains(RowRef{"prescriptions", 0}) || !lin.Contains(RowRef{"prescriptions", 1}) {
				t.Errorf("HIV lineage = %v", lin)
			}
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	c := drugCostFixture()
	all, err := GroupBy(c, nil, []AggSpec{
		{Kind: AggSum, Col: "cost"},
		{Kind: AggAvg, Col: "cost"},
		{Kind: AggMin, Col: "cost"},
		{Kind: AggMax, Col: "cost"},
		{Kind: AggCountDistinct, Col: "cost"},
		{Kind: AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() != 1 {
		t.Fatalf("rows = %d", all.NumRows())
	}
	r := all.Row(0)
	if r[0].I != 160 {
		t.Errorf("sum = %v", r[0])
	}
	if r[1].F != 32 {
		t.Errorf("avg = %v", r[1])
	}
	if r[2].I != 10 || r[3].I != 60 {
		t.Errorf("min/max = %v/%v", r[2], r[3])
	}
	if r[4].I != 4 { // 50,10,60,30 distinct
		t.Errorf("count distinct = %v", r[4])
	}
	if r[5].I != 5 {
		t.Errorf("count = %v", r[5])
	}
}

func TestGroupByNullsIgnoredInAggs(t *testing.T) {
	b := NewBase("t", NewSchema(Col("g", TString), Col("x", TInt)))
	b.AppendVals(Str("a"), Int(1))
	b.AppendVals(Str("a"), Null())
	out, err := GroupBy(b, []string{"g"}, []AggSpec{
		{Kind: AggCount, Col: "x", As: "cnt"},
		{Kind: AggSum, Col: "x", As: "s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Get(0, "cnt").I != 1 || out.Get(0, "s").I != 1 {
		t.Errorf("rows = %v", cells(out))
	}
}

func TestDistinctMergesLineage(t *testing.T) {
	p := prescriptionsFixture()
	proj, err := ProjectCols(p, "patient")
	if err != nil {
		t.Fatal(err)
	}
	d := Distinct(proj)
	if d.NumRows() != 4 { // Alice, Chris, Bob, Math
		t.Fatalf("rows = %d", d.NumRows())
	}
	// Alice appears at base rows 0 and 4; the surviving row carries both.
	for i := range d.NumRows() {
		if d.Get(i, "patient").S == "Alice" {
			lin := d.RowLineage(i)
			if !lin.Contains(RowRef{"prescriptions", 0}) || !lin.Contains(RowRef{"prescriptions", 4}) {
				t.Errorf("Alice lineage = %v", lin)
			}
		}
	}
}

func TestUnion(t *testing.T) {
	a := drugCostFixture()
	b := drugCostFixture()
	out, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Errorf("rows = %d", out.NumRows())
	}
	if Distinct(out).NumRows() != 5 {
		t.Errorf("distinct rows = %d", Distinct(out).NumRows())
	}
}

func TestUnionArityMismatch(t *testing.T) {
	if _, err := Union(drugCostFixture(), prescriptionsFixture()); err == nil {
		t.Error("expected arity error")
	}
}

func TestSort(t *testing.T) {
	c := drugCostFixture()
	out, err := Sort(c, SortKey{Col: "cost"}, SortKey{Col: "drug"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DM", "DR", "DV", "DD", "DH"}
	for i, w := range want {
		if out.Get(i, "drug").S != w {
			t.Errorf("row %d = %v, want %s", i, out.Get(i, "drug"), w)
		}
	}
	desc, err := Sort(c, SortKey{Col: "cost", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Get(0, "drug").S != "DH" {
		t.Errorf("desc first = %v", desc.Get(0, "drug"))
	}
}

func TestSortNullsFirst(t *testing.T) {
	b := NewBase("t", NewSchema(Col("x", TInt)))
	b.AppendVals(Int(2))
	b.AppendVals(Null())
	b.AppendVals(Int(1))
	out, err := Sort(b, SortKey{Col: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Row(0)[0].IsNull() || out.Row(1)[0].I != 1 {
		t.Errorf("rows = %v", cells(out))
	}
}

func TestLimit(t *testing.T) {
	c := drugCostFixture()
	if Limit(c, 2).NumRows() != 2 {
		t.Error("limit 2")
	}
	if Limit(c, 99).NumRows() != 5 {
		t.Error("limit beyond size")
	}
	if Limit(c, 0).NumRows() != 0 {
		t.Error("limit 0")
	}
}

func TestBaseTables(t *testing.T) {
	p := prescriptionsFixture()
	c := drugCostFixture()
	j, err := Join(Rename(p, "p"), Rename(c, "c"), Eq(ColRefExpr("p.drug"), ColRefExpr("c.drug")), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	bt := j.BaseTables()
	if len(bt) != 2 || bt[0] != "drugcost" || bt[1] != "prescriptions" {
		t.Errorf("BaseTables = %v", bt)
	}
}

func TestTableClone(t *testing.T) {
	p := prescriptionsFixture()
	sel, err := Select(p, ColEqStr("disease", "HIV"))
	if err != nil {
		t.Fatal(err)
	}
	c := sel.Clone()
	c.vecs[0].Dict[c.vecs[0].S[0]] = "Mallory"
	if sel.Row(0)[0].S == "Mallory" {
		t.Error("clone aliases rows")
	}
}

func TestTableString(t *testing.T) {
	c := drugCostFixture()
	s := c.String()
	if s == "" || len(s) < 20 {
		t.Errorf("String too short: %q", s)
	}
}

func TestAppendArity(t *testing.T) {
	c := drugCostFixture()
	if err := c.Append(Row{Str("x")}); err == nil {
		t.Error("expected arity error")
	}
}

// Property: lineage of any selected row is a subset of the input's lineage
// for that row, and every output row of Select satisfies the predicate.
func TestSelectPropertyLineagePreserved(t *testing.T) {
	f := func(costs []int16) bool {
		b := NewBase("t", NewSchema(Col("x", TInt)))
		for _, c := range costs {
			b.AppendVals(Int(int64(c)))
		}
		out, err := Select(b, Bin(OpGt, ColRefExpr("x"), Lit(Int(0))))
		if err != nil {
			return false
		}
		for i := range out.NumRows() {
			if out.Row(i)[0].I <= 0 {
				return false
			}
			lin := out.RowLineage(i)
			if len(lin) != 1 || lin[0].Table != "t" {
				return false
			}
			// The referenced base row must hold the same value.
			if b.Rows[lin[0].Row][0].I != out.Row(i)[0].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GroupBy count per group sums to the input cardinality, and the
// union of all group lineages covers every input row exactly once.
func TestGroupByPropertyPartition(t *testing.T) {
	f := func(keys []uint8) bool {
		b := NewBase("t", NewSchema(Col("k", TInt)))
		for _, k := range keys {
			b.AppendVals(Int(int64(k % 7)))
		}
		out, err := GroupBy(b, []string{"k"}, []AggSpec{{Kind: AggCount}})
		if err != nil {
			return false
		}
		var total int64
		covered := map[int]bool{}
		for i := range out.NumRows() {
			total += out.Get(i, "count").I
			for _, ref := range out.RowLineage(i) {
				if covered[ref.Row] {
					return false // overlap between groups
				}
				covered[ref.Row] = true
			}
		}
		return total == int64(len(keys)) && len(covered) == len(keys)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Distinct is idempotent.
func TestDistinctIdempotent(t *testing.T) {
	f := func(xs []uint8) bool {
		b := NewBase("t", NewSchema(Col("x", TInt)))
		for _, x := range xs {
			b.AppendVals(Int(int64(x % 5)))
		}
		d1 := Distinct(b)
		d2 := Distinct(d1)
		return d1.NumRows() == d2.NumRows()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
