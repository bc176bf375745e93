package relation

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// derivesBases returns two base tables, Rx (k, drug) and docs (k, doc),
// with n rows each, or none.
func derivesBases(n int) (rx, docs *Table) {
	rx = NewBase("Rx", NewSchema(Col("k", TInt), Col("drug", TString)))
	docs = NewBase("docs", NewSchema(Col("k", TInt), Col("doc", TString)))
	for i := 0; i < n; i++ {
		rx.AppendVals(Int(int64(i%4)), Str(fmt.Sprintf("d%d", i%3)))
		docs.AppendVals(Int(int64(i%4)), Str(fmt.Sprintf("n%d", i)))
	}
	return rx, docs
}

// rowScanBases is the row-scanning reading of what t derives from: the
// tables each row's lineage names and the tables its column origins name.
func rowScanBases(t *Table) []string {
	var names []string
	for i := 0; i < t.NumRows(); i++ {
		for _, r := range t.RowLineage(i) {
			names = append(names, strings.ToLower(r.Table))
		}
	}
	for _, r := range t.AllColumnOrigins() {
		names = append(names, strings.ToLower(r.Table))
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// TestBaseTablesHoldAtZeroRows: every operator's output names the same
// base tables whether its input has rows or none, for every lineage form
// the input can hold — implicit, by column, packed, and a projection that
// keeps only one side's columns of a join — and that answer covers what a
// scan of the rows finds.
func TestBaseTablesHoldAtZeroRows(t *testing.T) {
	joinOn := Eq(ColRefExpr("l.k"), ColRefExpr("r.k"))
	inputs := []struct {
		name  string
		build func(rx, docs *Table) (*Table, error)
	}{
		{"base", func(rx, _ *Table) (*Table, error) { return rx, nil }},
		{"join", func(rx, docs *Table) (*Table, error) {
			return Join(Rename(rx, "l"), Rename(docs, "r"), joinOn, InnerJoin)
		}},
		{"join projected to one side", func(rx, docs *Table) (*Table, error) {
			j, err := Join(Rename(rx, "l"), Rename(docs, "r"), joinOn, InnerJoin)
			if err != nil {
				return nil, err
			}
			return ProjectCols(j, "r.doc", "r.k")
		}},
		{"packed", func(rx, docs *Table) (*Table, error) {
			j, err := Join(Rename(rx, "l"), Rename(docs, "r"), joinOn, InnerJoin)
			if err != nil {
				return nil, err
			}
			return GroupBy(j, []string{"r.k"}, []AggSpec{{Kind: AggCount}})
		}},
	}
	other := NewBase("costs", NewSchema(Col("k", TInt), Col("cost", TInt)))
	for i := 0; i < 4; i++ {
		other.AppendVals(Int(int64(i)), Int(int64(10*i)))
	}
	ops := []struct {
		name string
		op   func(x *Table) (*Table, error)
	}{
		{"select", func(x *Table) (*Table, error) { return Select(x, Bin(OpGt, ColRefExpr("k"), Lit(Int(0)))) }},
		{"project", func(x *Table) (*Table, error) { return ProjectCols(x, "k") }},
		{"extend", func(x *Table) (*Table, error) { return Extend(x, "k2", ColRefExpr("k")) }},
		{"inner join", func(x *Table) (*Table, error) {
			return Join(Rename(x, "l"), Rename(other, "r"), joinOn, InnerJoin)
		}},
		{"left join", func(x *Table) (*Table, error) {
			return Join(Rename(x, "l"), Rename(other, "r"), joinOn, LeftJoin)
		}},
		{"group by", func(x *Table) (*Table, error) { return GroupBy(x, []string{"k"}, []AggSpec{{Kind: AggCount}}) }},
		{"distinct", func(x *Table) (*Table, error) { return Distinct(x), nil }},
		{"union", func(x *Table) (*Table, error) { return Union(x, x) }},
		{"limit", func(x *Table) (*Table, error) { return Limit(x, 2), nil }},
		{"slice", func(x *Table) (*Table, error) {
			if x.NumRows() == 0 {
				return SliceRows(x, nil)
			}
			return SliceRows(x, []int{x.NumRows() - 1, 0})
		}},
		{"shell", func(x *Table) (*Table, error) { return x.Shell(), nil }},
	}
	for _, in := range inputs {
		full, err := in.build(derivesBases(12))
		if err != nil {
			t.Fatal(err)
		}
		empty, err := in.build(derivesBases(0))
		if err != nil {
			t.Fatal(err)
		}
		if full.NumRows() == 0 || empty.NumRows() != 0 {
			t.Fatalf("%s: inputs of %d and %d rows", in.name, full.NumRows(), empty.NumRows())
		}
		for _, o := range ops {
			label := in.name + "/" + o.name
			got, err := o.op(full)
			if err != nil {
				t.Fatalf("%s over rows: %v", label, err)
			}
			zero, err := o.op(empty)
			if err != nil {
				t.Fatalf("%s over no rows: %v", label, err)
			}
			if zero.NumRows() != 0 {
				t.Fatalf("%s over no rows: %d rows", label, zero.NumRows())
			}
			want := got.BaseTables()
			if g := zero.BaseTables(); !reflect.DeepEqual(g, want) {
				t.Errorf("%s: BaseTables over no rows = %v, over rows %v", label, g, want)
			}
			if scan := rowScanBases(got); !isSubset(scan, want) {
				t.Errorf("%s: BaseTables = %v misses %v the rows derive from", label, want, scan)
			}
			if in.name != "base" && !slices.Contains(want, "rx") {
				t.Errorf("%s: BaseTables = %v, lost rx", label, want)
			}
		}
	}
}

func isSubset(sub, of []string) bool {
	for _, s := range sub {
		if !slices.Contains(of, s) {
			return false
		}
	}
	return true
}

// TestBaseTablesCostNoRows: BaseTables of a packed table reads what the
// table keeps per base table, so it allocates the same at 10 rows and at
// 10 000.
func TestBaseTablesCostNoRows(t *testing.T) {
	allocs := func(n int) float64 {
		_, docs := derivesBases(n)
		g := Distinct(docs)
		if g.packed == nil || g.NumRows() != n {
			t.Fatalf("distinct over %d rows: packed %v, %d rows", n, g.packed != nil, g.NumRows())
		}
		return testing.AllocsPerRun(50, func() { _ = g.BaseTables() })
	}
	if small, large := allocs(10), allocs(10000); small != large {
		t.Errorf("BaseTables allocates %v times at 10 rows, %v at 10 000", small, large)
	}
}

// TestShellPinsNoLineage: a shell keeps its source's lineage tables but no
// slice of its lineage columns or packed rows, whose arrays a header kept
// across versions would otherwise hold.
func TestShellPinsNoLineage(t *testing.T) {
	rx, docs := derivesBases(12)
	j, err := Join(Rename(rx, "l"), Rename(docs, "r"), Eq(ColRefExpr("l.k"), ColRefExpr("r.k")), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*Table{j, Distinct(j)} {
		s := src.Shell()
		if !reflect.DeepEqual(s.BaseTables(), src.BaseTables()) {
			t.Errorf("shell BaseTables = %v, source's %v", s.BaseTables(), src.BaseTables())
		}
		for k, col := range s.lin.cols {
			if col != nil {
				t.Errorf("shell lineage column %d shares the source's array", k)
			}
		}
		if src.packed != nil && (s.packed == nil || unsafe.SliceData(s.packed) == unsafe.SliceData(src.packed)) {
			t.Error("shell packed rows share the source's array")
		}
	}
}
