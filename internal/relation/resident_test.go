package relation

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// linTable builds a derived in-memory table (key STRING, n INT) of n rows
// over `groups` key values, whose row i carries the lineage refs(i).
func linTable(name string, n, groups int, refs func(i int) LineageSet) *Table {
	t := &Table{Name: name, Schema: NewSchema(Col("key", TString), Col("n", TInt))}
	t.ColOrigin = []ColRefSet{{{Table: "src", Column: "key"}}, {{Table: "src", Column: "n"}}}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, Row{Str(fmt.Sprintf("k%02d", (i*7)%groups)), Int(int64(i))})
		t.Lineage = append(t.Lineage, refs(i))
	}
	return t
}

// plainCopy shares t's rows and lineage under a table that was never frozen.
func plainCopy(t *Table) *Table {
	return &Table{Name: t.Name, Schema: t.Schema, Rows: t.Rows, Lineage: t.Lineage, ColOrigin: t.ColOrigin, Base: t.Base}
}

var residentAggs = []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "n"}}

// TestGroupByFrozenEqualsPlain: GroupBy over a frozen table reads resident
// vectors and lineage columns; over the same rows never frozen it reads the
// rows and gathers the refs. Rows and lineage must agree on every shape the
// column form takes or declines.
func TestGroupByFrozenEqualsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	star := func(i int) LineageSet { // the rx_wide shape: fact row, small dimension, shared dimension
		return LineageSet{{Table: "drugcost", Row: (i * 7) % 25}, {Table: "prescriptions", Row: i}, {Table: "residents", Row: (i * 31) % 700}}
	}
	perm := rng.Perm(4000)
	cases := []struct {
		name     string
		table    *Table
		columnar bool
	}{
		{"scenario-shaped", linTable("rx_wide", 4000, 25, star), true},
		{"empty sets among the rows", linTable("gaps", 600, 7, func(i int) LineageSet {
			if i%3 == 0 {
				return nil
			}
			return star(i)
		}), true},
		{"every set empty", linTable("void", 50, 3, func(int) LineageSet { return nil }), false},
		{"a table sparse for each group", linTable("sparse", 4000, 40, func(i int) LineageSet {
			return LineageSet{{Table: "events", Row: perm[i] * 1000}, {Table: "hosts", Row: perm[i] % 9}}
		}), true},
		{"twenty base tables", linTable("fanout", 500, 5, func(i int) LineageSet {
			var set LineageSet
			for b := 0; b < 20; b++ {
				if (i+b)%4 != 0 {
					set = append(set, RowRef{Table: fmt.Sprintf("b%02d", b), Row: (i * (b + 1)) % 97})
				}
			}
			return set
		}), true},
		{"a negative ordinal", linTable("neg", 300, 4, func(i int) LineageSet {
			return LineageSet{{Table: "a", Row: i - 1}}
		}), false},
		{"an ordinal past int32", linTable("big", 300, 4, func(i int) LineageSet {
			return LineageSet{{Table: "a", Row: math.MaxInt32 + i}}
		}), false},
		{"two refs into one table", linTable("pair", 300, 4, func(i int) LineageSet {
			return LineageSet{{Table: "a", Row: i}, {Table: "a", Row: i + 300}, {Table: "b", Row: i % 5}}
		}), false},
	}
	for _, tc := range cases {
		want, err := GroupBy(plainCopy(tc.table), []string{"key"}, residentAggs)
		if err != nil {
			t.Fatal(err)
		}
		tc.table.Freeze()
		for pass := 0; pass < 2; pass++ { // the second pass reads what the first published
			got, err := GroupBy(tc.table, []string{"key"}, residentAggs)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, tc.name, got, want)
		}
		lc := tc.table.res.lin.Load()
		if tc.columnar == (lc == notColumnar) || lc == nil {
			t.Errorf("%s: lineage columns published as %v, want columnar=%v", tc.name, lc, tc.columnar)
		}
		for ci := range tc.table.res.cols {
			if tc.table.res.cols[ci].Load() == nil {
				t.Errorf("%s: column %d has no resident vector after two GroupBys", tc.name, ci)
			}
		}
		if err := VerifyResident(tc.table); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		// Through the view a query reads a registered table by.
		got, err := GroupBy(Rename(tc.table, "v"), []string{"v.key"}, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "v.n"}})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, tc.name+" renamed", got, want)
	}
}

// TestGroupBySegmentLineageColumns: a segment-backed table with explicit
// lineage is scanned a partition at a time; each batch reads the table's
// lineage columns from its own row offset.
func TestGroupBySegmentLineageColumns(t *testing.T) {
	mem := linTable("spilled", 1000, 9, func(i int) LineageSet {
		return LineageSet{{Table: "facts", Row: 999 - i}, {Table: "dims", Row: i % 13}}
	})
	want, err := GroupBy(plainCopy(mem), []string{"key"}, residentAggs)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := segSpill(t, mem, 64)
	if seg.seg == nil || len(seg.seg.parts) < 10 {
		t.Fatalf("table not spilled into partitions: %+v", seg.seg)
	}
	seg.Freeze()
	got, err := GroupBy(seg, []string{"key"}, residentAggs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "segment-backed", got, want)
	if lc := seg.res.lin.Load(); lc == nil || lc == notColumnar {
		t.Fatalf("segment-backed table published lineage columns %v", lc)
	}
	if seg.res.cols != nil {
		t.Error("a segment-backed table keeps resident vectors")
	}
	if err := VerifyResident(seg); err != nil {
		t.Error(err)
	}
}

// TestGroupByStateOverFrozenPieces: the accumulator the delta path retains
// is fed one frozen table, emits, is fed another and emits again. The second
// emit folds new rows into settled lineage, which the ref gatherer does; so
// does a single emit over pieces of two tables. Every emit equals the plain
// run's — a group whose rows carry no ref at all keeps the nil set — and an
// emitted table is not written by the next emit.
func TestGroupByStateOverFrozenPieces(t *testing.T) {
	piece := func(from, n int) *Table {
		return linTable("rx", n, 6, func(i int) LineageSet {
			if (i*7)%6 == 0 {
				return nil
			}
			return LineageSet{{Table: "p", Row: from + i}, {Table: "r", Row: (from + i) % 11}}
		})
	}
	run := func(freeze, emitBetween bool) (emits []*Table) {
		a, b := piece(0, 500), piece(500, 120)
		if freeze {
			a.Freeze()
			b.Freeze()
		}
		st, err := NewGroupByState(a, []string{"key"}, residentAggs)
		if err != nil {
			t.Fatal(err)
		}
		var snapshot *Table
		for _, tb := range []*Table{a, b} {
			if err := st.AddTable(tb); err != nil {
				t.Fatal(err)
			}
			if emitBetween || tb == b {
				emits = append(emits, st.Result())
			}
			if snapshot == nil && len(emits) > 0 {
				snapshot = emits[0].Clone()
			}
		}
		requireSameTable(t, "first emit after the last", emits[0], snapshot)
		return emits
	}
	for _, between := range []bool{true, false} {
		want, got := run(false, between), run(true, between)
		for i := range want {
			requireSameTable(t, fmt.Sprintf("emitBetween=%v emit %d", between, i), got[i], want[i])
			if got[i].Lineage[0] != nil {
				t.Errorf("emitBetween=%v emit %d: group without refs has lineage %#v, want nil", between, i, got[i].Lineage[0])
			}
		}
	}
}

// TestFreezeLifecycle: who shares a resident form and who must not.
func TestFreezeLifecycle(t *testing.T) {
	base := NewBase("facts", NewSchema(Col("k", TString), Col("v", TInt)))
	for i := 0; i < 40; i++ {
		base.AppendVals(Str(fmt.Sprint("k", i%4)), Int(int64(i)))
	}
	col := func(tb *Table, ci int) *Vector {
		v, err := NewBatch(tb).Col(ci)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if col(base, 0) == col(base, 0) {
		t.Fatal("a table never frozen kept a vector")
	}
	base.Freeze()
	v := col(base, 0)
	if col(base, 0) != v {
		t.Fatal("a frozen table built its vector twice")
	}
	if col(Rename(base, "f"), 0) != v {
		t.Error("Rename does not share the resident vectors")
	}
	if c := base.Clone(); c.res != nil || col(c, 0) == v {
		t.Error("Clone shares the resident form")
	}
	if s := base.Shell(); s.res != nil {
		t.Error("Shell shares the resident form")
	}
	sel, err := Select(base, Eq(ColRefExpr("k"), Lit(Str("k1"))))
	if err != nil || sel.res != nil || len(sel.Rows) != 10 {
		t.Errorf("Select over a frozen table: %v, res %v, %d rows", err, sel.res, len(sel.Rows))
	}
	edited, err := ApplyEdit(base, Edit{Updated: []int{3}}, &Table{Name: "facts", Schema: base.Schema, Rows: []Row{{Str("k9"), Int(-1)}}, Lineage: []LineageSet{{{Table: "facts", Row: 3}}}})
	if err != nil || edited.res != nil {
		t.Errorf("ApplyEdit: %v, res %v", err, edited.res)
	}
	if got := col(edited, 0).Value(3); got.S != "k9" {
		t.Errorf("edited version reads %v at the updated cell", got)
	}

	view := Rename(base, "f") // taken before the append: keeps the 40 rows it saw
	base.AppendVals(Str("k0"), Int(40))
	if base.res != nil {
		t.Error("Append kept the resident form")
	}
	if got := col(base, 1); got.Len() != 41 || got == col(base, 1) {
		t.Errorf("after Append the vector has %d cells, or is still resident", got.Len())
	}
	if got := col(view, 0); got != v || got.Len() != 40 {
		t.Error("a view taken before the Append lost the form it shares")
	}
	// A frozen table grown behind Append's back is read as never frozen.
	base.Freeze()
	base.Rows = append(base.Rows, Row{Str("k1"), Int(41)})
	if got := col(base, 1); got.Len() != 42 {
		t.Errorf("stale resident vector served: %d cells for 42 rows", got.Len())
	}
}

// TestVerifyResidentFindsInPlaceWrites: the safety net reports a cell or a
// lineage ref written after the form it contradicts was published.
func TestVerifyResidentFindsInPlaceWrites(t *testing.T) {
	tb := linTable("w", 64, 4, func(i int) LineageSet { return LineageSet{{Table: "a", Row: i}, {Table: "b", Row: i % 3}} })
	tb.Freeze()
	if _, err := GroupBy(tb, []string{"key"}, residentAggs); err != nil {
		t.Fatal(err)
	}
	if err := VerifyResident(tb); err != nil {
		t.Fatal(err)
	}
	tb.Rows[10][1] = Int(-5)
	if err := VerifyResident(tb); err == nil || !strings.Contains(err.Error(), "row 10") {
		t.Errorf("cell write not reported: %v", err)
	}
	tb.Rows[10][1] = Int(10)
	tb.Lineage[21][1].Row = 2
	if err := VerifyResident(tb); err == nil || !strings.Contains(err.Error(), "row 21") {
		t.Errorf("lineage write not reported: %v", err)
	}
	if err := VerifyResident(plainCopy(tb)); err != nil {
		t.Errorf("a table never frozen: %v", err)
	}
}

// BenchmarkGroupByResident is the flagship render's GroupBy at benchmark
// size — 50k rows, 25 groups, three refs per row — over a frozen table and
// over the same rows never frozen.
func BenchmarkGroupByResident(b *testing.B) {
	tb := linTable("rx_wide", 50000, 25, func(i int) LineageSet {
		return LineageSet{{Table: "drugcost", Row: (i * 7) % 25}, {Table: "prescriptions", Row: i}, {Table: "residents", Row: (i * 31) % 5000}}
	})
	frozen := plainCopy(tb)
	frozen.Freeze()
	for _, bc := range []struct {
		name string
		tb   *Table
	}{{"frozen", frozen}, {"plain", tb}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GroupBy(bc.tb, []string{"key"}, residentAggs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
