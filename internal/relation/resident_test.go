package relation

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// linTable builds a derived in-memory table (key STRING, n INT) of n rows
// over `groups` key values, whose row i carries the lineage refs(i).
func linTable(name string, n, groups int, refs func(i int) LineageSet) *Table {
	t := &Table{Name: name, Schema: NewSchema(Col("key", TString), Col("n", TInt))}
	t.ColOrigin = []ColRefSet{{{Table: "src", Column: "key"}}, {{Table: "src", Column: "n"}}}
	lin := make([]LineageSet, n)
	for i := range lin {
		t.Rows = append(t.Rows, Row{Str(fmt.Sprintf("k%02d", (i*7)%groups)), Int(int64(i))})
		lin[i] = refs(i)
	}
	return setLineage(t, lin)
}

// plainCopy shares t's rows and lineage under a table that was never frozen.
func plainCopy(t *Table) *Table {
	return headOf(t, t.NumRows())
}

var residentAggs = []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "n"}}

// keyed is a base table (key STRING, n INT) of n rows over `groups` key
// values, every fifth key NULL.
func keyed(name string, n, groups int) *Table {
	t := NewBase(name, NewSchema(Col("key", TString), Col("n", TInt)))
	for i := 0; i < n; i++ {
		key := Str(fmt.Sprintf("k%02d", (i*7)%groups))
		if i%5 == 3 {
			key = Null()
		}
		t.AppendVals(key, Int(int64(i)))
	}
	return t
}

// grouped returns the grouping tb's version published for column key.
func grouped(tb *Table) *grouping {
	if tb.frozen() == nil {
		return nil
	}
	return tb.res.groups[tb.Schema.Index("key")].Load()
}

// TestGroupByFrozenEqualsPlain: GroupBy over a frozen table reads resident
// vectors, and by its one key publishes the version's grouping, which the
// next GroupBy over the version or a view of it reads instead of grouping
// the rows; over an unfrozen copy it reads the rows. Rows, lineage and
// lineage parts must agree with the reference on every shape of lineage:
// implicit, by column, with a column of -1s, with two columns of one table,
// and packed — where refs are no ordinals, or the input is grouped — and
// over NULL keys and no rows. The successor ApplyEdit makes, and a base
// table Append grows, group their own rows.
func TestGroupByFrozenEqualsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	star := func(i int) LineageSet { // the rx_wide shape: fact row, small dimension, shared dimension
		return LineageSet{{Table: "drugcost", Row: (i * 7) % 25}, {Table: "prescriptions", Row: i}, {Table: "residents", Row: (i * 31) % 700}}
	}
	perm := rng.Perm(4000)
	facts, lookup := keyed("facts", 3000, 30), keyed("drugs", 20, 20)
	lookup.Rows = slices.DeleteFunc(lookup.Rows, func(r Row) bool { return r[0].IsNull() }) // a key joins at most one row
	leftJoin, err := Join(Rename(facts, "f"), Rename(lookup, "d"), Eq(ColRefExpr("f.key"), ColRefExpr("d.key")), LeftJoin)
	if err != nil {
		t.Fatal(err)
	}
	bucketed, err := Extend(linTable("inner", 4000, 25, star), "b", Bin(OpMod, ColRefExpr("n"), Lit(Int(3))))
	if err != nil {
		t.Fatal(err)
	}
	regrouped, err := GroupBy(bucketed, []string{"key", "b"}, []AggSpec{{Kind: AggSum, Col: "n", As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(leftJoin.lin.cols[slices.Index(leftJoin.lin.tables, "drugs")], -1) || regrouped.packed == nil {
		t.Fatal("the LEFT JOIN misses no row, or the grouped input is not packed: the cases pin nothing")
	}
	cases := []struct {
		name  string
		table *Table
	}{
		{"scenario-shaped", linTable("rx_wide", 4000, 25, star)},
		{"empty sets among the rows", linTable("gaps", 600, 7, func(i int) LineageSet {
			if i%3 == 0 {
				return nil
			}
			return star(i)
		})},
		{"every set empty", linTable("void", 50, 3, func(int) LineageSet { return nil })},
		{"a table sparse for each group", linTable("sparse", 4000, 40, func(i int) LineageSet {
			return LineageSet{{Table: "events", Row: perm[i] * 1000}, {Table: "hosts", Row: perm[i] % 9}}
		})},
		{"twenty base tables", linTable("fanout", 500, 5, func(i int) LineageSet {
			var set LineageSet
			for b := 0; b < 20; b++ {
				if (i+b)%4 != 0 {
					set = append(set, RowRef{Table: fmt.Sprintf("b%02d", b), Row: (i * (b + 1)) % 97})
				}
			}
			return set
		})},
		{"a negative ordinal", linTable("neg", 300, 4, func(i int) LineageSet {
			return LineageSet{{Table: "a", Row: i - 1}}
		})},
		{"an ordinal past int32", linTable("big", 300, 4, func(i int) LineageSet {
			return LineageSet{{Table: "a", Row: math.MaxInt32 + i}}
		})},
		{"two refs into one table", linTable("pair", 300, 4, func(i int) LineageSet {
			return LineageSet{{Table: "a", Row: i}, {Table: "a", Row: i + 300}, {Table: "b", Row: i % 5}}
		})},
		{"a base table with NULL keys", keyed("base", 3000, 30)},
		{"a LEFT JOIN miss", leftJoin},
		{"a grouped input", regrouped},
		{"no rows", linTable("none", 0, 1, nil)},
	}
	check := func(label string, tb *Table) {
		t.Helper()
		want, err := groupByRows(plainCopy(tb), []string{"key"}, residentAggs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GroupBy(tb.Clone(), []string{"key"}, residentAggs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, label+" unfrozen", got, want)
		tb.Freeze()
		var first *grouping
		for pass, name := range []string{"build", "hit"} {
			got, err := GroupBy(tb, []string{"key"}, residentAggs)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, label+" "+name, got, want)
			if g := grouped(tb); g == nil || pass > 0 && g != first {
				t.Fatalf("%s: pass %d left grouping %p, the first %p", label, pass, g, first)
			} else {
				first = g
			}
		}
		if tb.vecs == nil || tb.Rows != nil {
			t.Errorf("%s: a frozen table does not hold its cells as vectors alone", label)
		}
		if err := verifyResident(tb); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		// Through the view a query reads a registered table by: it shares
		// the version and its grouping.
		v := Rename(tb, "v")
		got, err = GroupBy(v, []string{"v.key"}, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "v.n"}})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, label+" renamed", got, want)
		if grouped(v) != first {
			t.Errorf("%s: the renamed view reads a grouping of its own", label)
		}
	}
	for _, tc := range cases {
		check(tc.name, tc.table)
		n := tc.table.NumRows()
		if n == 0 {
			continue
		}
		// The next version: row 0 takes the last row's key, one row comes.
		repl, err := SliceRows(tc.table, []int{n - 1, n / 2})
		if err != nil {
			t.Fatal(err)
		}
		next, err := ApplyEdit(tc.table, Edit{Updated: []int{0}, Appended: 1}, repl)
		if err != nil {
			t.Fatal(err)
		}
		if grouped(next) != nil {
			t.Fatalf("%s: the edit carried the grouping", tc.name)
		}
		check(tc.name+" edited", next)
	}

	// Append drops the version: the grown table groups its own rows.
	base := keyed("grown", 500, 9)
	check("base", base)
	old := grouped(base)
	base.AppendVals(Str("k99"), Int(-1))
	if grouped(base) != nil {
		t.Fatal("Append kept the form")
	}
	check("base appended", base)
	if grouped(base) == old {
		t.Error("the grown table reads the grouping of the version before")
	}
}

// TestGroupBySegmentLineageColumns: a segment-backed table keeps its
// lineage columns in memory and is scanned a partition at a time; each
// batch reads the columns from its own row offset.
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
	if !slices.Equal(seg.lin.tables, []string{"dims", "facts"}) {
		t.Fatalf("segment-backed table keeps lineage columns of %v", seg.lin.tables)
	}
	if seg.vecs != nil {
		t.Error("a segment-backed table keeps vectors in memory")
	}
	if err := verifyResident(seg); err != nil {
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
			if got[i].RowLineage(0) != nil {
				t.Errorf("emitBetween=%v emit %d: group without refs has lineage %#v, want nil", between, i, got[i].RowLineage(0))
			}
		}
	}
}

// lineageOf returns every row's lineage set.
func lineageOf(tb *Table) []LineageSet {
	lin := make([]LineageSet, tb.NumRows())
	for i := range lin {
		lin[i] = tb.RowLineage(i)
	}
	return lin
}

// codes reads column ci of tb's dictionary codes the way the tracer does.
func codes(t *testing.T, tb *Table, ci int) []int32 {
	t.Helper()
	c, _, ok := tb.DistinctCodes(ci)
	if !ok {
		t.Fatalf("column %d of %s has no dictionary", ci, tb.Name)
	}
	return c
}

// col reads column ci of tb the way an operator does.
func col(t *testing.T, tb *Table, ci int) *Vector {
	t.Helper()
	v, err := NewBatch(tb).Col(ci)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// editWide applies e to the derived table old (deriveWide of base b), the
// base rebuilt with fresh rows where e brings them (applyWide). It returns
// the new version and the rebuilt base.
func editWide(t *testing.T, rng *rand.Rand, old, b *Table, e Edit) (*Table, *Table) {
	t.Helper()
	nb := rebuild(rng, b, e)
	return applyWide(t, old, nb, e), nb
}

// appendWide applies to old, deriveWide of base b (key STRING, v INT), the
// append of m rows of the columns' own kinds. It returns the new version and
// the grown base.
func appendWide(t *testing.T, old, b *Table, m int) (*Table, *Table) {
	t.Helper()
	nb := NewBase(b.Name, b.Schema)
	nb.Rows = capped(b.Rows)
	for i := b.NumRows(); i < b.NumRows()+m; i++ {
		nb.AppendVals(Str(fmt.Sprint("k", i%7)), Int(int64(i)))
	}
	return applyWide(t, old, nb, Edit{Appended: m}), nb
}

// applyWide returns ApplyEdit's version of old, deriveWide of a base, after
// the edit e that turned that base into nb, checked against deriving it
// again: rows, lineage, and every part carried to it.
func applyWide(t *testing.T, old, nb *Table, e Edit) *Table {
	t.Helper()
	want := deriveWide(nb)
	dirty, err := e.Dirty(want.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	repl, err := SliceRows(want, dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApplyEdit(old, e, repl)
	if err != nil {
		t.Fatalf("edit %+v: %v", e, err)
	}
	requireSameTable(t, fmt.Sprintf("edit %+v", e), got, want)
	requireFreshParts(t, fmt.Sprintf("edit %+v", e), got)
	return got
}

// requireFreshParts fails unless every part carried to tb is what tb's own
// readers would build — each dictionary up to the order of its codes — and
// tb's vectors hold its cells alone.
func requireFreshParts(t *testing.T, label string, tb *Table) {
	t.Helper()
	if tb.vecs == nil || tb.Rows != nil {
		t.Fatalf("%s: an edited version does not hold its cells as vectors alone", label)
	}
	if err := verifyResident(tb); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// snapshot copies what a reader of tb sees: rows, lineage, and the values of
// its vectors.
func snapshot(t *testing.T, tb *Table) (*Table, [][]Value) {
	t.Helper()
	vals := make([][]Value, tb.Schema.Len())
	for ci := range vals {
		v := col(t, tb, ci)
		for ri := 0; ri < v.Len(); ri++ {
			vals[ci] = append(vals[ci], v.Value(ri))
		}
	}
	return tb.Clone(), vals
}

// requireUnchanged fails unless tb still reads what snapshot saw.
func requireUnchanged(t *testing.T, label string, tb, rows *Table, vals [][]Value) {
	t.Helper()
	requireSameTable(t, label, tb, rows)
	for ci := range vals {
		v := col(t, tb, ci)
		if v.Len() != len(vals[ci]) {
			t.Fatalf("%s: vector of column %d has %d cells, was %d", label, ci, v.Len(), len(vals[ci]))
		}
		for ri, want := range vals[ci] {
			if got := v.Value(ri); !sameRow(Row{got}, Row{want}) {
				t.Fatalf("%s: vector of column %d reads %v at row %d, was %v", label, ci, got, ri, want)
			}
		}
	}
	if err := verifyResident(tb); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestFreezeLifecycle: who shares a resident form, who inherits it from the
// version before, and who must not have it.
func TestFreezeLifecycle(t *testing.T) {
	b := NewBase("b", NewSchema(Col("k", TString), Col("v", TInt)))
	for i := 0; i < 40; i++ {
		b.AppendVals(Str(fmt.Sprint("k", i%4)), Int(int64(i)))
	}
	base := deriveWide(b)
	if col(t, base, 0) == col(t, base, 0) {
		t.Fatal("a table never frozen kept a vector")
	}
	base.Freeze()
	v := col(t, base, 0)
	if col(t, base, 0) != v {
		t.Fatal("a frozen table built its vector twice")
	}
	if col(t, Rename(base, "f"), 0) != v {
		t.Error("Rename does not share the resident vectors")
	}
	idx := base.hashIndex(0, v)
	if Rename(base, "f").hashIndex(0, v) != idx {
		t.Error("Rename does not share the resident join index")
	}
	dict := codes(t, base, 0)
	if &codes(t, base, 0)[0] != &dict[0] || &codes(t, Rename(base, "f"), 0)[0] != &dict[0] {
		t.Error("a frozen table, or its renamed view, built its dictionary twice")
	}

	// Clone, Shell, Select and Materialize's copy share nothing.
	if c := base.Clone(); c.res != nil || col(t, c, 0) == v || &codes(t, c, 0)[0] == &dict[0] {
		t.Error("Clone shares the resident form")
	}
	if s := base.Shell(); s.res != nil {
		t.Error("Shell shares the resident form")
	}
	sel, err := Select(base, Eq(ColRefExpr("k"), Lit(Str("k1"))))
	if err != nil || sel.res != nil || sel.NumRows() != 10 || &codes(t, sel, 0)[0] == &dict[0] {
		t.Errorf("Select over a frozen table: %v, res %v, %d rows", err, sel.res, sel.NumRows())
	}
	spilled, _ := segSpill(t, base, 16)
	spilled.Freeze()
	if m, err := spilled.Materialize(); err != nil || m.res != nil {
		t.Errorf("Materialize of a frozen segment-backed table: %v, res %v", err, m.res)
	}

	// An edit carries what readers published — column 0's dictionary, equal
	// to a fresh build (applyWide checks) — and leaves column 1's and the
	// join index to the new version's readers.
	nb := NewBase("b", b.Schema)
	for i, r := range b.Rows {
		switch i {
		case 3:
			nb.AppendVals(Str("k9"), Int(-1))
		case 5:
		default:
			nb.AppendVals(r...)
		}
	}
	nb.AppendVals(Null(), Int(40))
	edited := applyWide(t, base, nb, Edit{Removed: []int{5}, Updated: []int{3}, Appended: 1, Shift: map[string][]int{"b": {5}}})
	if edited.res == nil || edited.res.dict[0].Load() == nil {
		t.Fatal("ApplyEdit of a frozen table did not carry the published parts")
	}
	if edited.res.keys[0].Load() != nil || edited.res.dict[1].Load() != nil {
		t.Error("ApplyEdit built a part no reader had published")
	}
	if err := verifyResident(edited); err != nil {
		t.Error(err)
	}
	if view := Rename(edited, "f"); cap(view.Rows) != len(view.Rows) || cap(view.lin.cols[0]) != len(view.lin.cols[0]) {
		t.Error("a renamed view reaches the room behind the version's rows")
	}

	// Two successors of one version, as a rolled-back delta and its retry
	// make them: both equal a recompute; the first grows the version's arrays
	// in place, the second copies; the version reads the same throughout.
	// Only the first takes over the dictionary's value-to-code assignment;
	// the second's readers build their own, which leaves the first's alone.
	rows, vals := snapshot(t, edited)
	first, _ := appendWide(t, edited, nb, 2)
	requireUnchanged(t, "after the first successor", edited, rows, vals)
	firstIDs := maps.Clone(first.res.dict[0].Load().in.strs)
	second, _ := appendWide(t, edited, nb, 3)
	requireUnchanged(t, "after the second successor", edited, rows, vals)
	if second.res.dict[0].Load() != nil {
		t.Error("the second successor of a version carried its dictionary")
	}
	shares := func(a, b *Table) bool {
		return &col(t, a, 1).I[0] == &col(t, b, 1).I[0] && &a.lin.cols[0][0] == &b.lin.cols[0][0] &&
			&col(t, a, 0).S[0] == &col(t, b, 0).S[0] && &codes(t, a, 0)[0] == &codes(t, b, 0)[0]
	}
	if !shares(first, edited) || shares(second, edited) {
		t.Errorf("first successor grew in place: %v, second: %v; want only the first", shares(first, edited), shares(second, edited))
	}
	codes(t, second, 0)
	if in := first.res.dict[0].Load().in; in == second.res.dict[0].Load().in || !maps.Equal(in.strs, firstIDs) {
		t.Error("the second successor shares, or wrote, the first's value-to-code assignment")
	}
	for _, s := range []*Table{first, second} {
		if err := verifyResident(s); err != nil {
			t.Error(err)
		}
	}
	// A row naming a base table the version's lineage does not list adds
	// its column, -1 for every row before.
	odd, err := ApplyEdit(second, Edit{Appended: 1}, setLineage(&Table{Name: second.Name, Schema: second.Schema,
		Rows: []Row{{Str("k1"), Int(99)}}}, []LineageSet{{{Table: "bb", Row: 0}}}))
	if err != nil || !reflect.DeepEqual(odd.RowLineage(odd.NumRows()-1), LineageSet{{Table: "bb", Row: 0}}) ||
		!reflect.DeepEqual(odd.RowLineage(0), second.RowLineage(0)) {
		t.Errorf("an append naming a new base table: %v, lineage %v after %v", err, odd.RowLineage(odd.NumRows()-1), odd.RowLineage(0))
	}
	if err := verifyResident(odd); err != nil {
		t.Error(err)
	}

	// A dictionary whose codes would outnumber the version's rows twice over
	// is left for the version's readers to build tight.
	wide := NewBase("w", NewSchema(Col("k", TInt)))
	var gone []int
	for i := 0; i < 100; i++ {
		wide.AppendVals(Int(int64(i)))
		gone = append(gone, i)
	}
	wide.Freeze()
	codes(t, wide, 0)
	shrunk, err := ApplyEdit(wide, Edit{Removed: gone[1:]}, nil)
	if err != nil || shrunk.res.dict[0].Load() != nil {
		t.Errorf("a tail delete of 99 of 100 distinct rows: %v, dictionary carried %v", err, shrunk.res.dict[0].Load())
	}

	// Append takes the claim or copies: once a successor of a base table's
	// version holds its room, an Append to the version leaves the
	// successor's rows alone.
	one := func(k string, v int64) *Table {
		return &Table{Name: nb.Name, Schema: nb.Schema, Base: true, Rows: []Row{{Str(k), Int(v)}}}
	}
	bv, err := ApplyEdit(nb, Edit{Appended: 1}, one("k5", 41))
	if err != nil {
		t.Fatal(err)
	}
	bnext, err := ApplyEdit(bv, Edit{Appended: 1}, one("k6", 42))
	if err != nil || &col(t, bnext, 1).I[0] != &col(t, bv, 1).I[0] {
		t.Fatalf("the first successor of a base version did not grow it in place: %v", err)
	}
	frows, fvals := snapshot(t, bnext)
	if err := bv.AppendVals(Str("k0"), Int(40)); err != nil {
		t.Fatal(err)
	}
	requireUnchanged(t, "first successor after an Append to its version", bnext, frows, fvals)

	n := nb.NumRows()
	nb.Freeze()
	nv := col(t, nb, 0)
	view := Rename(nb, "f") // taken before the append: keeps the rows it saw
	nb.AppendVals(Str("k0"), Int(40))
	if nb.res != nil {
		t.Error("Append kept the resident form")
	}
	if got := col(t, nb, 1); got.Len() != n+1 || got == col(t, nb, 1) {
		t.Errorf("after Append the vector has %d cells, or is still resident", got.Len())
	}
	if got := col(t, view, 0); got != nv || got.Len() != n {
		t.Error("a view taken before the Append lost the form it shares")
	}
}

// TestApplyEditCarriesDictionaries: after an update, a delete from the
// middle and a delete from the end, a version's dictionary is its
// predecessor's carried — the same value-to-code assignment, no rebuild —
// and counts exactly what a dictionary built from the version counts. Churn
// that leaves the assignment twice the table's size ends the carry.
func TestApplyEditCarriesDictionaries(t *testing.T) {
	schema := NewSchema(Col("patient", TString), Col("n", TInt))
	rows := func(patients ...string) *Table {
		tb := NewBase("rx", schema)
		for i, p := range patients {
			tb.AppendVals(Str(p), Int(int64(i)))
		}
		return tb
	}
	distinct := func(tb *Table) int {
		c, card, _ := tb.DistinctCodes(0)
		seen := make([]bool, card)
		n := 0
		for _, code := range c {
			if !seen[code] {
				seen[code], n = true, n+1
			}
		}
		return n
	}
	cur := rows("ann", "bob", "ann", "cy", "dee", "bob")
	cur.Freeze()
	if got := distinct(cur); got != 4 {
		t.Fatalf("distinct patients = %d, want 4", got)
	}
	in := cur.res.dict[0].Load().in
	for _, st := range []struct {
		name string
		edit Edit
		repl *Table
		want int
	}{
		{"update to a new and to a known value", Edit{Updated: []int{0, 4}}, rows("eve", "ann"), 4},
		{"mid-table delete with an append", Edit{Removed: []int{1}, Appended: 1}, rows("fay"), 5},
		{"tail delete", Edit{Removed: []int{4, 5}}, nil, 3},
		{"update behind a delete", Edit{Removed: []int{0}, Updated: []int{3}}, rows("gus"), 3},
	} {
		next, err := ApplyEdit(cur, st.edit, st.repl)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		d := next.res.dict[0].Load()
		if d == nil || len(d.codes) != next.NumRows() {
			t.Fatalf("%s: dictionary dropped or short: %+v", st.name, d)
		}
		if d.in != in {
			t.Errorf("%s: the value-to-code assignment was rebuilt", st.name)
		}
		if got, want := distinct(next), distinct(plainCopy(next)); got != want || got != st.want {
			t.Errorf("%s: distinct patients = %d, a fresh dictionary says %d, want %d", st.name, got, want, st.want)
		}
		if err := verifyResident(next); err != nil {
			t.Errorf("%s: %v", st.name, err)
		}
		cur = next
	}

	// Values that left the table keep their codes; once they outnumber the
	// rows twice over the dictionary is given up for a tight one.
	cur = rows("ann", "cy")
	cur.Freeze()
	distinct(cur)
	for i := 0; i < 80; i++ {
		next, err := ApplyEdit(cur, Edit{Updated: []int{0}}, rows(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if d := cur.res.dict[0].Load(); d != nil {
		t.Errorf("dictionary of a 2-row table kept %d codes", d.card)
	}
	if got := distinct(cur); got != 2 {
		t.Errorf("after giving up: distinct patients = %d, want 2", got)
	}
}

// carryTable is a derived table (key STRING, n INT) of the given keys — any
// kind, schemas being advisory — row i's n being from+i and its lineage
// refs[i], or carryRefs(from+i) where refs holds no set.
func carryTable(keys []Value, from int, refs ...LineageSet) *Table {
	t := &Table{Name: "g", Schema: NewSchema(Col("key", TString), Col("n", TInt))}
	t.ColOrigin = []ColRefSet{{{Table: "src", Column: "key"}}, {{Table: "src", Column: "n"}}}
	lin := make([]LineageSet, len(keys))
	for i, k := range keys {
		t.Rows = append(t.Rows, Row{k, Int(int64(from + i))})
		if lin[i] = carryRefs(from + i); i < len(refs) && refs[i] != nil {
			lin[i] = refs[i]
		}
	}
	return setLineage(t, lin)
}

// carryRefs is row i's lineage in carryTable: a dense fact table, which a
// group packs as a bitset; a sparse one, every third row, packed as a run;
// and a five-row dimension.
func carryRefs(i int) LineageSet {
	set := LineageSet{{Table: "a", Row: 100 + i}, {Table: "d", Row: i % 5}}
	if i%3 == 0 {
		set = append(set, RowRef{Table: "s", Row: i * 1000})
	}
	return set
}

// TestApplyEditCarriesGroupings: an edit that only appends hands the next
// version its predecessor's groupings, extended by the appended rows, over
// versions no GroupBy reads as well as over read ones. Every version groups
// as a copy never frozen does — rows, lineage and lineage parts — passes
// VerifyResident, and leaves the grouping of the version before as it was.
// The appends count rows into known groups and open new ones, hold NULL keys
// and INT and FLOAT keys that share a group, reuse the code of a value an
// update took out of the table, and name base rows below, inside and past a
// group's bitset, far past it, and into a run. An update, a removal, a
// Shift, a second successor and an update that gives up the dictionary
// publish no grouping; the version's first GroupBy builds one.
func TestApplyEditCarriesGroupings(t *testing.T) {
	var versions []*Table
	snaps := map[*Table]string{}
	record := func(tb *Table) {
		if g := grouped(tb); g != nil && snaps[tb] == "" {
			snaps[tb] = fmt.Sprint(*g)
		}
	}
	render := func(tb *Table) {
		t.Helper()
		if _, err := GroupBy(tb, []string{"key"}, residentAggs); err != nil {
			t.Fatal(err)
		}
		record(tb)
	}
	edit := func(label string, cur *Table, e Edit, repl *Table, carries bool) *Table {
		t.Helper()
		record(cur)
		next, err := ApplyEdit(cur, e, repl)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := grouped(next) != nil; got != carries {
			t.Fatalf("%s: grouping carried: %v, want %v", label, got, carries)
		}
		if err := verifyResident(next); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if g := grouped(cur); g != nil && fmt.Sprint(*g) != snaps[cur] {
			t.Fatalf("%s: the grouping of the version before moved", label)
		}
		versions = append(versions, next)
		record(next)
		return next
	}
	appendKeys := func(label string, cur *Table, carries bool, keys []Value, refs ...LineageSet) *Table {
		t.Helper()
		return edit(label, cur, Edit{Appended: len(keys)}, carryTable(keys, cur.NumRows(), refs...), carries)
	}
	part := func(g *grouping, gi int, table string) LineagePart {
		t.Helper()
		for _, p := range g.lineage[gi] {
			if p.Table == table {
				return p
			}
		}
		t.Fatalf("group %d names no row of %s", gi, table)
		return LineagePart{}
	}
	x, y, z := Str("x"), Str("y"), Str("z")

	// A derived table with lineage columns.
	cycle := []Value{x, y, Null(), Int(1), Float(1), z, Int(2), Float(2.5)}
	var keys []Value
	for i := 0; i < 200; i++ {
		keys = append(keys, cycle[i%len(cycle)])
	}
	cur := carryTable(keys, 0)
	cur.Freeze()
	versions = append(versions, cur)
	render(cur)
	g := grouped(cur)
	if a, s := part(g, 0, "a"), part(g, 0, "s"); a.words == nil || a.base == 0 || s.rows == nil {
		t.Fatalf("group x: part a %+v, part s %+v; want a bitset above row 0 and a run", a, s)
	}
	cur = appendKeys("known groups", cur, true, []Value{x, x, x, Float(1), y},
		LineageSet{{Table: "a", Row: 3}}, LineageSet{{Table: "a", Row: 150}, {Table: "s", Row: 5}},
		LineageSet{{Table: "a", Row: 1000}}, nil, LineageSet{})
	cur = appendKeys("new groups", cur, true, []Value{Str("w"), Null(), Float(3), Int(3), Str("w")})
	render(cur)
	var gone []int
	for ri, row := range cells(cur) {
		if row[0] == z {
			gone = append(gone, ri)
		}
	}
	ys := make([]Value, len(gone))
	for i := range ys {
		ys[i] = y
	}
	repl := carryTable(ys, 0)
	cur = edit("z updated away", cur, Edit{Updated: gone}, repl, false)
	render(cur)
	if !slices.Contains(grouped(cur).byCode, -1) {
		t.Fatal("no code is left without a row: the case pins nothing")
	}
	cur = appendKeys("a code no row held", cur, true, []Value{z, x}, nil, LineageSet{{Table: "a", Row: 1 << 20}})
	if a := part(grouped(cur), 0, "a"); a.rows == nil {
		t.Fatalf("a row far past group x's bitset left it a bitset of %d words", len(a.words))
	}
	cur = appendKeys("after a read", cur, true, []Value{z, Float(2.5), Int(2)})
	render(cur)
	// Each edit below is the first successor of a version with a grouping,
	// so it holds the dictionary's claim.
	cur = edit("update", cur, Edit{Updated: []int{0}}, carryTable([]Value{y}, 0), false)
	render(cur)
	cur = edit("removal", cur, Edit{Removed: []int{cur.NumRows() - 1}}, nil, false)
	render(cur)
	cur = edit("shift", cur, Edit{Appended: 1, Shift: map[string][]int{"b": {0}}}, carryTable([]Value{x}, cur.NumRows()), false)
	render(cur)
	appendKeys("first successor", cur, true, []Value{x})
	appendKeys("second successor", cur, false, []Value{x})

	// An update that leaves the dictionary's codes twice the table's rows
	// gives it up. (An append cannot: it adds no more codes than rows.)
	small := carryTable([]Value{x, y}, 0)
	small.Freeze()
	versions = append(versions, small)
	for i := 0; small.res.dict[0].Load() != nil || i == 0; i++ {
		render(small)
		small = edit(fmt.Sprint("churn ", i), small, Edit{Updated: []int{0}}, carryTable([]Value{Str(fmt.Sprint("p", i))}, 0), false)
	}
	render(small)
	appendKeys("after the dictionary was built again", small, true, []Value{y, Str("q")})

	// A base table: implicit lineage, every appended row past every part.
	base := keyed("rx", 300, 9)
	base.Freeze()
	versions = append(versions, base)
	render(base)
	grow := func(label string, cur *Table, keys ...Value) *Table {
		t.Helper()
		repl := &Table{Name: cur.Name, Schema: cur.Schema, Base: true}
		for i, k := range keys {
			repl.Rows = append(repl.Rows, Row{k, Int(int64(cur.NumRows() + i))})
		}
		return edit(label, cur, Edit{Appended: len(keys)}, repl, true)
	}
	base = grow("base: known groups", base, Str("k00"), Str("k01"))
	base = grow("base: new groups and NULL", base, Str("k99"), Null(), Str("k99"))
	render(base)
	grow("base: one more", base, Str("k05"))

	for i, tb := range versions {
		want, err := GroupBy(plainCopy(tb), []string{"key"}, residentAggs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("version %d (%s, %d rows)", i, tb.Name, tb.NumRows())
		if g := grouped(tb); g != nil && fmt.Sprint(*g) != snaps[tb] {
			t.Fatalf("%s: its grouping moved", label)
		}
		got, err := GroupBy(tb, []string{"key"}, residentAggs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, label, got, want)
		if err := verifyResident(tb); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// TestGrowInPlaceUnderReaders: readers scan one version of a table — its
// rows, its vectors through Batch.Col, its lineage and lineage columns, a
// GroupBy and a join over it — while a writer builds the versions after it
// by appends that grow its arrays in place. Under -race this shows that no
// write lands where a reader of the version looks; without it, that every
// read still sees what the version held.
func TestGrowInPlaceUnderReaders(t *testing.T) {
	b := NewBase("b", NewSchema(Col("k", TString), Col("v", TInt)))
	for i := 0; i < 500; i++ {
		b.AppendVals(Str(fmt.Sprint("k", i%7)), Int(int64(i)))
	}
	first := deriveWide(b)
	first.Freeze()
	publish(t, first)
	k, kb := appendWide(t, first, b, 1) // a copy, with room behind it
	publish(t, k)

	other := NewBase("o", NewSchema(Col("k", TString)))
	for i := 0; i < 7; i++ {
		other.AppendVals(Str(fmt.Sprint("k", i)))
	}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "v"}}
	render := func(tb *Table) (string, error) {
		g, err := GroupBy(tb, []string{"k"}, aggs)
		if err != nil {
			return "", err
		}
		j, err := Join(Rename(other, "o"), Rename(tb, "w"), Eq(ColRefExpr("o.k"), ColRefExpr("w.k")), InnerJoin)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(g, lineageOf(g), j, lineageOf(j)), nil
	}
	wantRender, err := render(plainCopy(k))
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantLin := k.String(), fmt.Sprint(lineageOf(k))
	wantCols := fmt.Sprint(k.lin.cols)
	_, wantVals := snapshot(t, k)

	read := func() bool {
		if k.String() != wantRows || fmt.Sprint(lineageOf(k)) != wantLin {
			t.Error("a reader saw the version's rows or lineage change")
			return false
		}
		batch := NewBatch(k)
		for ci, want := range wantVals {
			v, err := batch.Col(ci)
			if err != nil || v.Len() != len(want) {
				t.Errorf("column %d: %v, %d cells for %d", ci, err, v.Len(), len(want))
				return false
			}
			for ri, w := range want {
				if !sameRow(Row{v.Value(ri)}, Row{w}) {
					t.Errorf("column %d reads %v at row %d, was %v", ci, v.Value(ri), ri, w)
					return false
				}
			}
		}
		if fmt.Sprint(k.lin.cols) != wantCols {
			t.Error("a reader saw the version's lineage columns change")
			return false
		}
		if got, err := render(k); err != nil || got != wantRender {
			t.Errorf("a render over the version changed: %v", err)
			return false
		}
		return true
	}
	done := make(chan struct{})
	var wg, reading sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		reading.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass++ {
				ok := read()
				if pass == 0 {
					reading.Done()
				}
				if !ok {
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	reading.Wait() // the writer starts while every reader is mid-loop
	cur, cb := k, kb
	for i := 0; i < 40; i++ {
		cur, cb = appendWide(t, cur, cb, 3)
	}
	close(done)
	wg.Wait()
	if &col(t, cur, 1).I[0] != &col(t, k, 1).I[0] || &col(t, cur, 0).S[0] != &col(t, k, 0).S[0] || &cur.lin.cols[0][0] != &k.lin.cols[0][0] {
		t.Error("the writer copied instead of growing the version's arrays in place")
	}
	if err := verifyResident(cur); err != nil {
		t.Error(err)
	}
}

// TestVerifyResidentFindsInPlaceWrites: the safety net reports a cell, a
// join key, a dictionary code or a grouping written after the part it
// contradicts was published.
func TestVerifyResidentFindsInPlaceWrites(t *testing.T) {
	tb := linTable("w", 64, 4, func(i int) LineageSet { return LineageSet{{Table: "a", Row: i}, {Table: "b", Row: i % 3}} })
	tb.Freeze()
	if _, err := GroupBy(tb, []string{"key"}, residentAggs); err != nil {
		t.Fatal(err)
	}
	if err := verifyResident(tb); err != nil {
		t.Fatal(err)
	}
	was := tb.vecs[0].S[10]
	tb.vecs[0].S[10] = tb.vecs[0].S[11] // k02 becomes k01
	if err := verifyResident(tb); err == nil || !strings.Contains(err.Error(), "row 10") {
		t.Errorf("cell write not reported: %v", err)
	}
	tb.vecs[0].S[10] = was
	if err := verifyResident(plainCopy(tb)); err != nil {
		t.Errorf("a table never frozen: %v", err)
	}

	// A join key written after the right side's index was published.
	ix := linTable("ix", 64, 4, func(i int) LineageSet { return LineageSet{{Table: "a", Row: i}} })
	ix.Freeze()
	ix.hashIndex(0, ix.column(0))
	if err := verifyResident(ix); err != nil {
		t.Fatal(err)
	}
	ix.vecs[0].S[5] = ix.vecs[0].S[0] // k03 becomes k00
	if err := verifyResident(ix); err == nil || !strings.Contains(err.Error(), "join index of column key") {
		t.Errorf("join key write not reported: %v", err)
	}

	// A dictionary code that joins two values, passes the cardinality, or
	// splits one value. Rows 0–4 hold k00, k03, k02, k01, k00.
	dt := linTable("d", 64, 4, func(i int) LineageSet { return LineageSet{{Table: "a", Row: i}} })
	dt.Freeze()
	c := codes(t, dt, 0)
	if err := verifyResident(dt); err != nil {
		t.Fatal(err)
	}
	own := c[3]
	for _, code := range []int32{c[1], 4} { // k01 under k03's code, then a code past card
		c[3] = code
		if err := verifyResident(dt); err == nil || !strings.Contains(err.Error(), "dictionary of column key") || !strings.Contains(err.Error(), "row 3") {
			t.Errorf("dictionary code %d at row 3 not reported: %v", code, err)
		}
	}
	c[3], c[4] = own, own // k00 under k01's code as well as its own
	if err := verifyResident(dt); err == nil || !strings.Contains(err.Error(), "row 4") {
		t.Errorf("one value under two codes not reported: %v", err)
	}

	// A grouping that puts a key's rows in another group, miscounts a
	// group, or holds another group's lineage.
	g := grouped(tb)
	if g == nil {
		t.Fatal("GroupBy by key published no grouping")
	}
	k := codes(t, tb, 0)[0]
	corrupt := []struct {
		name, report string
		write, undo  func()
	}{
		{"a row moved", "does not put row 0 in group 0", func() { g.byCode[k] ^= 1 }, func() { g.byCode[k] ^= 1 }},
		{"a count", "counts 17 rows in group 2", func() { g.counts[2]++ }, func() { g.counts[2]-- }},
		{"two lineages swapped", "lineage in group 0", func() { g.lineage[0], g.lineage[1] = g.lineage[1], g.lineage[0] },
			func() { g.lineage[0], g.lineage[1] = g.lineage[1], g.lineage[0] }},
	}
	for _, c := range corrupt {
		c.write()
		if err := verifyResident(tb); err == nil || !strings.Contains(err.Error(), "grouping of column key") || !strings.Contains(err.Error(), c.report) {
			t.Errorf("%s not reported: %v", c.name, err)
		}
		c.undo()
	}
	if err := verifyResident(tb); err != nil {
		t.Error(err)
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
