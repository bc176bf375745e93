package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deriveWide builds the one-to-one derived table the edit tests keep up
// to date: row i of base b, its lineage {b#i} joined by a ref into a
// second base table picked from the row's position.
func deriveWide(b *Table) *Table {
	out := &Table{Name: "wide", Schema: b.Schema}
	out.ColOrigin = make([]ColRefSet, b.Schema.Len())
	for c := range out.ColOrigin {
		out.ColOrigin[c] = ColRefSet{{Table: "b", Column: b.Schema.Columns[c].Name}}
	}
	var lin []LineageSet
	for i, r := range b.Rows {
		out.Rows = append(out.Rows, r)
		lin = append(lin, LineageSet{{Table: "a", Row: len(r[0].String()) % 3}, {Table: "b", Row: i}, {Table: "c", Row: 7}})
	}
	return setLineage(out, lin)
}

// randEdit draws an edit of a table of n rows: disjoint removed and
// updated rows, a few appended.
func randEdit(rng *rand.Rand, n int) Edit {
	var e Edit
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			e.Removed = append(e.Removed, i)
		case 1:
			e.Updated = append(e.Updated, i)
		}
	}
	if rng.Intn(3) == 0 && n > 0 { // a tail removal instead
		e.Removed = nil
		for i := n - 1 - rng.Intn(n); i < n; i++ {
			e.Removed = append(e.Removed, i)
		}
		kept := e.Updated[:0]
		for _, ri := range e.Updated {
			if ri < e.Removed[0] {
				kept = append(kept, ri)
			}
		}
		e.Updated = kept
	}
	e.Appended = rng.Intn(4)
	return e
}

// rebuild applies e to base b the naive way: a new table, row by row. Now
// and then a fresh cell has another kind than its column (schemas are
// advisory).
func rebuild(rng *rand.Rand, b *Table, e Edit) *Table {
	kinds := []Type{TString, TInt, TFloat, TBool, TDate}
	fresh := func() Row {
		row := make(Row, b.Schema.Len())
		for c, column := range b.Schema.Columns {
			kind := column.Type
			if rng.Intn(20) == 0 {
				kind = kinds[rng.Intn(len(kinds))]
			}
			row[c] = randValue(rng, kind)
		}
		return row
	}
	next := NewBase(b.Name, b.Schema)
	for i, r := range b.Rows {
		switch {
		case sort.SearchInts(e.Removed, i) < len(e.Removed) && e.Removed[sort.SearchInts(e.Removed, i)] == i:
		case sort.SearchInts(e.Updated, i) < len(e.Updated) && e.Updated[sort.SearchInts(e.Updated, i)] == i:
			next.Rows = append(next.Rows, fresh())
		default:
			next.Rows = append(next.Rows, r)
		}
	}
	for i := 0; i < e.Appended; i++ {
		next.Rows = append(next.Rows, fresh())
	}
	return next
}

// TestApplyEditMatchesRebuild: applying an edit to a derived table —
// removed ranges dropped, updated rows replaced, rows appended, the
// lineage of kept rows renumbered past the base rows lost — yields
// exactly the table derived from the rebuilt base, values and lineage,
// and leaves the old version as it was.
func TestApplyEditMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed + 4200))
		b := randTable(rng, "b", 1+rng.Intn(3), rng.Intn(40))
		b.Base, b.lin, b.ColOrigin = true, lineageCols{}, nil
		old := deriveWide(b)
		before := old.Clone()
		e := randEdit(rng, b.NumRows())
		e.Shift = map[string][]int{"b": e.Removed, "c": nil}
		want := deriveWide(rebuild(rng, b, e))
		dirty, err := e.Dirty(want.NumRows())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		repl, err := SliceRows(want, dirty)
		if err != nil {
			t.Fatal(err)
		}
		in := old
		if seed%4 == 0 {
			in, _ = segSpill(t, old, 1+rng.Intn(9))
		}
		got, err := ApplyEdit(in, e, repl)
		if err != nil {
			t.Fatalf("seed %d: %+v: %v", seed, e, err)
		}
		requireSameTable(t, fmt.Sprintf("seed %d edit %+v", seed, e), got, want)
		requireSameTable(t, fmt.Sprintf("seed %d old version", seed), old, before)
	}
}

// publish has readers build every index tb's version keeps: each
// column's join index and dictionary.
func publish(t *testing.T, tb *Table) {
	t.Helper()
	for ci := range tb.Schema.Columns {
		tb.hashIndex(ci, tb.column(ci))
		codes(t, tb, ci)
	}
}

// TestApplyEditChainCarriesResident: a chain of random edits over a frozen
// derived table — half of them appends, which grow the version's arrays in
// place — with every part published on each version before the next is
// built. Each successor equals deriving it again, passes VerifyResident, and
// so does a second successor of the same version (a rolled-back delta's
// retry, which copies); every earlier version still reads byte-identically.
func TestApplyEditChainCarriesResident(t *testing.T) {
	type version struct {
		tb, rows *Table
		vals     [][]Value
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 3200))
		b := randTable(rng, "b", 1+rng.Intn(3), rng.Intn(40))
		b.Base, b.lin, b.ColOrigin = true, lineageCols{}, nil
		cur := deriveWide(b)
		var seen []version
		for step := 0; step < 8; step++ {
			cur.Freeze()
			publish(t, cur)
			rows, vals := snapshot(t, cur)
			seen = append(seen, version{cur, rows, vals})
			e := Edit{Appended: 1 + rng.Intn(6)}
			if rng.Intn(2) == 0 {
				e = randEdit(rng, b.NumRows())
				e.Shift = map[string][]int{"b": e.Removed}
			}
			next, nb := editWide(t, rng, cur, b, e)
			if rng.Intn(4) == 0 {
				rows, vals := snapshot(t, next)
				retry, _ := editWide(t, rng, cur, b, e)
				if err := verifyResident(retry); err != nil {
					t.Fatalf("seed %d step %d retry of %+v: %v", seed, step, e, err)
				}
				requireUnchanged(t, fmt.Sprintf("seed %d step %d: the first successor after the retry", seed, step), next, rows, vals)
			}
			if err := verifyResident(next); err != nil {
				t.Fatalf("seed %d step %d edit %+v: %v", seed, step, e, err)
			}
			for i, v := range seen {
				requireUnchanged(t, fmt.Sprintf("seed %d: version %d after version %d", seed, i, step+1), v.tb, v.rows, v.vals)
			}
			cur, b = next, nb
		}
	}
}

// BenchmarkApplyEdit is a delta's edit of the wide table at benchmark size —
// 50k rows, stored, three lineage columns — by an append of
// 50 rows, which grows the version in place (its
// tail claim is handed back before each one), and by an update of 10 rows,
// which copies it. append-group is the render after an insert delta: the
// same append to a version whose grouping by key is published (the claims
// on its tail and dictionary handed back before each one), which carries
// the grouping, then a GroupBy of the successor, which reads it.
func BenchmarkApplyEdit(b *testing.B) {
	const n = 50000
	star := func(i int) LineageSet {
		return LineageSet{{Table: "drugcost", Row: (i * 7) % 25}, {Table: "prescriptions", Row: i}, {Table: "residents", Row: (i * 31) % 5000}}
	}
	tb := linTable("rx_wide", n, 25, star)
	tb.Freeze()
	v0, err := ApplyEdit(tb, Edit{Appended: 1}, linTable("rx_wide", 1, 25, func(int) LineageSet { return star(n) }))
	if err != nil {
		b.Fatal(err)
	}
	updated := make([]int, 10)
	for i := range updated {
		updated[i] = i * (n / 10)
	}
	for _, bc := range []struct {
		name string
		e    Edit
		repl *Table
	}{
		{"append", Edit{Appended: 50}, linTable("rx_wide", 50, 25, func(i int) LineageSet { return star(n + 1 + i) })},
		{"update", Edit{Updated: updated}, linTable("rx_wide", 10, 25, func(i int) LineageSet { return star(updated[i]) })},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v0.tail.Store(false)
				out, err := ApplyEdit(v0, bc.e, bc.repl)
				if err != nil || out.res == nil || out.vecs == nil {
					b.Fatalf("%v, resident %+v", err, out.res)
				}
			}
		})
	}
	if _, err := GroupBy(v0, []string{"key"}, residentAggs); err != nil {
		b.Fatal(err)
	}
	// The version after v0 has its dictionary codes copied with room behind
	// them, as a delta's versions do.
	v1, err := ApplyEdit(v0, Edit{Appended: 1}, linTable("rx_wide", 1, 25, func(int) LineageSet { return star(n + 1) }))
	if err != nil {
		b.Fatal(err)
	}
	repl := linTable("rx_wide", 50, 25, func(i int) LineageSet { return star(n + 2 + i) })
	b.Run("append-group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v1.tail.Store(false)
			v1.res.dict[0].Load().claimed.Store(false)
			out, err := ApplyEdit(v1, Edit{Appended: 50}, repl)
			if err != nil || grouped(out) == nil {
				b.Fatalf("%v: the append carried no grouping", err)
			}
			if _, err := GroupBy(out, []string{"key"}, residentAggs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestApplyEditSharesUntouchedLineage: only ordinals past the first lost
// base row are renumbered, in the one column of the table that lost it; a
// tail removal renumbers nobody.
func TestApplyEditSharesUntouchedLineage(t *testing.T) {
	b := NewBase("b", NewSchema(Col("v", TInt)))
	for i := 0; i < 10; i++ {
		b.AppendVals(Int(int64(i)))
	}
	old := deriveWide(b)
	got, err := ApplyEdit(old, Edit{Removed: []int{4}, Shift: map[string][]int{"b": {4}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		from := i
		if i >= 4 {
			from++
		}
		want := append(LineageSet(nil), old.RowLineage(from)...)
		want[1].Row = i // b#from becomes b#i
		if !reflect.DeepEqual(got.RowLineage(i), want) {
			t.Errorf("row %d: lineage %v, want %v", i, got.RowLineage(i), want)
		}
	}
	tail, err := ApplyEdit(old, Edit{Removed: []int{8, 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tail.NumRows(); i++ {
		if !reflect.DeepEqual(tail.RowLineage(i), old.RowLineage(i)) {
			t.Errorf("tail removal rewrote the lineage of row %d: %v, was %v", i, tail.RowLineage(i), old.RowLineage(i))
		}
	}
}

func TestApplyEditRejectsMalformedScripts(t *testing.T) {
	b := NewBase("b", NewSchema(Col("v", TInt)))
	for i := 0; i < 6; i++ {
		b.AppendVals(Int(int64(i)))
	}
	old := deriveWide(b)
	one, err := SliceRows(old, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	other := &Table{Name: "x", Schema: NewSchema(Col("w", TString)), Rows: []Row{{Str("w")}}}
	cases := []struct {
		name string
		e    Edit
		repl *Table
		want string
	}{
		{"unsorted removals", Edit{Removed: []int{3, 1}}, nil, "removes row"},
		{"repeated removal", Edit{Removed: []int{2, 2}}, nil, "removes row"},
		{"removal out of range", Edit{Removed: []int{6}}, nil, "removes row"},
		{"more removals than rows", Edit{Removed: []int{0, 1, 2, 3, 4, 5, 6}}, nil, "does not lead"},
		{"updated and removed", Edit{Removed: []int{2}, Updated: []int{2}}, one, "updates row"},
		{"unsorted updates", Edit{Updated: []int{2, 2}}, concat(t, one, one), "updates row"},
		{"missing rows", Edit{Updated: []int{1}, Appended: 1}, one, "brings 1 rows"},
		{"rows nobody asked for", Edit{}, one, "brings 1 rows"},
		{"another schema", Edit{Appended: 1}, other, "schema mismatch"},
		{"kept row of a lost base row", Edit{Shift: map[string][]int{"b": {3}}}, nil, "derives from the removed b#3"},
	}
	for _, tc := range cases {
		if _, err := ApplyEdit(old, tc.e, tc.repl); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if !(Edit{}).Empty() || (Edit{Shift: map[string][]int{"b": {1}}}).Empty() {
		t.Error("Empty: the zero edit is empty, a lineage shift is not")
	}
}

func concat(t *testing.T, a, b *Table) *Table {
	t.Helper()
	out, err := ApplyEdit(a, Edit{Appended: b.NumRows()}, b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOrdinalsPlaceEveryOutputRow: the ordinals SelectOrdinals and
// JoinOrdinals report are exactly the input rows the output rows come
// from — running the operator over one input row at a time and
// concatenating reproduces output and ordinals — whatever the plan
// (single-key hash, multi-key hash, nested loop) and the storage.
func TestOrdinalsPlaceEveryOutputRow(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 7700))
		mem := randTable(rng, "t", 2+rng.Intn(2), rng.Intn(40))
		other := randTable(rng, "u", 2, rng.Intn(12))
		seg, _ := segSpill(t, mem, 1+rng.Intn(7))
		l0, r0, r1 := ColRefExpr(mem.Schema.Columns[0].Name), ColRefExpr("u."+other.Schema.Columns[0].Name), ColRefExpr("u."+other.Schema.Columns[1].Name)
		joinPreds := []Expr{
			Bin(OpEq, l0, r1),
			And(Bin(OpEq, l0, r1), Bin(OpEq, ColRefExpr(mem.Schema.Columns[1].Name), r0)),
			Bin(OpLe, l0, r1),
		}
		pred := randPredicate(rng, mem.Schema, rng.Intn(3))
		right := Rename(other, "u")
		for _, in := range []*Table{mem, seg} {
			label := fmt.Sprintf("seed %d segment=%v", seed, in == seg)
			sel, ord, err := SelectOrdinals(in, pred)
			ref, refErr := Select(mem, pred)
			requireSameOutcome(t, label+" select", sel, ref, err, refErr)
			if err == nil {
				idx := make([]int, len(ord))
				for k, o := range ord {
					idx[k] = int(o)
				}
				placed, err := SliceRows(mem, idx)
				if err != nil {
					t.Fatalf("%s: select ordinals %v: %v", label, ord, err)
				}
				placed.Name = ref.Name
				requireSameTable(t, label+" rows at the select ordinals", placed, ref)
			}
			for pi, jp := range joinPreds {
				for _, kind := range []JoinKind{InnerJoin, LeftJoin} {
					label := fmt.Sprintf("%s join pred %d kind %d", label, pi, kind)
					got, ord, err := JoinOrdinals(in, right, jp, kind)
					ref, refErr := Join(mem, right, jp, kind)
					requireSameOutcome(t, label, got, ref, err, refErr)
					if err != nil {
						continue
					}
					var wantOrd []int32
					var lin []LineageSet
					piecewise := newJoinShell(mem, right)
					for i := 0; i < mem.NumRows(); i++ {
						one, err := SliceRows(mem, []int{i})
						if err != nil {
							t.Fatal(err)
						}
						part, err := Join(one, right, jp, kind)
						if err != nil {
							t.Fatalf("%s: row %d alone: %v", label, i, err)
						}
						piecewise.Rows = append(piecewise.Rows, cells(part)...)
						for k := range part.NumRows() {
							wantOrd = append(wantOrd, int32(i))
							lin = append(lin, part.RowLineage(k))
						}
					}
					requireSameTable(t, label+" row by row", setLineage(piecewise, lin), ref)
					if fmt.Sprint(ord) != fmt.Sprint(wantOrd) && len(ord)+len(wantOrd) > 0 {
						t.Fatalf("%s: ordinals %v, want %v", label, ord, wantOrd)
					}
				}
			}
		}
	}
}
