package relation

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// dictTable is a derived table (k INT, s STRING, n INT) whose key columns
// hold every shape a dictionary codes: NULLs, and INT and FLOAT cells that
// MapKey collapses (1 and 1.0, 2 and 2.0) beside ones it does not (2.5).
func dictTable(n int) *Table {
	ks := []Value{Int(1), Float(1), Null(), Int(2), Float(2.5), Float(2), Int(-3)}
	ss := []Value{Str("a"), Null(), Str("b"), Str("a"), Str("")}
	t := &Table{Name: "d", Schema: NewSchema(Col("k", TInt), Col("s", TString), Col("n", TInt))}
	t.ColOrigin = []ColRefSet{{{Table: "src", Column: "k"}}, {{Table: "src", Column: "s"}}, {{Table: "src", Column: "n"}}}
	var lin []LineageSet
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, Row{ks[(i*5)%len(ks)], ss[(i*3)%len(ss)], Int(int64(i))})
		lin = append(lin, LineageSet{{Table: "dims", Row: (i * 7) % 11}, {Table: "facts", Row: i}})
	}
	return setLineage(t, lin)
}

var dictKeys = [][]string{{"k"}, {"s"}, {"k", "s"}, {"s", "k"}}

// TestGroupByDictionaryPath: over a frozen table GroupBy interns its keys
// through the version's dictionary; it must group exactly as the reference
// does over the same rows — first-seen order, NULL keys, INT and FLOAT cells
// that share a MapKey, two keys — including on a dictionary an update and a
// delete carried to the next version, whose codes are no longer first-seen.
func TestGroupByDictionaryPath(t *testing.T) {
	tb := dictTable(300)
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "n"}}
	check := func(label string, tb *Table) {
		t.Helper()
		for _, keys := range dictKeys {
			want, err := groupByRows(plainCopy(tb), keys, aggs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := GroupBy(tb, keys, aggs)
			requireSameOutcome(t, fmt.Sprintf("%s keys=%v", label, keys), got, want, err, nil)
			qualified := make([]string, len(keys))
			for i, k := range keys {
				qualified[i] = "v." + k
			}
			got, err = GroupBy(Rename(tb, "v"), qualified, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "v.n"}})
			requireSameOutcome(t, fmt.Sprintf("%s renamed keys=%v", label, keys), got, want, err, nil)
		}
		for ci := 0; ci < 2; ci++ {
			if tb.res.dict[ci].Load() == nil {
				t.Errorf("%s: GroupBy did not read column %d through the dictionary", label, ci)
			}
		}
		if err := verifyResident(tb); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	tb.Freeze()
	check("frozen", tb)

	// Row 0 takes a value no row held, so its code is the dictionary's
	// last; row 3 goes.
	repl := setLineage(&Table{Name: tb.Name, Schema: tb.Schema, Rows: []Row{{Float(9.5), Str("z"), Int(-1)}}},
		[]LineageSet{{{Table: "facts", Row: 0}}})
	next, err := ApplyEdit(tb, Edit{Removed: []int{3}, Updated: []int{0}}, repl)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 2; ci++ {
		if next.res.dict[ci].Load() == nil {
			t.Fatalf("the edit did not carry column %d's dictionary", ci)
		}
		if codes, _, _ := next.DistinctCodes(ci); codes[0] == 0 {
			t.Fatalf("column %d: the carried codes are first-seen; the case pins nothing", ci)
		}
	}
	check("carried", next)
}

// TestGroupByFirstRendersShareOneDictionary: two GroupBys over a version
// no one has read race to build its dictionaries; both group right, and one
// dictionary per column is published. Run it under -race.
func TestGroupByFirstRendersShareOneDictionary(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "n"}}
	for round := 0; round < 8; round++ {
		tb := dictTable(2000)
		keys := dictKeys[round%len(dictKeys)]
		want, err := groupByRows(plainCopy(tb), keys, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tb.Freeze()
		var got [2]*Table
		var errs [2]error
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w], errs[w] = GroupBy(Rename(tb, "v"), keys, aggs)
			}()
		}
		wg.Wait()
		for w := range got {
			requireSameOutcome(t, fmt.Sprintf("round %d reader %d", round, w), got[w], want, errs[w], nil)
		}
		if err := verifyResident(tb); err != nil {
			t.Error(err)
		}
	}
}

// fuzzLineageTable decodes data into a derived table (k, n) whose rows carry
// arbitrary ref sets: up to three refs each into three base tables, rows
// dense, sparse, negative or past int32, unsorted and repeated. Its lineage
// is stored by column when every ref is an ordinal, packed otherwise.
func fuzzLineageTable(data []byte) *Table {
	t := &Table{Name: "f", Schema: NewSchema(Col("k", TInt), Col("n", TInt))}
	t.ColOrigin = []ColRefSet{{{Table: "a", Column: "k"}}, {{Table: "a", Column: "n"}}}
	keys := []Value{Int(0), Int(1), Float(1), Null(), Str("x"), Int(2)}
	var lin []LineageSet
	for i := 0; len(data) >= 2 && i < 200; i++ {
		key, nrefs := data[0], int(data[1]%4)
		data = data[2:]
		var set LineageSet
		for r := 0; r < nrefs && len(data) >= 2; r++ {
			row := int(data[1])
			switch data[0] >> 6 {
			case 1:
				row = -row - 1
			case 2:
				row += math.MaxInt32 - 100
			case 3:
				row *= 977
			}
			set = append(set, RowRef{Table: string(rune('a' + data[0]%3)), Row: row})
			data = data[2:]
		}
		t.Rows = append(t.Rows, Row{keys[int(key)%len(keys)], Int(int64(i))})
		lin = append(lin, set.normalize())
	}
	return setLineage(t, lin)
}

// headOf is the first n rows of t under t's name, schema, base flag and
// origins, their lineage t's.
func headOf(t *Table, n int) *Table {
	h := &Table{Name: t.Name, Schema: t.Schema, Base: t.Base, ColOrigin: t.ColOrigin, Rows: cells(t)[:n:n]}
	h.shareLineage(t, n)
	return h
}

// FuzzGroupLineage: packed lineage built from arbitrary per-row ref sets —
// read by column or packed, fed whole or in two pieces, frozen or not —
// materializes to exactly what the reference GroupBy gathers and
// normalizes, and what the emit before packing wrote (emitGroupLineage);
// grouping a frozen copy twice, the second time through the grouping the
// first published, equals grouping the unfrozen table; every operator fed
// the input, and fed the grouped table, equals the same operator fed the
// same lineage in the other form, and the reference fed either; and Freeze
// keeps the form a table has. Grouping a frozen head of the table, then
// appending the rest through ApplyEdit, the successor groups through the
// grouping the append carried exactly as the table does unfrozen.
func FuzzGroupLineage(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 1, 2, 2, 3, 1, 2, 0, 1, 65, 9, 0, 1, 2, 0, 130, 7, 1, 3, 0, 5, 192, 4, 2, 9})
	f.Add([]byte{3, 1, 0, 0, 3, 1, 0, 0, 4, 2, 1, 200, 1, 100, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := fuzzLineageTable(data)
		requireOperatorsAgree(t, tab)
		requireOperatorsAgree(t, storedTwin(tab))
		aggs := []AggSpec{{Kind: AggCount}}
		for _, keys := range [][]string{{"k"}, nil} {
			want, err := groupByRows(tab, keys, aggs)
			if err != nil {
				t.Fatal(err)
			}
			// The emit GroupBy had before packing, over each group's refs
			// gathered in row order.
			var order []string
			gathered := map[string]LineageSet{}
			for ri, r := range tab.Rows {
				gk := ""
				if keys != nil {
					gk = r[0].Key()
				}
				if _, ok := gathered[gk]; !ok {
					order = append(order, gk)
				}
				gathered[gk] = append(gathered[gk], tab.RowLineage(ri)...)
			}
			frozen := plainCopy(tab)
			frozen.Freeze()
			for _, in := range []*Table{tab, frozen, frozen, twinOf(tab)} {
				got, err := GroupBy(in, keys, aggs)
				requireSameOutcome(t, fmt.Sprintf("keys=%v", keys), got, want, err, nil)
				requirePartsMatch(t, got)
				for gi, gk := range order {
					if emitted := emitGroupLineage(gathered[gk]); !reflect.DeepEqual(got.RowLineage(gi), emitted) {
						t.Fatalf("group %d: packed lineage %v, the old emit %v", gi, got.RowLineage(gi), emitted)
					}
				}
			}
			cut := len(tab.Rows) / 2
			st, err := NewGroupByState(tab, keys, aggs)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AddTable(headOf(tab, cut)); err != nil {
				t.Fatal(err)
			}
			mid := st.Result()
			snapshot := mid.Clone()
			tail, err := SliceRows(tab, seq(cut, len(tab.Rows)))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AddTable(tail); err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, "fed in two pieces", st.Result(), want)
			requireSameTable(t, "emitted table after further feeding", mid, snapshot)

			packed, err := GroupBy(tab, keys, aggs)
			if err != nil {
				t.Fatal(err)
			}
			requireOperatorsAgree(t, packed)
			packed.Freeze()
			if packed.packed == nil {
				t.Fatal("Freeze unpacked the lineage")
			}
			requireSameTable(t, "frozen", packed, want)
		}

		// Group a frozen head of the table, append the rest through
		// ApplyEdit: the successor groups through the grouping the append
		// carried as the table does unfrozen, and the head's stays as it was.
		cut := len(tab.Rows) / 3
		head := headOf(tab, cut)
		head.Freeze()
		if _, err := GroupBy(head, []string{"k"}, aggs); err != nil {
			t.Fatal(err)
		}
		before := fmt.Sprint(*head.res.groups[0].Load())
		tail, err := SliceRows(tab, seq(cut, len(tab.Rows)))
		if err != nil {
			t.Fatal(err)
		}
		next, err := ApplyEdit(head, Edit{Appended: len(tab.Rows) - cut}, tail)
		if err != nil {
			t.Fatal(err)
		}
		if next.res.groups[0].Load() == nil {
			t.Fatal("the append carried no grouping")
		}
		want, err := GroupBy(plainCopy(next), []string{"k"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GroupBy(next, []string{"k"}, aggs)
		requireSameOutcome(t, "appended to a grouped head", got, want, err, nil)
		if err := verifyResident(next); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(*head.res.groups[0].Load()) != before {
			t.Fatal("the append moved the head's grouping")
		}
	})
}

// seq returns lo, lo+1, … hi-1.
func seq(lo, hi int) []int {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}

// partsOf returns row i's lineage parts as LineageParts hands them out:
// per part its table, size and rows.
func partsOf(tb *Table, i int) []string {
	var parts []string
	tb.LineageParts(i, func(p LineagePart) bool {
		var rows []int
		p.Rows(func(r int) bool {
			rows = append(rows, r)
			return true
		})
		parts = append(parts, fmt.Sprintf("%s:%d:%v", p.Table, p.Len(), rows))
		return true
	})
	return parts
}

// TestLineagePartUnion: the union of a part in each form — one row, a run,
// a bitset — with a few rows below, inside, past or far past it, or already
// in it, holds exactly the rows of both; a part that held them all comes
// back as it was, and neither part is written.
func TestLineagePartUnion(t *testing.T) {
	packOf := func(rows ...int) LineagePart {
		var sc lineageScratch
		k := sc.bucket("a")
		sc.rows[k] = append(sc.rows[k], rows...)
		return sc.pack()[0]
	}
	rowsOf := func(p LineagePart) (rows []int) {
		p.Rows(func(r int) bool {
			rows = append(rows, r)
			return true
		})
		return rows
	}
	one, bitset, run := LineagePart{Table: "a", n: 1, base: 130}, packOf(130, 131, 190, 200), packOf(130, 5000, 90000)
	if bitset.words == nil || run.rows == nil {
		t.Fatalf("bitset %+v, run %+v: the cases pin nothing", bitset, run)
	}
	for _, p := range []LineagePart{one, bitset, run} {
		for _, add := range [][]int{{130}, {3}, {131, 160}, {-70, 129, 250}, {1 << 20}} {
			q := packOf(add...)
			was, wasQ := fmt.Sprint(p), fmt.Sprint(q)
			got := p.union(q)
			want := append(rowsOf(p), add...)
			slices.Sort(want)
			want = slices.Compact(want)
			if !slices.Equal(rowsOf(got), want) || got.Len() != len(want) || got.Table != "a" {
				t.Errorf("%v ∪ %v = %v (%d rows), want %v", rowsOf(p), add, rowsOf(got), got.Len(), want)
			}
			if fmt.Sprint(p) != was || fmt.Sprint(q) != wasQ {
				t.Errorf("%v ∪ %v wrote a part", rowsOf(p), add)
			}
			if len(want) == p.Len() && fmt.Sprint(got) != was {
				t.Errorf("%v ∪ %v: the part holding every row came back as %+v", rowsOf(p), add, got)
			}
		}
	}
}

// requirePartsMatch fails unless every row's lineage parts are its lineage
// set cut by table: tables ascending, rows ascending, sizes right.
func requirePartsMatch(t *testing.T, tb *Table) {
	t.Helper()
	for i := range tb.Rows {
		var got LineageSet
		n := 0
		tb.LineageParts(i, func(p LineagePart) bool {
			n += p.Len()
			p.Rows(func(r int) bool {
				got = append(got, RowRef{Table: p.Table, Row: r})
				return true
			})
			return true
		})
		if want := tb.RowLineage(i); !reflect.DeepEqual(got, want) || n != len(want) {
			t.Fatalf("row %d: parts hold %v (%d refs), the lineage %v", i, got, n, want)
		}
	}
}

// twinOf is x with the same lineage sets stored in the other form: packed
// for a table kept by column or implicit, by column for a packed one (or
// packed again when its refs do not fit a column).
func twinOf(x *Table) *Table {
	twin := &Table{Name: x.Name, Schema: x.Schema, ColOrigin: x.ColOrigin, Rows: cells(x)}
	lin := make([]LineageSet, x.NumRows())
	for i := range lin {
		lin[i] = x.RowLineage(i)
	}
	if x.packed != nil {
		return setLineage(twin, lin)
	}
	twin.packed = packedRows(x)
	return twin
}

// requireOperatorsAgree feeds every operator x and its twin, the same
// lineage in the other form, and fails unless the outputs agree; an
// operator with a row-at-a-time reference must also agree with it.
func requireOperatorsAgree(t *testing.T, x *Table) {
	t.Helper()
	twin := twinOf(x)
	other := &Table{Name: "o", Schema: NewSchema(Col(x.Schema.Columns[0].Name, TInt)), Base: true}
	for i := 0; i < 4; i++ {
		other.AppendVals(Int(int64(i)))
	}
	key := x.Schema.Columns[0].Name
	selfJoin := Eq(ColRefExpr("l."+key), ColRefExpr("r."+key))
	ops := []struct {
		name string
		op   func(*Table) (*Table, error)
		ref  func(*Table) (*Table, error)
	}{
		{"select", func(x *Table) (*Table, error) { return Select(x, Bin(OpGt, ColRefExpr(key), Lit(Int(0)))) },
			func(x *Table) (*Table, error) { return selectRows(x, Bin(OpGt, ColRefExpr(key), Lit(Int(0)))) }},
		{"select by row", func(x *Table) (*Table, error) {
			return Select(x, Bin(OpGt, Bin(OpAdd, ColRefExpr(key), Lit(Int(0))), Lit(Int(0))))
		}, nil},
		{"project", func(x *Table) (*Table, error) { return ProjectCols(x, key) },
			func(x *Table) (*Table, error) { return projectRows(x, P(key)) }},
		{"extend", func(x *Table) (*Table, error) {
			return Extend(x, "twice", Bin(OpMul, ColRefExpr(key), Lit(Int(2))))
		}, func(x *Table) (*Table, error) {
			return extendRows(x, "twice", Bin(OpMul, ColRefExpr(key), Lit(Int(2))))
		}},
		{"sort", func(x *Table) (*Table, error) { return Sort(x, SortKey{Col: key, Desc: true}) }, nil},
		{"limit", func(x *Table) (*Table, error) { return Limit(x, 3), nil }, nil},
		{"distinct", func(x *Table) (*Table, error) { return Distinct(x), nil },
			func(x *Table) (*Table, error) { return distinctRows(x), nil }},
		{"union", func(x *Table) (*Table, error) { return Union(x, x) }, nil},
		{"union with another base", func(x *Table) (*Table, error) {
			p, err := ProjectCols(x, key)
			if err != nil {
				return nil, err
			}
			return Union(p, other)
		}, nil},
		{"union of both forms", func(x *Table) (*Table, error) { return Union(x, twin) }, nil},
		{"rename", func(x *Table) (*Table, error) { return Rename(x, "r"), nil }, nil},
		{"group", func(x *Table) (*Table, error) {
			return GroupBy(x, []string{key}, []AggSpec{{Kind: AggCount, As: "n"}})
		}, func(x *Table) (*Table, error) {
			return groupByRows(x, []string{key}, []AggSpec{{Kind: AggCount, As: "n"}})
		}},
		{"join left", func(x *Table) (*Table, error) {
			return Join(Rename(x, "l"), Rename(other, "r"), selfJoin, LeftJoin)
		}, func(x *Table) (*Table, error) {
			return joinRows(Rename(x, "l"), Rename(other, "r"), selfJoin, LeftJoin)
		}},
		{"join right", func(x *Table) (*Table, error) {
			return Join(Rename(other, "l"), Rename(x, "r"), selfJoin, InnerJoin)
		}, func(x *Table) (*Table, error) {
			return joinRows(Rename(other, "l"), Rename(x, "r"), selfJoin, InnerJoin)
		}},
		{"self-join", func(x *Table) (*Table, error) {
			return Join(Rename(x, "l"), Rename(x, "r"), selfJoin, LeftJoin)
		}, func(x *Table) (*Table, error) {
			return joinRows(Rename(x, "l"), Rename(x, "r"), selfJoin, LeftJoin)
		}},
		{"slice", func(x *Table) (*Table, error) { return SliceRows(x, []int{x.NumRows() - 1, 0}) }, nil},
		{"append derived", func(x *Table) (*Table, error) {
			out := x.Shell()
			for i := x.NumRows() - 1; i >= 0; i-- {
				out.AppendDerived(x.Row(i).Clone(), x, i)
			}
			return out, nil
		}, nil},
	}
	for _, o := range ops {
		if x.NumRows() == 0 && o.name == "slice" {
			continue
		}
		got, gerr := o.op(x)
		want, werr := o.op(twin)
		requireSameOutcome(t, o.name+" over both lineage forms", got, want, gerr, werr)
		if o.ref != nil {
			want, werr = o.ref(x)
			requireSameOutcome(t, o.name+" against the reference", got, want, gerr, werr)
		}
	}
}

// TestAppendRejectsDerived: a derived table's rows come with their lineage,
// so Append refuses one — a projection, a grouped table, an empty derived
// table — and leaves it as it was.
func TestAppendRejectsDerived(t *testing.T) {
	b := NewBase("b", NewSchema(Col("x", TInt)))
	b.AppendVals(Int(1))
	b.AppendVals(Int(2))
	proj, err := ProjectCols(b, "x")
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := GroupBy(b, []string{"x"}, []AggSpec{{Kind: AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	empty := &Table{Name: "d", Schema: NewSchema(Col("x", TInt))}
	for _, tb := range []*Table{proj, grouped, empty} {
		n := tb.NumRows()
		want := lineageOf(tb)
		if err := tb.AppendVals(Int(3)); err == nil || !strings.Contains(err.Error(), "derived table") {
			t.Errorf("%s: Append to a derived table: err = %v", tb.Name, err)
		}
		if tb.NumRows() != n || !reflect.DeepEqual(lineageOf(tb), want) {
			t.Errorf("%s: a refused Append changed the table: %d rows, lineage %v", tb.Name, tb.NumRows(), lineageOf(tb))
		}
	}
	if err := b.AppendVals(Int(3)); err != nil || !reflect.DeepEqual(b.RowLineage(2), LineageSet{{Table: "b", Row: 2}}) {
		t.Errorf("Append to a base table: %v, lineage %v", err, b.RowLineage(2))
	}
}

// cellBytes is the bytes a row of schema s takes in typed vectors without
// nulls: a string's dictionary code and a date's day take four, a bool
// one, a number eight.
func cellBytes(s *Schema) uint64 {
	var w uint64
	for _, c := range s.Columns {
		switch c.Type {
		case TString, TDate:
			w += 4
		case TBool:
			w++
		default:
			w += 8
		}
	}
	return w
}

// allocated returns the bytes fn allocates, after a collection.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// starTables returns a fact table of n rows and a 25-row lookup table its
// drug column references, both base tables.
func starTables(n int) (facts, lookup *Table) {
	facts = NewBase("facts", NewSchema(Col("id", TInt), Col("drug", TString)))
	for i := 0; i < n; i++ {
		facts.AppendVals(Int(int64(i)), Str(fmt.Sprintf("d%02d", i%25)))
	}
	lookup = NewBase("drugs", NewSchema(Col("name", TString), Col("cost", TInt)))
	for d := 0; d < 25; d++ {
		lookup.AppendVals(Str(fmt.Sprintf("d%02d", d)), Int(int64(d)))
	}
	return facts, lookup
}

// TestLineageAllocationBudget holds lineage to its ordinals, on one P: a
// foreign-key join of 50k rows allocates the typed vectors of its output's
// cells, the fact table's rows transposed on entry (it is a row literal),
// the two sides' ordinals, 4 bytes per row and base table for the lineage
// and a fixed slack; a Rename of a base table allocates nothing per row;
// LineageParts over a row of lineage columns allocates nothing.
func TestLineageAllocationBudget(t *testing.T) {
	const n = 50000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	facts, lookup := starTables(n)
	var out *Table
	join := allocated(func() {
		var err error
		out, _, err = JoinOrdinals(Rename(facts, "f"), Rename(lookup, "d"), Eq(ColRefExpr("f.drug"), ColRefExpr("d.name")), InnerJoin)
		if err != nil || out.NumRows() != n {
			t.Fatalf("JoinOrdinals = %v rows, %v", out.NumRows(), err)
		}
	})
	cells := n * (2*cellBytes(facts.Schema) + cellBytes(lookup.Schema))
	tables := uint64(len(out.lin.tables))
	const slack = 64 << 10
	t.Logf("join of %d rows over %d base tables allocated %d bytes; cells %d", n, tables, join, cells)
	if tables != 2 || join > cells+n*8+n*4*tables+slack {
		t.Errorf("join allocated %d bytes, more than its cells %d, 8 bytes of ordinals per row, %d per row and base table and %d slack", join, cells, 4*tables, slack)
	}

	if renamed := allocated(func() { Rename(facts, "f") }); renamed > 4<<10 {
		t.Errorf("Rename of a %d-row base table allocated %d bytes", n, renamed)
	}

	refs := 0
	count := func(p LineagePart) bool {
		refs += p.Len()
		return true
	}
	if allocs := testing.AllocsPerRun(100, func() { out.LineageParts(n/2, count) }); allocs != 0 || refs == 0 {
		t.Errorf("LineageParts over a row of lineage columns: %v allocations, %d refs", allocs, refs)
	}
}

// TestGroupingAllocationBudget holds a GroupBy by one key of a frozen table
// that reads a grouping to its output, on one P: over a 50k-row join with
// lineage columns, the second GroupBy reads the grouping the first published
// and allocates no more than 64 KB — no per-row list, no packed lineage,
// whatever the aggregates — and so does the first GroupBy over the version a
// 50-row append leads to, which reads the grouping the append carried. The
// append itself, made to a version the edit path built (so its arrays grow
// in place), allocates the new lineage parts of the groups it touched —
// here all 25, each a 783-word bitset of fact rows: 156 KB, rounded up by
// the allocator's size classes by at most an eighth — and at most 16 KB
// besides: 177 KB in all on amd64.
func TestGroupingAllocationBudget(t *testing.T) {
	const n, m, budget, slack = 50000, 50, 64 << 10, 16 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	facts, lookup := starTables(n + 1 + m)
	all, _, err := JoinOrdinals(Rename(facts, "f"), Rename(lookup, "d"), Eq(ColRefExpr("f.drug"), ColRefExpr("d.name")), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	wide := headOf(all, n)
	wide.Freeze()
	aggs := [][]AggSpec{{{Kind: AggCount}}, {{Kind: AggCount}, {Kind: AggSum, Col: "cost"}, {Kind: AggAvg, Col: "id"}}}
	group := func(tb *Table, aggs []AggSpec) func() {
		return func() {
			if out, err := GroupBy(tb, []string{"drug"}, aggs); err != nil || out.NumRows() != 25 {
				t.Fatalf("GroupBy = %v rows, %v", out.NumRows(), err)
			}
		}
	}
	for _, aggs := range aggs {
		first := allocated(group(wide, aggs))
		again := allocated(group(wide, aggs))
		t.Logf("GroupBy by drug of %d rows, %d aggregates: first %d bytes, again %d", n, len(aggs), first, again)
		if again > budget {
			t.Errorf("a repeat GroupBy of %d rows with %d aggregates allocated %d bytes, more than %d", n, len(aggs), again, budget)
		}
	}

	rows := func(lo, hi int) *Table {
		repl, err := SliceRows(all, seq(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		return repl
	}
	v0, err := ApplyEdit(wide, Edit{Appended: 1}, rows(n, n+1)) // copies, with room behind
	if err != nil {
		t.Fatal(err)
	}
	repl := rows(n+1, n+1+m)
	var v1 *Table
	edit := allocated(func() {
		if v1, err = ApplyEdit(v0, Edit{Appended: m}, repl); err != nil {
			t.Fatal(err)
		}
	})
	drug := wide.Schema.Index("drug")
	g0, g1 := v0.res.groups[drug].Load(), v1.res.groups[drug].Load()
	if g0 == nil || g1 == nil {
		t.Fatal("an append did not carry the grouping")
	}
	var parts uint64 // the bytes of the parts g1 does not share with g0
	for gi, gl := range g1.lineage {
		for j, p := range gl {
			if q := g0.lineage[gi][j]; len(p.words) > 0 && &p.words[0] != &q.words[0] || len(p.rows) > 0 && &p.rows[0] != &q.rows[0] {
				parts += 8 * uint64(len(p.words)+len(p.rows))
			}
		}
	}
	t.Logf("a %d-row append to %d rows allocated %d bytes, %d of them new lineage parts", m, n+1, edit, parts)
	if edit > parts+parts/8+slack {
		t.Errorf("a %d-row append allocated %d bytes: more than its %d bytes of new lineage parts, an eighth, and %d", m, edit, parts, slack)
	}
	if regroup := allocated(group(v1, aggs[1])); regroup > budget {
		t.Errorf("the first GroupBy after a %d-row append allocated %d bytes, more than %d", m, regroup, budget)
	}
}
