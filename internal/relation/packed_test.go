package relation

import (
	"fmt"
	"math"
	"reflect"
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
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, Row{ks[(i*5)%len(ks)], ss[(i*3)%len(ss)], Int(int64(i))})
		t.Lineage = append(t.Lineage, LineageSet{{Table: "facts", Row: i}, {Table: "dims", Row: (i * 7) % 11}})
	}
	return t
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
		if err := VerifyResident(tb); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	tb.Freeze()
	check("frozen", tb)

	// Row 0 takes a value no row held, so its code is the dictionary's
	// last; row 3 goes.
	repl := &Table{Name: tb.Name, Schema: tb.Schema, Rows: []Row{{Float(9.5), Str("z"), Int(-1)}},
		Lineage: []LineageSet{{{Table: "facts", Row: 0}}}}
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
		if err := VerifyResident(tb); err != nil {
			t.Error(err)
		}
	}
}

// fuzzLineageTable decodes data into a derived table (k, n) whose rows carry
// arbitrary ref sets: up to three refs each into three base tables, rows
// dense, sparse, negative or past int32, unsorted and repeated.
func fuzzLineageTable(data []byte) *Table {
	t := &Table{Name: "f", Schema: NewSchema(Col("k", TInt), Col("n", TInt))}
	t.ColOrigin = []ColRefSet{{{Table: "a", Column: "k"}}, {{Table: "a", Column: "n"}}}
	keys := []Value{Int(0), Int(1), Float(1), Null(), Str("x"), Int(2)}
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
		t.Lineage = append(t.Lineage, set.normalize())
	}
	return t
}

// FuzzGroupLineage: packed lineage built from arbitrary per-row ref sets
// materializes to exactly what the reference GroupBy gathers and
// normalizes, and what the emit before packing wrote (emitGroupLineage) —
// fed whole or in two pieces, frozen or not — every operator
// fed a packed table equals the same operator fed its materialized twin,
// and Freeze leaves no packed lineage behind.
func FuzzGroupLineage(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 1, 2, 2, 3, 1, 2, 0, 1, 65, 9, 0, 1, 2, 0, 130, 7, 1, 3, 0, 5, 192, 4, 2, 9})
	f.Add([]byte{3, 1, 0, 0, 3, 1, 0, 0, 4, 2, 1, 200, 1, 100, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := fuzzLineageTable(data)
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
			for _, in := range []*Table{tab, frozen} {
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
			head := &Table{Name: tab.Name, Schema: tab.Schema, ColOrigin: tab.ColOrigin, Rows: tab.Rows[:cut], Lineage: tab.Lineage[:cut]}
			tail := &Table{Name: tab.Name, Schema: tab.Schema, ColOrigin: tab.ColOrigin, Rows: tab.Rows[cut:], Lineage: tab.Lineage[cut:]}
			if err := st.AddTable(head); err != nil {
				t.Fatal(err)
			}
			mid := st.Result()
			snapshot := mid.Clone()
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
			if packed.packed != nil || packed.Lineage == nil && packed.NumRows() > 0 {
				t.Fatal("Freeze left the lineage packed")
			}
			requireSameTable(t, "frozen", packed, want)
		}
	})
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

// requireOperatorsAgree feeds every operator the packed table and its
// materialized twin and fails unless the outputs agree.
func requireOperatorsAgree(t *testing.T, packed *Table) {
	t.Helper()
	twin := packed.Clone()
	if packed.packed == nil || twin.packed != nil {
		t.Fatal("not a packed table and its materialized twin")
	}
	other := &Table{Name: "o", Schema: NewSchema(Col("count", TInt)), Base: true}
	for i := 0; i < 4; i++ {
		other.AppendVals(Int(int64(i)))
	}
	ops := []struct {
		name string
		op   func(*Table) (*Table, error)
	}{
		{"select", func(x *Table) (*Table, error) { return Select(x, Bin(OpGt, ColRefExpr("count"), Lit(Int(1)))) }},
		{"select by row", func(x *Table) (*Table, error) {
			return Select(x, Bin(OpGt, Bin(OpAdd, ColRefExpr("count"), Lit(Int(0))), Lit(Int(1))))
		}},
		{"project", func(x *Table) (*Table, error) { return ProjectCols(x, "count") }},
		{"extend", func(x *Table) (*Table, error) {
			return Extend(x, "twice", Bin(OpMul, ColRefExpr("count"), Lit(Int(2))))
		}},
		{"sort", func(x *Table) (*Table, error) { return Sort(x, SortKey{Col: "count", Desc: true}) }},
		{"limit", func(x *Table) (*Table, error) { return Limit(x, 3), nil }},
		{"distinct", func(x *Table) (*Table, error) { return Distinct(x), nil }},
		{"union", func(x *Table) (*Table, error) { return Union(x, x) }},
		{"rename", func(x *Table) (*Table, error) { return Rename(x, "r"), nil }},
		{"group", func(x *Table) (*Table, error) {
			return GroupBy(x, []string{"count"}, []AggSpec{{Kind: AggCount, As: "n"}})
		}},
		{"join left", func(x *Table) (*Table, error) {
			return Join(Rename(x, "l"), Rename(other, "r"), Eq(ColRefExpr("l.count"), ColRefExpr("r.count")), LeftJoin)
		}},
		{"join right", func(x *Table) (*Table, error) {
			return Join(Rename(other, "l"), Rename(x, "r"), Eq(ColRefExpr("l.count"), ColRefExpr("r.count")), InnerJoin)
		}},
		{"slice", func(x *Table) (*Table, error) { return SliceRows(x, []int{x.NumRows() - 1, 0}) }},
		{"append derived", func(x *Table) (*Table, error) {
			out := x.Shell()
			for i := x.NumRows() - 1; i >= 0; i-- {
				out.AppendDerived(x.Rows[i].Clone(), x, i)
			}
			return out, nil
		}},
	}
	for _, o := range ops {
		if packed.NumRows() == 0 && o.name == "slice" {
			continue
		}
		got, gerr := o.op(packed)
		want, werr := o.op(twin)
		requireSameOutcome(t, o.name+" over packed lineage", got, want, gerr, werr)
	}
}
