package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// The vectorized kernels must be observationally identical to the
// row-at-a-time reference implementations (ops_ref_test.go): same rows in
// the same order, same lineage sets, same column origins, same schema
// types, same errors. These property tests run each production operator
// beside its reference on randomized tables and predicates, and once more
// on workload-shaped inputs large enough to cross the kernels' arena
// boundaries.

// relOps is one implementation of the operators a pipeline composes.
type relOps struct {
	sel      func(*Table, Expr) (*Table, error)
	join     func(l, r *Table, pred Expr, kind JoinKind) (*Table, error)
	groupBy  func(*Table, []string, []AggSpec) (*Table, error)
	distinct func(*Table) *Table
	union    func(a, b *Table) (*Table, error)
	slice    func(*Table, []int) (*Table, error)
}

var (
	prodOps = relOps{Select, Join, GroupBy, Distinct, Union, SliceRows}
	refOps  = relOps{selectRows, joinRows, groupByRows, distinctRows, unionRows, sliceRowsRef}
)

// requireSameOutcome fails the test unless the two paths produced the
// same table (or the same error).
func requireSameOutcome(t *testing.T, label string, vec, row *Table, vecErr, rowErr error) {
	t.Helper()
	if (vecErr == nil) != (rowErr == nil) {
		t.Fatalf("%s: error mismatch: vectorized=%v row=%v", label, vecErr, rowErr)
	}
	if vecErr != nil {
		if vecErr.Error() != rowErr.Error() {
			t.Fatalf("%s: error text mismatch:\n  vectorized: %v\n  row:        %v", label, vecErr, rowErr)
		}
		return
	}
	requireSameTable(t, label, vec, row)
}

func requireSameTable(t *testing.T, label string, vec, row *Table) {
	t.Helper()
	if !reflect.DeepEqual(vec.Schema, row.Schema) {
		t.Fatalf("%s: schema mismatch:\n  vectorized: %v\n  row:        %v", label, vec.Schema, row.Schema)
	}
	vr, rr := cells(vec), cells(row)
	if len(vr) != len(rr) || vec.NumRows() != row.NumRows() {
		t.Fatalf("%s: row count mismatch: vectorized=%d row=%d", label, len(vr), len(rr))
	}
	for i := range vr {
		if !sameRow(vr[i], rr[i]) {
			t.Fatalf("%s: row %d mismatch:\n  vectorized: %v\n  row:        %v", label, i, vr[i], rr[i])
		}
	}
	for i := range vr {
		if got, want := vec.RowLineage(i), row.RowLineage(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lineage %d mismatch:\n  vectorized: %v\n  row:        %v", label, i, got, want)
		}
		if got, want := partsOf(vec, i), partsOf(row, i); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lineage parts %d mismatch:\n  vectorized: %v\n  row:        %v", label, i, got, want)
		}
	}
	if len(vec.ColOrigin) != len(row.ColOrigin) {
		t.Fatalf("%s: origin length mismatch: %d vs %d", label, len(vec.ColOrigin), len(row.ColOrigin))
	}
	for i := range vec.ColOrigin {
		if !reflect.DeepEqual(vec.ColOrigin[i], row.ColOrigin[i]) {
			t.Fatalf("%s: column origin %d mismatch:\n  vectorized: %v\n  row:        %v", label, i, vec.ColOrigin[i], row.ColOrigin[i])
		}
	}
	// Rendering covers Value.String of every cell.
	if vec.String() != row.String() {
		t.Fatalf("%s: rendered table mismatch:\n%s\nvs\n%s", label, vec.String(), row.String())
	}
}

// sameRow compares cells bitwise-for-floats: reflect.DeepEqual rejects
// NaN == NaN, but for equivalence purposes identical bit patterns are the
// same cell.
func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind {
			return false
		}
		switch x.Kind {
		case TFloat:
			if math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		default:
			if x != y {
				return false
			}
		}
	}
	return true
}

// randValue draws a value of roughly the given kind with a small domain so
// joins and groups collide often. Edge values (NaN, integral floats,
// negative zero, empty strings, ints that share a float64 image beyond
// 2^53) appear deliberately.
func randValue(rng *rand.Rand, kind Type) Value {
	if rng.Intn(8) == 0 {
		return Null()
	}
	switch kind {
	case TString:
		pool := []string{"", "a", "b", "ab", "HIV", "flu", "x y", "aspirin"}
		return Str(pool[rng.Intn(len(pool))])
	case TInt:
		pool := []int64{-3, -2, -1, 0, 1, 2, 3, 1 << 53, 1<<53 + 1}
		return Int(pool[rng.Intn(len(pool))])
	case TFloat:
		pool := []float64{0, math.Copysign(0, -1), 1, 2, 2.5, -3.25, 2, math.NaN(), math.Inf(1), 1e16}
		return Float(pool[rng.Intn(len(pool))])
	case TBool:
		return Bool(rng.Intn(2) == 0)
	case TDate:
		return DateYMD(2007, time.Month(1+rng.Intn(3)), 1+rng.Intn(5))
	default:
		return Null()
	}
}

// randTable builds a table with typed columns; with some probability a
// column is polluted with a mixed-kind value (schemas are advisory), and
// with some probability the table is derived with synthetic lineage.
func randTable(rng *rand.Rand, name string, nCols, nRows int) *Table {
	kinds := []Type{TString, TInt, TFloat, TBool, TDate}
	cols := make([]Column, nCols)
	colKinds := make([]Type, nCols)
	for c := 0; c < nCols; c++ {
		colKinds[c] = kinds[rng.Intn(len(kinds))]
		cols[c] = Column{Name: fmt.Sprintf("c%d", c), Type: colKinds[c]}
	}
	t := NewBase(name, &Schema{Columns: cols})
	for r := 0; r < nRows; r++ {
		row := make(Row, nCols)
		for c := 0; c < nCols; c++ {
			if rng.Intn(20) == 0 { // mixed-kind pollution
				row[c] = randValue(rng, kinds[rng.Intn(len(kinds))])
			} else {
				row[c] = randValue(rng, colKinds[c])
			}
		}
		t.Rows = append(t.Rows, row)
	}
	if rng.Intn(3) == 0 {
		deriveSynthetic(rng, t)
	}
	return t
}

// deriveSynthetic turns t into a derived table with synthetic multi-ref
// lineage — stored by column, or packed when t has an odd number of rows —
// and column origins.
func deriveSynthetic(rng *rand.Rand, t *Table) {
	nRows, nCols := len(t.Rows), t.Schema.Len()
	t.Base = false
	lin := make([]LineageSet, nRows)
	t.ColOrigin = make([]ColRefSet, nCols)
	for r := 0; r < nRows; r++ {
		var ls LineageSet
		for k := 0; k <= rng.Intn(3); k++ {
			ls = append(ls, RowRef{Table: "src" + string(rune('a'+rng.Intn(2))), Row: rng.Intn(10)})
		}
		lin[r] = ls.normalize()
	}
	setLineage(t, lin)
	if nRows%2 == 1 { // the same sets packed, as a grouped table keeps them
		packed := packedRows(t)
		t.lin, t.packed = lineageCols{}, packed
	}
	for c := 0; c < nCols; c++ {
		t.ColOrigin[c] = ColRefSet{{Table: "srca", Column: fmt.Sprintf("o%d", c)}}.normalize()
	}
}

// randCol draws a column reference over s, occasionally an unknown one to
// exercise error equivalence.
func randCol(rng *rand.Rand, s *Schema) Expr {
	if rng.Intn(12) == 0 {
		return ColRefExpr("no_such_col")
	}
	return ColRefExpr(s.Columns[rng.Intn(len(s.Columns))].Name)
}

func randLit(rng *rand.Rand) Expr {
	kinds := []Type{TString, TInt, TFloat, TBool, TDate}
	return Lit(randValue(rng, kinds[rng.Intn(len(kinds))]))
}

// randScalar builds a random non-predicate expression over s that no
// vector kernel takes: negation, concatenation, division and modulo (by
// zero included), and scalar calls at the right arity, at the wrong arity
// and to an unknown name.
func randScalar(rng *rand.Rand, s *Schema) Expr {
	unary := []string{"UPPER", "LOWER", "LENGTH", "TRIM", "ABS", "ROUND", "YEAR",
		"MONTH", "DAY", "QUARTER", "DATE", "CAST_INT", "CAST_FLOAT", "CAST_STRING"}
	switch rng.Intn(9) {
	case 0:
		return Neg(randCol(rng, s))
	case 1:
		return Bin(OpConcat, randCol(rng, s), randLit(rng))
	case 2, 3:
		rhs := randLit(rng)
		switch rng.Intn(3) {
		case 0:
			rhs = Lit(Int(0))
		case 1:
			rhs = randCol(rng, s)
		}
		return Bin([]BinOp{OpDiv, OpMod}[rng.Intn(2)], randCol(rng, s), rhs)
	case 4:
		return Fn("SUBSTR", randCol(rng, s), randLit(rng), randLit(rng))
	case 5:
		return Fn("COALESCE", randCol(rng, s), randCol(rng, s), randLit(rng))
	case 6:
		switch rng.Intn(3) {
		case 0:
			return Fn(unary[rng.Intn(len(unary))], randCol(rng, s), randLit(rng))
		case 1:
			return Fn("SUBSTR", randCol(rng, s))
		default:
			return Fn("NO_SUCH_FN", randCol(rng, s))
		}
	default:
		return Fn(unary[rng.Intn(len(unary))], randCol(rng, s))
	}
}

// randPredicate builds a random predicate over s, spanning both the
// kernel-supported shapes and fallback shapes that reach every node kind:
// arithmetic, random scalars, IS NULL over a non-column, NOT IN, and IN
// lists holding a column.
func randPredicate(rng *rand.Rand, s *Schema, depth int) Expr {
	col := func() Expr { return randCol(rng, s) }
	lit := func() Expr { return randLit(rng) }
	cmps := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	if depth <= 0 {
		switch rng.Intn(12) {
		case 0:
			return Bin(cmps[rng.Intn(len(cmps))], col(), col())
		case 1:
			return Bin(cmps[rng.Intn(len(cmps))], lit(), col())
		case 2:
			return IsNull(col())
		case 3:
			return IsNotNull(col())
		case 4:
			return &InExpr{E: col(), List: []Expr{lit(), lit(), lit()}, Negate: rng.Intn(3) == 0}
		case 5:
			return Bin(OpLike, col(), Lit(Str("a%")))
		case 6:
			// Arithmetic comparison: no kernel, exercises the bound
			// fallback.
			return Bin(cmps[rng.Intn(len(cmps))], Bin(OpAdd, col(), lit()), lit())
		case 7:
			return Bin(cmps[rng.Intn(len(cmps))], randScalar(rng, s), lit())
		case 8:
			return &IsNullExpr{E: randScalar(rng, s), Negate: rng.Intn(2) == 0}
		case 9:
			// A column in the list: no kernel.
			return &InExpr{E: col(), List: []Expr{lit(), col(), lit()}, Negate: rng.Intn(2) == 0}
		default:
			return Bin(cmps[rng.Intn(len(cmps))], col(), lit())
		}
	}
	switch rng.Intn(4) {
	case 0:
		return And(randPredicate(rng, s, depth-1), randPredicate(rng, s, depth-1))
	case 1:
		return Or(randPredicate(rng, s, depth-1), randPredicate(rng, s, depth-1))
	case 2:
		return Not(randPredicate(rng, s, depth-1))
	default:
		return randPredicate(rng, s, depth-1)
	}
}

// TestSelectEquivalence runs enough seeds that an int column compared with
// an int literal beyond 2^53 reaches both the kernel and the row path.
func TestSelectEquivalence(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randTable(rng, "t", 2+rng.Intn(3), rng.Intn(40))
		pred := randPredicate(rng, tab.Schema, rng.Intn(3))
		vec, ve := Select(tab, pred)
		row, re := selectRows(tab, pred)
		requireSameOutcome(t, fmt.Sprintf("select seed=%d pred=%s", seed, pred), vec, row, ve, re)
	}
}

func TestProjectExtendEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		tab := randTable(rng, "t", 3+rng.Intn(2), rng.Intn(40))
		cols := []ProjCol{
			P("c0"),
			PAs(Bin(OpAdd, ColRefExpr("c1"), Lit(Int(1))), "c1p"),
			PAs(Fn("COALESCE", ColRefExpr("c2"), Lit(Str("?"))), "c2c"),
		}
		if rng.Intn(6) == 0 {
			cols = append(cols, P("missing"))
		}
		vec, ve := Project(tab, cols...)
		row, re := projectRows(tab, cols...)
		requireSameOutcome(t, fmt.Sprintf("project seed=%d", seed), vec, row, ve, re)

		ext := randPredicate(rng, tab.Schema, 1)
		vec, ve = Extend(tab, "x", ext)
		row, re = extendRows(tab, "x", ext)
		requireSameOutcome(t, fmt.Sprintf("extend seed=%d expr=%s", seed, ext), vec, row, ve, re)

		sc := randScalar(rng, tab.Schema)
		vec, ve = Extend(tab, "y", sc)
		row, re = extendRows(tab, "y", sc)
		requireSameOutcome(t, fmt.Sprintf("extend seed=%d expr=%s", seed, sc), vec, row, ve, re)
	}
}

func TestJoinEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 2000))
		l := randTable(rng, "l", 2+rng.Intn(2), rng.Intn(25))
		r := randTable(rng, "r", 2+rng.Intn(2), rng.Intn(25))
		lq := Rename(l, "l")
		rq := Rename(r, "r")
		kind := InnerJoin
		if rng.Intn(3) == 0 {
			kind = LeftJoin
		}
		var pred Expr
		switch rng.Intn(5) {
		case 0: // single equi pair (reference fast path)
			pred = Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0"))
		case 1: // two pairs
			pred = And(Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0")),
				Eq(ColRefExpr("l.c1"), ColRefExpr("r.c1")))
		case 2: // pair + residual
			pred = And(Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0")),
				Bin(OpNe, ColRefExpr("l.c1"), Lit(Int(0))))
		case 3: // non-equi
			pred = Bin(OpLt, ColRefExpr("l.c0"), ColRefExpr("r.c1"))
		default: // pair + unsafe residual (unknown column -> nested loop)
			pred = And(Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0")),
				Eq(ColRefExpr("l.zzz"), Lit(Int(1))))
		}
		vec, ve := Join(lq, rq, pred, kind)
		row, re := joinRows(lq, rq, pred, kind)
		requireSameOutcome(t, fmt.Sprintf("join seed=%d kind=%d pred=%s", seed, kind, pred), vec, row, ve, re)
		// Either side, or both, stored as the catalog holds a table.
		for _, in := range [][2]*Table{{storedTwin(l), r}, {l, storedTwin(r)}, {storedTwin(l), storedTwin(r)}} {
			got, ge := Join(Rename(in[0], "l"), Rename(in[1], "r"), pred, kind)
			requireSameOutcome(t, fmt.Sprintf("join stored=%v,%v seed=%d kind=%d pred=%s", in[0] != l, in[1] != r, seed, kind, pred), got, row, ge, re)
		}

		// The hash paths must also agree with the nested-loop baseline
		// whenever the predicate is total (no unknown columns).
		if ve == nil && rng.Intn(5) != 4 {
			nl, nlErr := NestedLoopJoin(lq, rq, pred, kind)
			if nlErr != nil {
				t.Fatalf("join seed=%d: nested-loop baseline errored: %v", seed, nlErr)
			}
			if pred != nil {
				if _, _, single := equiJoinCols(pred, lq.Schema, rq.Schema); !single {
					requireSameTable(t, fmt.Sprintf("join-vs-nested seed=%d pred=%s", seed, pred), vec, nl)
				}
			}
		}

		// A self-join pairs each row with itself — one ref for a base row —
		// and with the other rows of its key; a NULL key misses.
		self := Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0"))
		stored := storedTwin(l)
		for _, kind := range []JoinKind{InnerJoin, LeftJoin} {
			vec, ve = Join(lq, Rename(l, "r"), self, kind)
			row, re = joinRows(lq, Rename(l, "r"), self, kind)
			requireSameOutcome(t, fmt.Sprintf("self-join seed=%d kind=%d", seed, kind), vec, row, ve, re)
			vec, ve = Join(Rename(stored, "l"), Rename(stored, "r"), self, kind)
			requireSameOutcome(t, fmt.Sprintf("stored self-join seed=%d kind=%d", seed, kind), vec, row, ve, re)
		}
		// An edit of the base table a self-join read, with a Shift: the
		// output rows naming a removed row go and the rest renumber, as
		// joining the edited base does.
		if !l.Base {
			continue
		}
		old, err := Join(lq, Rename(l, "r"), self, InnerJoin)
		if err != nil {
			t.Fatal(err)
		}
		var removed []int
		kept := NewBase(l.Name, l.Schema)
		for i, r := range l.Rows {
			if rng.Intn(3) == 0 {
				removed = append(removed, i)
			} else {
				kept.Rows = append(kept.Rows, r)
			}
		}
		e := Edit{Shift: map[string][]int{l.Name: removed}}
		for i := 0; i < old.NumRows(); i++ {
			if slices.ContainsFunc(old.RowLineage(i), func(ref RowRef) bool { return slices.Contains(removed, ref.Row) }) {
				e.Removed = append(e.Removed, i)
			}
		}
		want, err := joinRows(Rename(kept, "l"), Rename(kept, "r"), self, InnerJoin)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*Table{old, twinOf(old)} { // by column and packed
			got, err := ApplyEdit(in, e, nil)
			requireSameOutcome(t, fmt.Sprintf("self-join edited seed=%d packed=%v removed=%v", seed, in.packed != nil, removed), got, want, err, nil)
		}
	}
}

func TestGroupByEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 3000))
		tab := randTable(rng, "t", 4, rng.Intn(60))
		var keys []string
		for k := 0; k <= rng.Intn(3); k++ {
			keys = append(keys, fmt.Sprintf("c%d", rng.Intn(3)))
		}
		if rng.Intn(5) == 0 {
			keys = nil // implicit single group
		}
		aggs := []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Col: "c1"},
			{Kind: AggAvg, Col: "c2"},
			{Kind: AggMin, Col: "c3"},
			{Kind: AggMax, Col: "c3"},
			{Kind: AggCountDistinct, Col: "c0", As: "nd"},
		}
		if rng.Intn(8) == 0 {
			aggs = append(aggs, AggSpec{Kind: AggSum, Col: "missing"})
		}
		vec, ve := GroupBy(tab, keys, aggs)
		row, re := groupByRows(tab, keys, aggs)
		requireSameOutcome(t, fmt.Sprintf("groupby seed=%d keys=%v", seed, keys), vec, row, ve, re)
		// Frozen, the keys are read through the version's dictionary.
		frozen := plainCopy(tab)
		frozen.Freeze()
		vec, ve = GroupBy(frozen, keys, aggs)
		requireSameOutcome(t, fmt.Sprintf("groupby frozen seed=%d keys=%v", seed, keys), vec, row, ve, re)
	}
}

func TestDistinctEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 4000))
		tab := randTable(rng, "t", 1+rng.Intn(3), rng.Intn(60))
		requireSameTable(t, fmt.Sprintf("distinct seed=%d", seed), Distinct(tab), distinctRows(tab))
		// Over a self-join: two lineage columns of one table per row.
		j, err := Join(Rename(tab, "l"), Rename(tab, "r"), Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0")), LeftJoin)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProjectCols(j, "l.c0")
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, fmt.Sprintf("distinct self-join seed=%d", seed), Distinct(p), distinctRows(p))
	}
}

// TestPipelineEquivalence chains operators the way the SQL executor does:
// join, filter, group, distinct, sort — results must match end to end.
func TestPipelineEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 5000))
		l0 := randTable(rng, "lhs", 3, 5+rng.Intn(30))
		r0 := randTable(rng, "rhs", 3, 5+rng.Intn(15))
		l, r := l0, r0
		run := func(o relOps) (*Table, error) {
			j, err := o.join(Rename(l, "l"), Rename(r, "r"),
				Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0")), InnerJoin)
			if err != nil {
				return nil, err
			}
			f, err := o.sel(j, IsNotNull(ColRefExpr("l.c1")))
			if err != nil {
				return nil, err
			}
			g, err := o.groupBy(f, []string{"l.c0"}, []AggSpec{
				{Kind: AggCount, As: "n"}, {Kind: AggMin, Col: "l.c2", As: "lo"}})
			if err != nil {
				return nil, err
			}
			return Sort(o.distinct(g), SortKey{Col: "n", Desc: true}, SortKey{Col: "c0"})
		}
		vec, ve := run(prodOps)
		row, re := run(refOps)
		requireSameOutcome(t, fmt.Sprintf("pipeline seed=%d", seed), vec, row, ve, re)
		l, r = storedTwin(l0), storedTwin(r0) // the inputs as the catalog holds them
		vec, ve = run(prodOps)
		requireSameOutcome(t, fmt.Sprintf("pipeline over stored inputs seed=%d", seed), vec, row, ve, re)
		l, r = l0, r0

		// Unions of lineage by column with packed lineage, and of inputs
		// over different base tables; a slice of the packed result.
		mixed := func(o relOps) (*Table, error) {
			j, err := o.join(Rename(l, "l"), Rename(r, "r"), Eq(ColRefExpr("l.c0"), ColRefExpr("r.c0")), LeftJoin)
			if err != nil {
				return nil, err
			}
			g, err := o.groupBy(j, []string{"l.c0"}, []AggSpec{{Kind: AggCount, As: "n"}})
			if err != nil {
				return nil, err
			}
			jp, err := ProjectCols(j, "l.c0", "r.c1")
			if err != nil {
				return nil, err
			}
			u, err := o.union(jp, g)
			if err != nil {
				return nil, err
			}
			lp, err := ProjectCols(l, "c0", "c1")
			if err != nil {
				return nil, err
			}
			rp, err := ProjectCols(r, "c0", "c1")
			if err != nil {
				return nil, err
			}
			sides, err := o.union(lp, rp)
			if err != nil {
				return nil, err
			}
			all, err := o.union(sides, u)
			if err != nil {
				return nil, err
			}
			var idx []int
			for i := all.NumRows() - 1; i >= 0; i -= 2 {
				idx = append(idx, i)
			}
			s, err := o.slice(all, idx)
			if err != nil {
				return nil, err
			}
			return Sort(o.distinct(s), SortKey{Col: "c0"})
		}
		vec, ve = mixed(prodOps)
		row, re = mixed(refOps)
		requireSameOutcome(t, fmt.Sprintf("union pipeline seed=%d", seed), vec, row, ve, re)
		l, r = storedTwin(l0), storedTwin(r0)
		vec, ve = mixed(prodOps)
		requireSameOutcome(t, fmt.Sprintf("union pipeline over stored inputs seed=%d", seed), vec, row, ve, re)
	}
}

// workloadTables generates scenario-shaped inputs: a prescription fact
// table of n rows, a patient dimension of n/4 rows it references 1:N with
// a skewed fan-out, and a small drug dimension. Keys are what a warehouse
// has — Zipf-skewed strings, narrow ints, nullable foreign keys — and a
// float column carries NaNs so it can serve as a NaN join/group key.
func workloadTables(rng *rand.Rand, n int) (rx, patient, drug *Table) {
	const nDrugs = 40
	nPatients := n / 4
	drugZipf := rand.NewZipf(rng, 1.3, 2, nDrugs-1)
	patientZipf := rand.NewZipf(rng, 1.1, 8, uint64(nPatients-1))
	regions := []string{"north", "north", "north", "south", "south", "east", "west", ""}

	drug = NewBase("drug", NewSchema(Col("name", TString), Col("class", TString), Col("price", TFloat), Col("pack", TInt)))
	for d := 0; d < nDrugs; d++ {
		drug.AppendVals(Str(fmt.Sprintf("drug%02d", d)), Str(fmt.Sprintf("class%d", d%5)), Float(float64(1+d%9)*1.25), Int(int64(1+d%6)))
	}
	patient = NewBase("patient", NewSchema(Col("pid", TInt), Col("age", TInt), Col("region", TString), Col("doctor", TInt)))
	for i := 0; i < nPatients; i++ {
		doctor := Null()
		if rng.Intn(10) != 0 {
			doctor = Int(int64(rng.Intn(25)))
		}
		patient.AppendVals(Int(int64(i)), Int(int64(20+rng.Intn(60))), Str(regions[rng.Intn(len(regions))]), doctor)
	}
	rx = NewBase("rx", NewSchema(Col("id", TInt), Col("patient", TInt), Col("drug", TString),
		Col("year", TInt), Col("qty", TInt), Col("cost", TFloat), Col("day", TDate)))
	for i := 0; i < n; i++ {
		fk, name, cost := Int(int64(patientZipf.Uint64())), Str(fmt.Sprintf("drug%02d", drugZipf.Uint64())), Float(float64(rng.Intn(12))*2.5)
		if rng.Intn(20) == 0 {
			fk = Null()
		}
		if rng.Intn(50) == 0 {
			name = Null()
		}
		if rng.Intn(25) == 0 {
			cost = Float(math.NaN())
		}
		rx.AppendVals(Int(int64(i)), fk, name, Int(int64(2005+rng.Intn(4))), Int(int64(1+rng.Intn(6))), cost,
			DateYMD(2007, time.Month(1+rng.Intn(12)), 1+rng.Intn(28)))
	}
	return rx, patient, drug
}

// TestWorkloadShapedEquivalence runs the kernels beside the references on
// inputs the size and shape of a scenario warehouse rather than a ≤60-row
// random table, each input both a row literal and stored as the catalog
// holds it: the 1:N joins gather thousands of cells and lineage refs
// through skewed keys, the group-bys cross the key-index capacity hint and
// group multi-table lineage, and float keys include NaN.
func TestWorkloadShapedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed + 6000))
		rx, patient, drug := workloadTables(rng, 5000)
		rxq, pq, dq := Rename(rx, "rx"), Rename(patient, "p"), Rename(drug, "d")
		label := func(what string) string { return fmt.Sprintf("workload %s seed=%d", what, seed) }

		for i, pred := range []Expr{
			And(ColEqStr("drug", "drug00"), Bin(OpGe, ColRefExpr("year"), Lit(Int(2006)))), // kernel
			Or(IsNull(ColRefExpr("patient")), Bin(OpLike, ColRefExpr("drug"), Lit(Str("drug1%")))),
			Bin(OpGt, Bin(OpMul, ColRefExpr("qty"), ColRefExpr("cost")), Lit(Float(20))), // row fallback
			Bin(OpLe, ColRefExpr("cost"), Lit(Float(10))),                                // NaN cells
		} {
			vec, ve := Select(rx, pred)
			row, re := selectRows(rx, pred)
			requireSameOutcome(t, label(fmt.Sprintf("select[%d]", i)), vec, row, ve, re)
		}

		fk := Eq(ColRefExpr("rx.patient"), ColRefExpr("p.pid"))
		joins := []struct {
			name string
			l, r *Table
			pred Expr
			kind JoinKind
		}{
			{"fact-dim inner", rxq, pq, fk, InnerJoin},
			{"fact-dim left", rxq, pq, fk, LeftJoin}, // null FKs null-extend
			{"dim-fact 1:N left", pq, rxq, fk, LeftJoin},
			{"string key + residual", rxq, dq, And(Eq(ColRefExpr("rx.drug"), ColRefExpr("d.name")),
				Bin(OpGt, ColRefExpr("rx.qty"), Lit(Int(2)))), InnerJoin},
			{"two pairs", rxq, dq, And(Eq(ColRefExpr("rx.drug"), ColRefExpr("d.name")),
				Eq(ColRefExpr("rx.qty"), ColRefExpr("d.pack"))), LeftJoin},
			{"NaN key", rxq, dq, Eq(ColRefExpr("rx.cost"), ColRefExpr("d.price")), InnerJoin},
			// NaN under a multi-pair predicate sends the kernel to its
			// nested loop.
			{"NaN in two pairs", rxq, dq, And(Eq(ColRefExpr("rx.cost"), ColRefExpr("d.price")),
				Eq(ColRefExpr("rx.drug"), ColRefExpr("d.name"))), LeftJoin},
		}
		stored := map[*Table]*Table{rxq: Rename(storedTwin(rx), "rx"), pq: Rename(storedTwin(patient), "p"), dq: Rename(storedTwin(drug), "d")}
		for _, j := range joins {
			vec, ve := Join(j.l, j.r, j.pred, j.kind)
			row, re := joinRows(j.l, j.r, j.pred, j.kind)
			requireSameOutcome(t, label("join "+j.name), vec, row, ve, re)
			vec, ve = Join(stored[j.l], stored[j.r], j.pred, j.kind)
			requireSameOutcome(t, label("join over stored inputs "+j.name), vec, row, ve, re)
		}
		wide, err := Join(pq, rxq, fk, InnerJoin) // multi-table lineage per row
		if err != nil {
			t.Fatal(err)
		}
		frozen := plainCopy(wide) // keys through the dictionary, lineage through its columns
		frozen.Freeze()
		aggs := []AggSpec{
			{Kind: AggCount}, {Kind: AggSum, Col: "rx.qty"}, {Kind: AggAvg, Col: "rx.cost"},
			{Kind: AggMin, Col: "rx.day"}, {Kind: AggMax, Col: "rx.drug"},
			{Kind: AggCountDistinct, Col: "rx.patient", As: "patients"},
		}
		for _, keys := range [][]string{
			{"rx.drug"},                       // skewed string key
			{"rx.year", "p.region"},           // narrow int + string, packed key
			{"p.pid"},                         // > 1024 groups
			{"p.region", "rx.year", "rx.qty"}, // composite key
			{"rx.cost"},                       // NaN key
			nil,                               // one group holding every ref
		} {
			vec, ve := GroupBy(wide, keys, aggs)
			row, re := groupByRows(wide, keys, aggs)
			requireSameOutcome(t, label(fmt.Sprintf("groupby %v", keys)), vec, row, ve, re)
			vec, ve = GroupBy(frozen, keys, aggs)
			requireSameOutcome(t, label(fmt.Sprintf("groupby frozen %v", keys)), vec, row, ve, re)
		}

		lowCard, err := ProjectCols(wide, "rx.drug", "rx.year", "p.region", "rx.cost")
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, label("distinct"), Distinct(lowCard), distinctRows(lowCard))

		run := func(o relOps) (*Table, error) {
			j, err := o.join(pq, rxq, fk, InnerJoin)
			if err != nil {
				return nil, err
			}
			j, err = o.join(j, dq, Eq(ColRefExpr("rx.drug"), ColRefExpr("d.name")), LeftJoin)
			if err != nil {
				return nil, err
			}
			f, err := o.sel(j, Bin(OpGe, ColRefExpr("p.age"), Lit(Int(30))))
			if err != nil {
				return nil, err
			}
			g, err := o.groupBy(f, []string{"d.class", "rx.year"}, []AggSpec{
				{Kind: AggCount, As: "n"}, {Kind: AggCountDistinct, Col: "p.pid", As: "patients"},
				{Kind: AggSum, Col: "rx.cost", As: "spend"}})
			if err != nil {
				return nil, err
			}
			return Sort(o.distinct(g), SortKey{Col: "n", Desc: true}, SortKey{Col: "class"})
		}
		vec, ve := run(prodOps)
		row, re := run(refOps)
		requireSameOutcome(t, label("pipeline"), vec, row, ve, re)
		pq, rxq, dq = stored[pq], stored[rxq], stored[dq]
		vec, ve = run(prodOps)
		requireSameOutcome(t, label("pipeline over stored inputs"), vec, row, ve, re)
	}
}

// TestSafePredicate pins the planner gate: safe predicates resolve every
// column and scalar call; unsafe ones don't.
func TestSafePredicate(t *testing.T) {
	s := NewSchema(Col("a", TInt), Col("b", TString))
	cases := []struct {
		e    Expr
		safe bool
	}{
		{nil, true},
		{ColEqStr("b", "x"), true},
		{Eq(ColRefExpr("missing"), Lit(Int(1))), false},
		{Fn("UPPER", ColRefExpr("b")), true},
		{Fn("UPPER", ColRefExpr("b"), ColRefExpr("b")), false},
		{Fn("NOPE", ColRefExpr("b")), false},
		{And(ColEqStr("b", "x"), Bin(OpGt, ColRefExpr("a"), Lit(Int(0)))), true},
		{In(ColRefExpr("a"), Lit(Int(1)), Lit(Int(2))), true},
		{Bin(BinOp(99), ColRefExpr("a"), Lit(Int(1))), false},
	}
	for i, c := range cases {
		if got := SafePredicate(c.e, s); got != c.safe {
			t.Errorf("case %d (%v): SafePredicate=%v, want %v", i, c.e, got, c.safe)
		}
	}

	// Safe means no row of any table over the schema errors.
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed + 8000))
		tab := randTable(rng, "t", 2+rng.Intn(3), 1+rng.Intn(30))
		pred := randPredicate(rng, tab.Schema, rng.Intn(3))
		if !SafePredicate(pred, tab.Schema) {
			continue
		}
		for i, r := range tab.Rows {
			if _, err := EvalPredicate(pred, r, tab.Schema); err != nil {
				t.Fatalf("seed %d: safe predicate %s errored on row %d: %v", seed, pred, i, err)
			}
		}
	}
}

// TestBatchFilterKernels pins that the common predicate shapes actually
// take the kernel path (guarding against silent fallback regressions).
func TestBatchFilterKernels(t *testing.T) {
	tab := NewBase("t", NewSchema(Col("s", TString), Col("n", TInt)))
	tab.AppendVals(Str("a"), Int(1))
	tab.AppendVals(Str("b"), Int(2))
	tab.AppendVals(Null(), Int(3))
	b := NewBatch(tab)
	kernels := []Expr{
		ColEqStr("s", "a"),
		Bin(OpGt, ColRefExpr("n"), Lit(Int(1))),
		And(ColEqStr("s", "a"), Bin(OpLe, ColRefExpr("n"), Lit(Int(5)))),
		IsNull(ColRefExpr("s")),
		In(ColRefExpr("n"), Lit(Int(1)), Lit(Int(3))),
		Not(ColEqStr("s", "b")),
		Bin(OpLike, ColRefExpr("s"), Lit(Str("a%"))),
		Eq(ColRefExpr("s"), ColRefExpr("s")),
	}
	for i, e := range kernels {
		if _, ok, _ := b.Filter(e); !ok {
			t.Errorf("kernel %d (%s): expected vectorized support", i, e)
		}
	}
	if _, ok, _ := b.Filter(Bin(OpGt, Bin(OpAdd, ColRefExpr("n"), Lit(Int(1))), Lit(Int(1)))); ok {
		t.Error("arithmetic predicate should not claim kernel support")
	}
	sel, ok, _ := b.Filter(ColEqStr("s", "a"))
	if !ok || sel.Count() != 1 || !sel.Get(0) {
		t.Errorf("filter bitmap wrong: ok=%v count=%d", ok, sel.Count())
	}
}
