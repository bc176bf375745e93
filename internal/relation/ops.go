package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Select returns the rows of t satisfying pred, preserving lineage and
// column origins. Each scanned batch is filtered by the kernel and the
// selected rows concatenated in scan order, their lineage gathered from t
// by ordinal. The scan decodes the predicate's columns; a segment
// partition's other columns are decoded, and its rows built, only for the
// positions selected.
func Select(t *Table, pred Expr) (*Table, error) {
	out, _, err := SelectOrdinals(t, pred)
	return out, err
}

// SelectOrdinals is Select reporting, beside the selected rows, the
// ordinal in t of the row each one is: what a filter step retains to
// place a later edit of t in its output.
func SelectOrdinals(t *Table, pred Expr) (*Table, []int32, error) {
	out := t.derived(t.Name + "_sel")
	ord := []int32{}
	cols := predCols(pred, t.Schema)
	err := eachBatch(t, pred, func(b *Batch) error { return b.load(cols) }, func(b *Batch) error {
		var err error
		out.Rows, ord, err = selectVec(b, pred, out.Rows, ord)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	gatherLineage(out, t, ord)
	return out, ord, nil
}

// ProjCol describes one output column of a projection: an expression and an
// output name ("" derives the name from the expression).
type ProjCol struct {
	Expr Expr
	As   string
}

// P is a convenience constructor for a simple column projection.
func P(col string) ProjCol { return ProjCol{Expr: ColRefExpr(col)} }

// PAs is a convenience constructor for an aliased projection.
func PAs(e Expr, as string) ProjCol { return ProjCol{Expr: e, As: as} }

// outName computes the column name of a projection item.
func (p ProjCol) outName() string {
	if p.As != "" {
		return p.As
	}
	if c, ok := p.Expr.(*ColExpr); ok {
		return baseName(c.Name)
	}
	return p.Expr.String()
}

// Project evaluates the given projections for each row. Column origins of
// each output column are the union of origins of every input column the
// expression references; row lineage is preserved.
func Project(t *Table, cols ...ProjCol) (*Table, error) {
	t, err := t.Materialize()
	if err != nil {
		return nil, err
	}
	return projectVec(t, cols...)
}

// ProjectCols projects named columns in order.
func ProjectCols(t *Table, names ...string) (*Table, error) {
	cols := make([]ProjCol, len(names))
	for i, n := range names {
		cols[i] = P(n)
	}
	return Project(t, cols...)
}

// Extend appends one computed column to every row.
func Extend(t *Table, name string, e Expr) (*Table, error) {
	t, err := t.Materialize()
	if err != nil {
		return nil, err
	}
	return extendVec(t, name, e)
}

// Rename returns t with the table renamed and columns qualified by the new
// name; lineage and origins are preserved.
func Rename(t *Table, name string) *Table {
	out := t.derived(name)
	out.Schema = t.Schema.Qualify(name)
	out.res = t.res
	out.shareLineage(t, t.NumRows())
	out.Rows, out.seg = capped(t.Rows), t.seg
	return out
}

// JoinKind selects the join variant.
type JoinKind int

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
)

// Join performs a (hash-partitioned when possible) join of l and r on pred.
// Output columns are l's columns followed by r's; lineage of each output
// row is the union of the matched input rows' lineage. The right side is
// materialized and indexed once (it is the build side of every hash
// plan); the left side is scanned and probes that index batch by batch,
// so output order is left-major whatever the storage.
func Join(l, r *Table, pred Expr, kind JoinKind) (*Table, error) {
	return joinOrd(l, r, pred, kind, nil)
}

// joinOrd is Join; a non-nil ord also collects, per output row, the
// ordinal in l of its left row.
func joinOrd(l, r *Table, pred Expr, kind JoinKind, ord *[]int32) (*Table, error) {
	r, err := r.Materialize()
	if err != nil {
		return nil, err
	}
	out := newJoinShell(l, r)
	probe := joinProber(out, l, r, pred, kind, ord)
	rows := func(b *Batch) error { _, err := b.table(); return err }
	err = eachBatch(l, nil, rows, func(b *Batch) error {
		bt, err := b.table()
		if err != nil {
			return err
		}
		return probe(bt, b.start())
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// equiJoinCols recognizes predicates of the form lcol = rcol where lcol is
// in l's schema and rcol in r's (either order).
func equiJoinCols(pred Expr, l, r *Schema) (lc, rc int, ok bool) {
	be, isBin := pred.(*BinExpr)
	if !isBin || be.Op != OpEq {
		return 0, 0, false
	}
	a, aok := be.L.(*ColExpr)
	b, bok := be.R.(*ColExpr)
	if !aok || !bok {
		return 0, 0, false
	}
	if li, ri := l.Index(a.Name), r.Index(b.Name); li >= 0 && ri >= 0 && l.Index(b.Name) < 0 {
		return li, ri, true
	}
	if li, ri := l.Index(b.Name), r.Index(a.Name); li >= 0 && ri >= 0 && l.Index(a.Name) < 0 {
		return li, ri, true
	}
	return 0, 0, false
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota // COUNT(*) when Col == ""
	AggSum
	AggAvg
	AggMin
	AggMax
	AggCountDistinct
)

var aggNames = map[AggKind]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG",
	AggMin: "MIN", AggMax: "MAX", AggCountDistinct: "COUNT_DISTINCT",
}

// String returns the SQL spelling of the aggregate.
func (k AggKind) String() string { return aggNames[k] }

// AggSpec describes one aggregate output column.
type AggSpec struct {
	Kind AggKind
	Col  string // input column; "" only for COUNT(*)
	As   string // output name; "" derives one
}

func (a AggSpec) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Col == "" {
		return "count"
	}
	return strings.ToLower(a.Kind.String()) + "_" + baseName(a.Col)
}

func (a AggSpec) outType(s *Schema) Type {
	switch a.Kind {
	case AggCount, AggCountDistinct:
		return TInt
	case AggAvg:
		return TFloat
	default:
		if i := s.Index(a.Col); i >= 0 {
			return s.Columns[i].Type
		}
		return TFloat
	}
}

type aggState struct {
	n        int64
	sum      float64
	sumInt   int64
	allInt   bool
	min, max Value
	// distinct holds the COUNT(DISTINCT) value classes seen (ValKey
	// classes coincide with Value.Key() classes); allocated on first use.
	distinct map[ValKey]bool
}

// result finalizes one aggregate value from the accumulated state.
func (st *aggState) result(kind AggKind) Value {
	switch kind {
	case AggCount:
		return Int(st.n)
	case AggSum:
		if st.n == 0 {
			return Null()
		}
		if st.allInt {
			return Int(st.sumInt)
		}
		return Float(st.sum)
	case AggAvg:
		if st.n == 0 {
			return Null()
		}
		return Float(st.sum / float64(st.n))
	case AggMin:
		return st.min
	case AggMax:
		return st.max
	case AggCountDistinct:
		return Int(int64(len(st.distinct)))
	default:
		return Null()
	}
}

// GroupBy groups t by the key columns and computes the aggregates. The
// output schema is keys followed by aggregates. Row lineage of each group
// is the union of its members' lineage — the basis for the paper's
// aggregation-threshold enforcement (a group's base-row support is exactly
// the size of its patient-level lineage). Grouped by one column of a
// frozen in-memory table, it reads and publishes that version's grouping.
func GroupBy(t *Table, keys []string, aggs []AggSpec) (*Table, error) {
	st, err := NewGroupByState(t, keys, aggs)
	if err != nil {
		return nil, err
	}
	var slot *atomic.Pointer[grouping]
	if r := t.frozen(); r != nil && r.groups != nil && len(keys) == 1 {
		slot = &r.groups[st.keyIdx[0]]
		if g := slot.Load(); g != nil {
			return st.regroup(t, g), nil
		}
	}
	if err := st.AddTable(t); err != nil {
		return nil, err
	}
	if slot == nil {
		return st.Result(), nil
	}
	g := st.groupingOf(t)
	out := st.Result()
	g.lineage = slices.Clone(out.packed)
	slot.CompareAndSwap(nil, g)
	return out, nil
}

// Distinct removes duplicate rows; the surviving row's lineage is the union
// of all duplicates' lineage (the duplicates all "support" the output row).
func Distinct(t *Table) *Table {
	return distinctVec(t.mustMaterialize())
}

// Union appends the rows of b to a (schemas must be compatible), keeping
// duplicates (UNION ALL semantics); wrap with Distinct for set union.
func Union(a, b *Table) (*Table, error) {
	a, err := a.Materialize()
	if err != nil {
		return nil, err
	}
	b, err = b.Materialize()
	if err != nil {
		return nil, err
	}
	if a.Schema.Len() != b.Schema.Len() {
		return nil, fmt.Errorf("relation: union arity mismatch: %s vs %s", a.Schema, b.Schema)
	}
	out := a.derived(a.Name + "_union")
	for c := range out.ColOrigin {
		out.ColOrigin[c] = out.ColOrigin[c].Union(b.ColumnOrigin(c))
	}
	out.Rows = append(append(out.Rows, a.Rows...), b.Rows...)
	if a.packed != nil || b.packed != nil {
		out.packed = slices.Concat(packedRows(a), packedRows(b))
		return out, nil
	}
	ac, bc := a.columns(), b.columns()
	tables, ai, bi := alignTables(ac.tables, bc.tables)
	out.lin = lineageCols{tables: tables, cols: make([][]int32, len(tables))}
	for k := range tables {
		out.lin.cols[k] = slices.Concat(ac.column(ai[k], len(a.Rows)), bc.column(bi[k], len(b.Rows)))
	}
	return out, nil
}

// SortKey describes one ORDER BY term.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort orders the table by the given keys (stable).
func Sort(t *Table, keys ...SortKey) (*Table, error) {
	t, err := t.Materialize()
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(keys))
	for i, k := range keys {
		ci := t.Schema.Index(k.Col)
		if ci < 0 {
			return nil, fmt.Errorf("relation: sort key %q not in %s", k.Col, t.Schema)
		}
		idx[i] = ci
	}
	out := t.derived(t.Name + "_sort")
	perm := make([]int, len(t.Rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := t.Rows[perm[a]], t.Rows[perm[b]]
		for i, ci := range idx {
			va, vb := ra[ci], rb[ci]
			// NULLs sort first.
			if va.IsNull() && vb.IsNull() {
				continue
			}
			if va.IsNull() {
				return !keys[i].Desc
			}
			if vb.IsNull() {
				return keys[i].Desc
			}
			c, ok := va.Compare(vb)
			if !ok || c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out.Rows = make([]Row, len(perm))
	for j, p := range perm {
		out.Rows[j] = t.Rows[p]
	}
	gatherLineage(out, t, perm)
	return out, nil
}

// Limit returns the first n rows.
func Limit(t *Table, n int) *Table {
	t = t.mustMaterialize()
	out := t.derived(t.Name + "_lim")
	n = max(0, min(n, len(t.Rows)))
	out.Rows = t.Rows[:n:n]
	out.shareLineage(t, n)
	return out
}
