package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Select returns the rows of t satisfying pred, preserving lineage and
// column origins. Each scanned batch is filtered by the kernel and its
// selected rows' cells gathered column by column, in scan order, their
// lineage gathered from t by ordinal. The scan decodes the predicate's
// columns; a segment partition's other columns are decoded, and gathered,
// only where it selects a row.
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
	var parts [][]*Vector
	cols := predCols(pred, t.Schema)
	err := eachBatch(t, pred, func(b *Batch) error { return b.load(cols) }, func(b *Batch) error {
		from := len(ord)
		var err error
		if ord, err = selectVec(b, pred, ord); err != nil || len(ord) == from {
			return err
		}
		vecs, err := b.gather(ord[from:])
		parts = append(parts, vecs)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	out.stored(concatParts(parts, t.Schema.Len()), len(ord))
	gatherLineage(out, t, ord)
	return out, ord, nil
}

// concatParts returns the w columns of the batches' parts one after
// another: the one part itself, or empty columns when there is none.
func concatParts(parts [][]*Vector, w int) []*Vector {
	switch len(parts) {
	case 0:
		vecs := make([]*Vector, w)
		for ci := range vecs {
			vecs[ci] = &Vector{V: []Value{}}
		}
		return vecs
	case 1:
		return parts[0]
	}
	vecs := make([]*Vector, w)
	col := make([]*Vector, len(parts))
	for ci := range vecs {
		for pi, p := range parts {
			col[pi] = p[ci]
		}
		vecs[ci] = concatVectors(col...)
	}
	return vecs
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
// expression references; row lineage is preserved. A projected column is
// the input's vector, shared; a computed one is evaluated row by row.
func Project(t *Table, cols ...ProjCol) (*Table, error) {
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

// Extend appends one computed column to every row; the others are the
// input's vectors, shared.
func Extend(t *Table, name string, e Expr) (*Table, error) {
	return extendVec(t, name, e)
}

// MapColumn returns t with column ci rewritten by fn, called with each
// row's index and cell in row order and stopping at its first error; the
// other columns, the lineage and the column origins are t's, shared.
func MapColumn(t *Table, ci int, fn func(i int, v Value) (Value, error)) (*Table, error) {
	in, err := t.vectors()
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	vals := make([]Value, n)
	for i := range vals {
		if vals[i], err = fn(i, in[ci].Value(i)); err != nil {
			return nil, err
		}
	}
	vecs := append([]*Vector(nil), in...)
	vecs[ci] = vectorOf(n, func(i int) Value { return vals[i] })
	out := t.derived(t.Name)
	out.stored(vecs, n)
	out.shareLineage(t, n)
	return out, nil
}

// Rename returns t with the table renamed and columns qualified by the new
// name; lineage and origins are preserved.
func Rename(t *Table, name string) *Table {
	out := t.derived(name)
	out.Schema = t.Schema.Qualify(name)
	out.res = t.res
	out.shareLineage(t, t.NumRows())
	out.Rows, out.vecs, out.n, out.seg = capped(t.Rows), t.vecs, t.n, t.seg
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
// read by column and indexed once (it is the build side of every hash
// plan; a stored one keeps its index); the left side is scanned and probes
// that index batch by batch, so output order is left-major whatever the
// storage. The output's cells are gathered, each side's columns through
// the ordinals of the matched rows.
func Join(l, r *Table, pred Expr, kind JoinKind) (*Table, error) {
	out, _, err := joinOrd(l, r, pred, kind, false)
	return out, err
}

// joinOrd is Join also returning, per output row, the ordinal in l of its
// left row; nested forces the nested-loop plan.
func joinOrd(l, r *Table, pred Expr, kind JoinKind, nested bool) (*Table, []int32, error) {
	rv, err := r.vectors()
	if err != nil {
		return nil, nil, err
	}
	out := newJoinShell(l, r)
	probe := joinProber(out, l, r, rv, pred, kind, nested)
	lo := make([]int32, 0, l.NumRows()) // about one output row per left row
	ro := make([]int32, 0, l.NumRows())
	var parts [][]*Vector
	err = eachBatch(l, nil, nil, func(b *Batch) error {
		from := len(lo)
		var err error
		if lo, ro, err = probe(b, lo, ro); err != nil || len(lo) == from {
			return err
		}
		vecs, err := b.gather(lo[from:])
		parts = append(parts, vecs)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	vecs := concatParts(parts, l.Schema.Len())
	for _, v := range rv {
		vecs = append(vecs, v.gather(ro))
	}
	out.stored(vecs, len(lo))
	joinLineage(out, l, r, lo, ro)
	return out, lo, nil
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
	return distinctVec(t, t.mustVectors())
}

// Union appends the rows of b to a (schemas must be compatible), keeping
// duplicates (UNION ALL semantics); wrap with Distinct for set union.
func Union(a, b *Table) (*Table, error) {
	if a.Schema.Len() != b.Schema.Len() {
		return nil, fmt.Errorf("relation: union arity mismatch: %s vs %s", a.Schema, b.Schema)
	}
	av, err := a.vectors()
	if err != nil {
		return nil, err
	}
	bv, err := b.vectors()
	if err != nil {
		return nil, err
	}
	out := a.derived(a.Name + "_union")
	for c := range out.ColOrigin {
		out.ColOrigin[c] = out.ColOrigin[c].Union(b.ColumnOrigin(c))
	}
	vecs := make([]*Vector, len(av))
	for ci := range vecs {
		vecs[ci] = concatVectors(av[ci], bv[ci])
	}
	an, bn := a.NumRows(), b.NumRows()
	out.stored(vecs, an+bn)
	if a.packed != nil || b.packed != nil {
		out.packed = append(make([]groupLineage, 0, an+bn), packedRows(a)...)
		out.packed = append(out.packed, packedRows(b)...)
		out.from = mergeTables(a.lineageTables(), b.lineageTables())
		return out, nil
	}
	ac, bc := a.columns(), b.columns()
	tables, ai, bi := alignTables(ac.tables, bc.tables)
	out.lin = lineageCols{tables: tables, cols: make([][]int32, len(tables))}
	for k := range tables {
		out.lin.cols[k] = slices.Concat(ac.column(ai[k], an), bc.column(bi[k], bn))
	}
	return out, nil
}

// SortKey describes one ORDER BY term.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort orders the table by the given keys (stable): the order is decided
// over the key columns, and every column gathered through it.
func Sort(t *Table, keys ...SortKey) (*Table, error) {
	vecs, err := t.vectors()
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	kv := make([][]Value, len(keys)) // each key's cells, read once
	for i, k := range keys {
		ci := t.Schema.Index(k.Col)
		if ci < 0 {
			return nil, fmt.Errorf("relation: sort key %q not in %s", k.Col, t.Schema)
		}
		kv[i] = vecs[ci].values(0, n)
	}
	out := t.derived(t.Name + "_sort")
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for i, v := range kv {
			va, vb := v[perm[a]], v[perm[b]]
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
	out.stored(gatherAll(vecs, perm), len(perm))
	gatherLineage(out, t, perm)
	return out, nil
}

// gatherAll gathers every vector of vecs through idx.
func gatherAll(vecs []*Vector, idx []int32) []*Vector {
	out := make([]*Vector, len(vecs))
	for ci, v := range vecs {
		out[ci] = v.gather(idx)
	}
	return out
}

// Limit returns the first n rows, sharing t's vectors.
func Limit(t *Table, n int) *Table {
	vecs := t.mustVectors()
	out := t.derived(t.Name + "_lim")
	n = max(0, min(n, t.NumRows()))
	heads := make([]*Vector, len(vecs))
	for ci, v := range vecs {
		heads[ci] = v.slice(0, n)
	}
	out.stored(heads, n)
	out.shareLineage(t, n)
	return out
}
