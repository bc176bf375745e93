package relation

import (
	"fmt"
	"math"
)

// This file holds the vectorized kernels behind the public operators
// (ops.go feeds them the batches of a Scanner, or a table's vectors).
// Every function here must be observationally identical to its
// row-at-a-time reference in ops_ref_test.go: same rows in the same order,
// same lineage sets, same column origins, same errors. The equivalence
// property tests in vec_equiv_test.go enforce this on randomized and
// workload-shaped inputs, each built both as a row literal and as a stored
// table.

// selectVec is the vectorized Select over one batch: it appends the
// ordinals, in the scanned table, of the rows pred selects to ord. Kernel
// filtering over column vectors when the predicate shape supports it, the
// predicate bound to column positions and evaluated over each row,
// assembled from the batch's columns, otherwise.
func selectVec(b *Batch, pred Expr, ord []int32) ([]int32, error) {
	sel, ok, err := b.Filter(pred)
	if err != nil {
		return nil, err
	}
	if ok {
		return b.selected(sel, ord), nil
	}
	p := CompilePredicate(pred, b.Schema())
	row := make(Row, b.Schema().Len())
	for i := 0; i < b.Len(); i++ {
		if err := b.row(i, row); err != nil {
			return nil, err
		}
		ok, err := p.Selected(row)
		if err != nil {
			return nil, err
		}
		if ok {
			ord = append(ord, int32(b.start()+i))
		}
	}
	return ord, nil
}

// evalRows evaluates the bound expression e over each of t's n rows, the
// columns it reads (refs) filled into a scratch row from vecs, and returns
// the results as a vector.
func evalRows(e Expr, s *Schema, vecs []*Vector, n int) (*Vector, error) {
	var refs []int
	for _, name := range ColumnsOf(e) {
		if ci := s.Index(name); ci >= 0 {
			refs = append(refs, ci)
		}
	}
	be := bind(e, s)
	row := make(Row, s.Len())
	vals := make([]Value, n)
	for i := range vals {
		for _, ci := range refs {
			row[ci] = vecs[ci].Value(i)
		}
		v, err := be.Eval(row, s)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vectorOf(n, func(i int) Value { return vals[i] }), nil
}

// firstKind returns the kind of v's first cell that is not NULL, or TNull.
func (v *Vector) firstKind() Type {
	for i := 0; i < v.n; i++ {
		if c := v.Value(i); !c.IsNull() {
			return c.Kind
		}
	}
	return TNull
}

// projectVec is the vectorized Project: a column reference shares the
// input's vector, any other expression is evaluated once per row.
func projectVec(t *Table, cols ...ProjCol) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: empty projection")
	}
	out := &Table{Name: t.Name + "_proj"}
	schemaCols := make([]Column, len(cols))
	out.ColOrigin = make([]ColRefSet, len(cols))
	for i, p := range cols {
		schemaCols[i] = Column{Name: p.outName(), Type: InferType(p.Expr, t.Schema)}
		var origin ColRefSet
		for _, ref := range ColumnsOf(p.Expr) {
			ci := t.Schema.Index(ref)
			if ci < 0 {
				return nil, fmt.Errorf("relation: projection references unknown column %q", ref)
			}
			origin = append(origin, t.ColumnOrigin(ci)...)
		}
		out.ColOrigin[i] = origin.normalize()
	}
	out.Schema = &Schema{Columns: schemaCols}
	in, err := t.vectors()
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	vecs := make([]*Vector, len(cols))
	for j, p := range cols {
		if c, ok := p.Expr.(*ColExpr); ok {
			vecs[j] = in[t.Schema.Index(c.Name)]
		} else if vecs[j], err = evalRows(p.Expr, t.Schema, in, n); err != nil {
			return nil, err
		}
		if out.Schema.Columns[j].Type == TNull {
			out.Schema.Columns[j].Type = vecs[j].firstKind()
		}
	}
	out.stored(vecs, n)
	out.shareLineage(t, n)
	return out, nil
}

// extendVec is the vectorized Extend: t's vectors shared, one computed.
func extendVec(t *Table, name string, e Expr) (*Table, error) {
	out := t.derived(t.Name + "_ext")
	out.Schema.Columns = append(out.Schema.Columns, Column{Name: name, Type: InferType(e, t.Schema)})
	var origin ColRefSet
	for _, ref := range ColumnsOf(e) {
		ci := t.Schema.Index(ref)
		if ci < 0 {
			return nil, fmt.Errorf("relation: extend references unknown column %q", ref)
		}
		origin = append(origin, t.ColumnOrigin(ci)...)
	}
	out.ColOrigin = append(out.ColOrigin, origin.normalize())
	in, err := t.vectors()
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	v, err := evalRows(e, t.Schema, in, n)
	if err != nil {
		return nil, err
	}
	out.stored(append(in[:len(in):len(in)], v), n)
	out.shareLineage(t, n)
	return out, nil
}

// joinMapKey canonicalizes a join-key value for the verified hash join:
// key equality must be implied by Value.Compare equality (over-merging is
// fine — candidates are re-verified with Compare — but under-merging
// would drop matches the nested-loop reference produces). Two INTs
// compare exactly, but an INT and a FLOAT compare through float64, so a
// large INT may equal a FLOAT whose integer image differs from it: beyond
// 2^53-adjacent territory numerics collapse onto their float64 image, and
// distinct INTs merged there are told apart by the verification.
func joinMapKey(v Value) ValKey {
	switch v.Kind {
	case TInt:
		if v.I > -1000000000000000 && v.I < 1000000000000000 {
			return ValKey{kind: vkInt, i: v.I}
		}
		return ValKey{kind: vkFloat, f: float64(v.I)}
	case TFloat:
		if math.IsNaN(v.F) {
			return ValKey{kind: vkNaN}
		}
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return ValKey{kind: vkInt, i: int64(v.F)}
		}
		return ValKey{kind: vkFloat, f: v.F}
	default:
		return MapKey(v)
	}
}

// probeFn probes the index of a join plan with one left batch, appending
// per matched pair the ordinal of its left row in the left input to lo and
// that of its right row to ro (-1: a LEFT JOIN miss).
type probeFn func(b *Batch, lo, ro []int32) ([]int32, []int32, error)

// joinLineage gives out, the join of l and r whose row k joins row lo[k]
// of l with row ro[k] of r (-1: none), its lineage. Each output lineage
// column is one lineage column of l or r, or that side's ordinals for a
// side that keeps its lineage implicit, gathered through the matched
// ordinals. A packed side makes every output row packed, l's row and r's
// packed together.
func joinLineage(out, l, r *Table, lo, ro []int32) {
	if l.packed != nil || r.packed != nil {
		var sc lineageScratch
		out.packed, out.from = make([]groupLineage, len(lo)), mergeTables(l.lineageTables(), r.lineageTables())
		for k := range lo {
			sc.addRows(l, int(lo[k]), oneRow)
			if ro[k] >= 0 {
				sc.addRows(r, int(ro[k]), oneRow)
			}
			out.packed[k] = sc.pack()
		}
		return
	}
	lt, lf := linSources(l)
	rt, rf := linSources(r)
	tables, li, ri := alignTables(lt, rt)
	for k, table := range tables { // both sides' columns, a name twice for a self-join
		if li[k] >= 0 {
			out.lin.tables, out.lin.cols = append(out.lin.tables, table), append(out.lin.cols, gatherOrds(lf[li[k]], lo))
		}
		if ri[k] >= 0 {
			out.lin.tables, out.lin.cols = append(out.lin.tables, table), append(out.lin.cols, gatherOrds(rf[ri[k]], ro))
		}
	}
}

// linSources lists the lineage columns of one join side, by table; a nil
// column stands for the side's row ordinal.
func linSources(t *Table) (tables []string, from [][]int32) {
	if origin, ok := t.implicit(); ok {
		return []string{origin}, [][]int32{nil}
	}
	return t.lin.tables, t.lin.cols
}

// gatherOrds returns col's ordinals at idx — idx itself for a nil col —
// and -1 at an index of -1.
func gatherOrds(col, idx []int32) []int32 {
	out := make([]int32, len(idx))
	for k, i := range idx {
		switch {
		case i < 0:
			out[k] = -1
		case col == nil:
			out[k] = i
		default:
			out[k] = col[i]
		}
	}
	return out
}

// joinProber chooses the join plan from the predicate, builds its index
// over r's vectors rv once, and returns the probe of one left batch.
// Single-column equi-joins probe the left key vector against a hash index
// of the right one (a string key hashed as itself, any other by MapKey) —
// over a frozen right side, the index its version keeps resident;
// conjunctions containing equality pairs hash on all pairs with Compare
// verification plus a bound residual; anything else, and every join when
// nested is set, runs the nested loop.
func joinProber(out, l, r *Table, rv []*Vector, pred Expr, kind JoinKind, nested bool) probeFn {
	ls := l.Schema
	if !nested {
		if lc, rc, ok := equiJoinCols(pred, ls, r.Schema); ok {
			idx := r.hashIndex(rc, rv[rc])
			return func(b *Batch, lo, ro []int32) ([]int32, []int32, error) {
				kv, err := b.Col(lc)
				if err != nil {
					return nil, nil, err
				}
				lo, ro = idx.probe(kv, b.start(), kind == LeftJoin, lo, ro)
				return lo, ro, nil
			}
		}
	}
	var rrows []Row // the right side's rows, assembled for the first batch the nested loop probes
	loop := func(b *Batch, lo, ro []int32) ([]int32, []int32, error) {
		if rrows == nil {
			rrows = rowsOf(rv, r.NumRows())
		}
		return nestedLoop(out, rrows, pred, kind, b, lo, ro)
	}
	// Conjunction with equality pairs: multi-key hash join with
	// verification, as long as the residual can never error (otherwise
	// the hash plan could skip rows the reference would have errored on).
	if pairs, residual := extractJoinPairs(pred, ls, r.Schema); !nested && len(pairs) > 0 {
		res := CompilePredicate(residual, out.Schema)
		if rk := pairCols(pairs, rv, true); res.Safe() && !nanIn(rk) {
			hashProbe := hashJoinMulti(rk, rv, pairs, res, kind)
			return func(b *Batch, lo, ro []int32) ([]int32, []int32, error) {
				lk, err := batchCols(b, pairs)
				if err != nil || nanIn(lk) {
					return loop(b, lo, ro)
				}
				return hashProbe(b, lk, lo, ro)
			}
		}
	}
	return loop
}

// pairCols returns the key vectors of one side of the pairs.
func pairCols(pairs []joinPair, vecs []*Vector, right bool) []*Vector {
	out := make([]*Vector, len(pairs))
	for p, pr := range pairs {
		if right {
			out[p] = vecs[pr.rc]
		} else {
			out[p] = vecs[pr.lc]
		}
	}
	return out
}

// batchCols returns the left key vectors of the pairs in batch b.
func batchCols(b *Batch, pairs []joinPair) ([]*Vector, error) {
	out := make([]*Vector, len(pairs))
	for p, pr := range pairs {
		v, err := b.Col(pr.lc)
		if err != nil {
			return nil, err
		}
		out[p] = v
	}
	return out, nil
}

// nanIn reports whether any cell of the key vectors is NaN. Compare treats
// NaN as equal to every number, an equivalence no hash key can express, so
// such joins (pathological in practice) take the nested loop.
func nanIn(keys []*Vector) bool {
	for _, v := range keys {
		if v.V == nil && v.Kind != TFloat {
			continue
		}
		for i := 0; i < v.n; i++ {
			if c := v.Value(i); c.Kind == TFloat && math.IsNaN(c.F) {
				return true
			}
		}
	}
	return false
}

// newJoinShell builds the output schema and column origins of l ⋈ r.
func newJoinShell(l, r *Table) *Table {
	out := &Table{Name: l.Name + "_join_" + r.Name}
	cols := make([]Column, 0, l.Schema.Len()+r.Schema.Len())
	cols = append(cols, l.Schema.Columns...)
	cols = append(cols, r.Schema.Columns...)
	out.Schema = &Schema{Columns: cols}
	out.ColOrigin = make([]ColRefSet, 0, len(cols))
	for c := range l.Schema.Columns {
		out.ColOrigin = append(out.ColOrigin, l.ColumnOrigin(c))
	}
	for c := range r.Schema.Columns {
		out.ColOrigin = append(out.ColOrigin, r.ColumnOrigin(c))
	}
	return out
}

// joinPair is one l-column/r-column equality of a join predicate.
type joinPair struct{ lc, rc int }

// extractJoinPairs flattens an AND tree and splits its conjuncts into
// cross-table equality pairs and a residual predicate (the remaining
// conjuncts refolded in order; nil when none). A selection under the
// conjunction is TRUE exactly when every conjunct is TRUE, so hashing the
// pairs and testing the residual is equivalent to evaluating the tree.
func extractJoinPairs(pred Expr, ls, rs *Schema) ([]joinPair, Expr) {
	var conjuncts []Expr
	var flatten func(e Expr)
	flatten = func(e Expr) {
		if be, ok := e.(*BinExpr); ok && be.Op == OpAnd {
			flatten(be.L)
			flatten(be.R)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	if pred != nil {
		flatten(pred)
	}
	var pairs []joinPair
	var residual Expr
	for _, c := range conjuncts {
		if lc, rc, ok := equiJoinCols(c, ls, rs); ok {
			pairs = append(pairs, joinPair{lc: lc, rc: rc})
			continue
		}
		if residual == nil {
			residual = c
		} else {
			residual = And(residual, c)
		}
	}
	return pairs, residual
}

// hashJoinMulti indexes the right key vectors rk (of r's vectors rv) on
// every equality pair at once and returns the probe for one left batch,
// given its key vectors. Keys are canonicalized with joinMapKey (over-merge
// only) and every candidate is re-verified with Value.Equal, then tested
// against the residual over the joined row, assembled in a scratch row, so
// the match set is exactly the nested-loop reference's.
func hashJoinMulti(rk, rv []*Vector, pairs []joinPair, residual CompiledPredicate, kind JoinKind) func(b *Batch, lk []*Vector, lo, ro []int32) ([]int32, []int32, error) {
	type rkey struct{ a, b uint64 }
	ins := make([]map[ValKey]uint32, len(pairs))
	for p := range ins {
		ins[p] = make(map[ValKey]uint32, 1024)
	}
	// A right (build) row interns unseen key values; a left (probe) row
	// with an unseen or NULL value has no match.
	buildKey := func(keys []*Vector, i int, right bool) (rkey, bool) {
		var k rkey
		for p, v := range keys {
			c := v.Value(i)
			if c.IsNull() {
				return rkey{}, false
			}
			vk := joinMapKey(c)
			id, ok := ins[p][vk]
			if !ok {
				if !right {
					return rkey{}, false
				}
				id = uint32(len(ins[p]) + 1)
				ins[p][vk] = id
			}
			if p < 2 {
				k.a |= uint64(id) << (32 * uint(p))
			} else {
				// Beyond two pairs, fold further ids in; collisions only
				// cost extra verified candidates, never correctness.
				k.b = k.b*1099511628211 + uint64(id)
			}
		}
		return k, true
	}
	rn := 0
	if len(rk) > 0 {
		rn = rk[0].Len()
	}
	idx := make(map[rkey][]int32, rn)
	for j := 0; j < rn; j++ {
		if k, ok := buildKey(rk, j, true); ok {
			idx[k] = append(idx[k], int32(j))
		}
	}
	return func(b *Batch, lk []*Vector, lo, ro []int32) ([]int32, []int32, error) {
		lw := b.Schema().Len()
		scratch := make(Row, lw+len(rv))
		for i := 0; i < b.Len(); i++ {
			li := int32(b.start() + i)
			matched, filled := false, false
			if k, ok := buildKey(lk, i, false); ok {
				for _, j := range idx[k] {
					equal := true
					for p := range pairs {
						if !lk[p].Value(i).Equal(rk[p].Value(int(j))) {
							equal = false
							break
						}
					}
					if !equal {
						continue
					}
					if !filled {
						if err := b.row(i, scratch[:lw]); err != nil {
							return nil, nil, err
						}
						filled = true
					}
					for ci, v := range rv {
						scratch[lw+ci] = v.Value(int(j))
					}
					if sel, _ := residual.Selected(scratch); sel {
						lo, ro = append(lo, li), append(ro, j)
						matched = true
					}
				}
			}
			if !matched && kind == LeftJoin {
				lo, ro = append(lo, li), append(ro, -1)
			}
		}
		return lo, ro, nil
	}
}

// nestedLoop is the general join body: the plan for predicates no hash
// plan covers, and the test suite's nested-loop oracle. It probes the
// left batch b against every row of the right side, rrows; pred is bound
// against the joined schema once, not looked up per row pair.
func nestedLoop(out *Table, rrows []Row, pred Expr, kind JoinKind, b *Batch, lo, ro []int32) ([]int32, []int32, error) {
	p := CompilePredicate(pred, out.Schema)
	lw := b.Schema().Len()
	scratch := make(Row, out.Schema.Len())
	for i := 0; i < b.Len(); i++ {
		if err := b.row(i, scratch[:lw]); err != nil {
			return nil, nil, err
		}
		li := int32(b.start() + i)
		matched := false
		for j, rr := range rrows {
			copy(scratch[lw:], rr)
			ok, err := p.Selected(scratch)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				lo, ro = append(lo, li), append(ro, int32(j))
				matched = true
			}
		}
		if !matched && kind == LeftJoin {
			lo, ro = append(lo, li), append(ro, -1)
		}
	}
	return lo, ro, nil
}

// distinctVec is the vectorized Distinct over t's vectors: whole-row keys
// are interned per column, the first row of each key gathered, and each
// surviving row's lineage — its duplicates' together — is packed.
func distinctVec(t *Table, vecs []*Vector) *Table {
	out := t.derived(t.Name + "_dist")
	n := t.NumRows()
	allCols := make([]int, len(vecs))
	ids := make([][]uint32, len(vecs))
	capHint := min(n, 1024)
	keyer := newRowKeyer(allCols, capHint)
	for ci, v := range vecs {
		allCols[ci] = ci
		ids[ci] = make([]uint32, n)
		keyer.ins[ci].vecIDs(v, ids[ci])
	}
	index := make(map[compositeKey]int, capHint)
	var first []int32    // the input row each output row is
	of := make([]int, n) // the output row each input row falls into
	for i := range of {
		k := keyer.vecKey(ids, i)
		j, ok := index[k]
		if !ok {
			j = len(first)
			index[k] = j
			first = append(first, int32(i))
		}
		of[i] = j
	}
	out.stored(gatherAll(vecs, first), len(first))
	// The input rows of each output row, out of one array.
	end := make([]int, len(first))
	for _, j := range of {
		end[j]++
	}
	for j := 1; j < len(end); j++ {
		end[j] += end[j-1]
	}
	members := make([]uint32, len(of))
	for i := len(of) - 1; i >= 0; i-- {
		end[of[i]]--
		members[end[of[i]]] = uint32(i)
	}
	out.packed, out.from = make([]groupLineage, len(first)), t.lineageTables()
	var sc lineageScratch
	for j := range out.packed {
		hi := len(members)
		if j+1 < len(end) {
			hi = end[j+1]
		}
		sc.addRows(t, 0, members[end[j]:hi])
		out.packed[j] = sc.pack()
	}
	return out
}
