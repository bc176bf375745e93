package relation

import (
	"fmt"
	"math"
)

// This file holds the vectorized kernels behind the public operators
// (ops.go feeds them the batches of a Scanner, or a materialized table).
// Every function here must be observationally identical to its
// row-at-a-time reference in ops_ref_test.go: same rows in the same order,
// same lineage sets, same column origins, same errors. The equivalence
// property tests in vec_equiv_test.go enforce this on randomized and
// workload-shaped inputs.

// selectVec is the vectorized Select over one batch: it appends the rows
// pred selects to rows, and their ordinals in the scanned table to ord.
// Kernel filtering over column vectors when the predicate shape supports
// it, the predicate bound to column positions and evaluated over the
// batch's rows otherwise.
func selectVec(b *Batch, pred Expr, rows []Row, ord []int32) ([]Row, []int32, error) {
	sel, ok, err := b.Filter(pred)
	if err != nil {
		return nil, nil, err
	}
	if ok {
		return b.selected(sel, rows, ord)
	}
	t, err := b.table()
	if err != nil {
		return nil, nil, err
	}
	p := CompilePredicate(pred, t.Schema)
	for i, r := range t.Rows {
		ok, err := p.Selected(r)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			rows, ord = append(rows, r), append(ord, int32(b.start()+i))
		}
	}
	return rows, ord, nil
}

// projectVec is the vectorized Project: expressions are bound to column
// indices once and output rows are carved out of one flat arena instead
// of being allocated per row.
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

	k := len(cols)
	exprs := make([]Expr, k)
	for j, p := range cols {
		exprs[j] = bind(p.Expr, t.Schema)
	}
	flat := make([]Value, len(t.Rows)*k)
	out.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		nr := flat[i*k : i*k+k : i*k+k]
		for j := range exprs {
			v, err := exprs[j].Eval(r, t.Schema)
			if err != nil {
				return nil, err
			}
			nr[j] = v
			if out.Schema.Columns[j].Type == TNull && !v.IsNull() {
				out.Schema.Columns[j].Type = v.Kind
			}
		}
		out.Rows[i] = Row(nr)
	}
	out.shareLineage(t, len(t.Rows))
	return out, nil
}

// extendVec is the vectorized Extend: one bound expression, arena rows.
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

	be := bind(e, t.Schema)
	w := t.Schema.Len() + 1
	flat := make([]Value, len(t.Rows)*w)
	out.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		v, err := be.Eval(r, t.Schema)
		if err != nil {
			return nil, err
		}
		nr := flat[i*w : i*w+w : i*w+w]
		copy(nr, r)
		nr[w-1] = v
		out.Rows[i] = Row(nr)
	}
	out.shareLineage(t, len(t.Rows))
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

// joinEmitter materializes join output rows out of a shared arena, and
// their lineage as columns: each output column takes one lineage column of
// l or r, or the ordinal itself for a side that keeps its lineage
// implicit, so no lineage is allocated but the ordinals. A packed side
// makes every output row packed, l's row and r's packed together.
//
// The value arena grows in fixed-size chunks rather than by append-doubling:
// output size is unknown upfront, and doubling a multi-megabyte []Value
// arena re-copies every element through write barriers (a Value's string is
// a pointer) and re-zeroes the new block. A fresh chunk costs one
// allocation and leaves all previously emitted rows untouched.
type joinEmitter struct {
	out       *Table
	l, r      *Table // l is the whole left input, r the materialized right
	batch     *Table // the left batch being probed, row i of it row lStart+i of l
	lw, rw    int
	leftRows  int // rows of the whole left input: the output-size estimate
	flatChunk int // value-arena chunk size, scaled to the expected output
	flat      []Value
	from      []linSource     // per output lineage column
	sc        *lineageScratch // non-nil when a side is packed: packs each output row
	// ord, when non-nil, collects per emitted row the ordinal of its left
	// row in the whole left input.
	ord    *[]int32
	lStart int
}

// linSource is where one output lineage column's ordinals come from: a
// lineage column of one side, or — col nil — that side's row ordinal.
type linSource struct {
	right bool
	col   []int32
}

// at returns the ordinal of row i of the side (-1: no row).
func (s linSource) at(i int) int32 {
	switch {
	case i < 0:
		return -1
	case s.col == nil:
		return int32(i)
	}
	return s.col[i]
}

// linSources lists the lineage columns of one join side, by table.
func linSources(t *Table, right bool) (tables []string, from []linSource) {
	if origin, ok := t.implicit(); ok {
		return []string{origin}, []linSource{{right: right}}
	}
	for _, col := range t.lin.cols {
		from = append(from, linSource{right: right, col: col})
	}
	return t.lin.tables, from
}

// Arena chunk-size ceiling: 1.25 MiB of 40-byte Values. Large enough to
// amortize allocation, small enough that a mostly-empty final chunk is
// cheap. The emitter starts from the foreign-key estimate (about one output
// row per probe row) so small joins never allocate a megabyte chunk.
const maxFlatChunk = 1 << 15

// rowSlot returns a zero-length slice with capacity n carved from the
// value arena, starting a new chunk when the current one is full.
func (e *joinEmitter) rowSlot(n int) []Value {
	if len(e.flat)+n > cap(e.flat) {
		c := e.flatChunk
		if n > c {
			c = n
		}
		e.flat = make([]Value, 0, c)
	}
	start := len(e.flat)
	e.flat = e.flat[:start+n]
	return e.flat[start : start : start+n]
}

// newJoinEmitter sizes the arena for l ⋈ r from l's total row count and
// lays out out's lineage; the batches of l are then probed one at a time
// through setLeft.
func newJoinEmitter(out *Table, l, r *Table, ord *[]int32) *joinEmitter {
	e := &joinEmitter{out: out, l: l, r: r, lw: l.Schema.Len(), rw: r.Schema.Len(), leftRows: l.NumRows(), ord: ord}
	e.flatChunk = min(max(e.leftRows*(e.lw+e.rw), 64), maxFlatChunk)
	if l.packed != nil || r.packed != nil {
		e.sc, out.packed = new(lineageScratch), []groupLineage{}
		return e
	}
	lt, lf := linSources(l, false)
	rt, rf := linSources(r, true)
	tables, li, ri := alignTables(lt, rt)
	for k, table := range tables { // both sides' columns, a name twice for a self-join
		if li[k] >= 0 {
			out.lin.tables, e.from = append(out.lin.tables, table), append(e.from, lf[li[k]])
		}
		if ri[k] >= 0 {
			out.lin.tables, e.from = append(out.lin.tables, table), append(e.from, rf[ri[k]])
		}
	}
	out.lin.cols = make([][]int32, len(e.from))
	return e
}

// setLeft points the emitter at the next left batch, which starts at row
// start of the left input.
func (e *joinEmitter) setLeft(batch *Table, start int) {
	if e.out.Rows == nil {
		// Foreign-key-shaped joins emit about one row per probe row; header
		// doubling from zero would re-copy the slice headers several times.
		e.out.Rows = make([]Row, 0, e.leftRows)
		if e.sc != nil {
			e.out.packed = make([]groupLineage, 0, e.leftRows)
		}
		for k := range e.out.lin.cols {
			e.out.lin.cols[k] = make([]int32, 0, e.leftRows)
		}
	}
	e.batch, e.lStart = batch, start
}

// lineage appends the lineage of the row joining left row i of the batch
// with right row j (-1: none).
func (e *joinEmitter) lineage(i, j int) {
	li := e.lStart + i
	if e.ord != nil {
		*e.ord = append(*e.ord, int32(li))
	}
	if e.sc != nil {
		e.sc.addRows(e.l, li, oneRow)
		if j >= 0 {
			e.sc.addRows(e.r, j, oneRow)
		}
		e.out.packed = append(e.out.packed, e.sc.pack())
		return
	}
	for k, s := range e.from {
		if s.right {
			e.out.lin.cols[k] = append(e.out.lin.cols[k], s.at(j))
		} else {
			e.out.lin.cols[k] = append(e.out.lin.cols[k], s.at(li))
		}
	}
}

// emit appends the joined row (l[i] ++ r[j]) and its lineage.
func (e *joinEmitter) emit(i, j int) {
	nr := e.rowSlot(e.lw + e.rw)
	nr = append(nr, e.batch.Rows[i]...)
	nr = append(nr, e.r.Rows[j]...)
	e.out.Rows = append(e.out.Rows, Row(nr))
	e.lineage(i, j)
}

// emitLeftNull appends l[i] null-extended on the right (LEFT JOIN miss).
func (e *joinEmitter) emitLeftNull(i int) {
	nr := e.rowSlot(e.lw + e.rw)
	nr = append(nr, e.batch.Rows[i]...)
	nr = nr[:e.lw+e.rw] // the null extension: fresh arena cells are zero Values
	e.out.Rows = append(e.out.Rows, Row(nr))
	e.lineage(i, -1)
}

// joinProber chooses the join plan from the predicate, builds its index
// over the materialized right table once, and returns the function that
// probes it with one left batch (starting at row start of l), appending
// to out and, when ord is non-nil, each row's left ordinal to it. Single-column
// equi-joins hash on interned keys (the reference fast path's Key()-string
// semantics, minus the string allocations) — over a frozen right side, the
// index its version keeps resident; conjunctions containing equality pairs
// hash on all pairs with Compare verification plus a bound residual;
// anything else runs the nested-loop reference.
func joinProber(out *Table, l, r *Table, pred Expr, kind JoinKind, ord *[]int32) func(batch *Table, start int) error {
	em := newJoinEmitter(out, l, r, ord)
	// Single equi pair: exactly the reference fast path, interned.
	if lc, rc, ok := equiJoinCols(pred, l.Schema, r.Schema); ok {
		idx := r.hashIndex(rc)
		return func(batch *Table, start int) error {
			em.setLeft(batch, start)
			for i, lr := range batch.Rows {
				matched := false
				if !lr[lc].IsNull() {
					for _, j := range idx[MapKey(lr[lc])] {
						em.emit(i, int(j))
						matched = true
					}
				}
				if !matched && kind == LeftJoin {
					em.emitLeftNull(i)
				}
			}
			return nil
		}
	}

	nested := func(batch *Table, start int) error { return nestedLoopInto(em, batch, start, pred, kind) }
	// Conjunction with equality pairs: multi-key hash join with
	// verification, as long as the residual can never error (otherwise
	// the hash plan could skip rows the reference would have errored on).
	if pairs, residual := extractJoinPairs(pred, l.Schema, r.Schema); len(pairs) > 0 {
		res := CompilePredicate(residual, out.Schema)
		if res.Safe() && !nanInKeys(r.Rows, pairs, true) {
			hashProbe := hashJoinMulti(em, r, pairs, res, kind)
			return func(batch *Table, start int) error {
				if nanInKeys(batch.Rows, pairs, false) {
					return nested(batch, start)
				}
				hashProbe(batch, start)
				return nil
			}
		}
	}
	return nested
}

// nanInKeys reports whether any join-key cell of rows (the right side's
// when right is set) is NaN. Compare treats NaN as equal to every number,
// an equivalence no hash key can express, so such joins (pathological in
// practice) take the nested-loop reference.
func nanInKeys(rows []Row, pairs []joinPair, right bool) bool {
	for _, pr := range pairs {
		ci := pr.lc
		if right {
			ci = pr.rc
		}
		for _, row := range rows {
			if v := row[ci]; v.Kind == TFloat && math.IsNaN(v.F) {
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

// hashJoinMulti indexes r on every equality pair at once and returns the
// probe for one left batch. Keys are canonicalized with joinMapKey
// (over-merge only) and every candidate is re-verified with Value.Equal,
// so the match set is exactly the nested-loop reference's.
func hashJoinMulti(em *joinEmitter, r *Table, pairs []joinPair, residual CompiledPredicate, kind JoinKind) func(l *Table, start int) {
	type rkey struct{ a, b uint64 }
	ins := make([]map[ValKey]uint32, len(pairs))
	for p := range ins {
		ins[p] = make(map[ValKey]uint32, 1024)
	}
	// A right (build) row interns unseen key values; a left (probe) row
	// with an unseen or NULL value has no match.
	buildKey := func(row Row, right bool) (rkey, bool) {
		var k rkey
		for p, pr := range pairs {
			ci := pr.lc
			if right {
				ci = pr.rc
			}
			v := row[ci]
			if v.IsNull() {
				return rkey{}, false
			}
			vk := joinMapKey(v)
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
	idx := make(map[rkey][]int32, len(r.Rows))
	for j, rr := range r.Rows {
		if k, ok := buildKey(rr, true); ok {
			idx[k] = append(idx[k], int32(j))
		}
	}
	scratch := make(Row, em.lw+em.rw)
	return func(l *Table, start int) {
		em.setLeft(l, start)
		for i, lr := range l.Rows {
			matched := false
			if k, ok := buildKey(lr, false); ok {
				copy(scratch, lr)
				for _, j32 := range idx[k] {
					j := int(j32)
					rr := r.Rows[j]
					equal := true
					for _, pr := range pairs {
						if !lr[pr.lc].Equal(rr[pr.rc]) {
							equal = false
							break
						}
					}
					if !equal {
						continue
					}
					copy(scratch[len(lr):], rr)
					if sel, _ := residual.Selected(scratch); sel {
						em.emit(i, j)
						matched = true
					}
				}
			}
			if !matched && kind == LeftJoin {
				em.emitLeftNull(i)
			}
		}
	}
}

// nestedLoopInto is the general join body: the plan for predicates no hash
// plan covers, and the test suite's nested-loop oracle. It probes the left
// batch l, which starts at row start of the left input, against every
// right row; pred is bound against the joined schema once, not looked up
// per row pair.
func nestedLoopInto(em *joinEmitter, l *Table, start int, pred Expr, kind JoinKind) error {
	p := CompilePredicate(pred, em.out.Schema)
	em.setLeft(l, start)
	scratch := make(Row, em.lw+em.rw)
	for i, lr := range l.Rows {
		copy(scratch, lr)
		matched := false
		for j, rr := range em.r.Rows {
			copy(scratch[len(lr):], rr)
			ok, err := p.Selected(scratch)
			if err != nil {
				return err
			}
			if ok {
				em.emit(i, j)
				matched = true
			}
		}
		if !matched && kind == LeftJoin {
			em.emitLeftNull(i)
		}
	}
	return nil
}

// distinctVec is the vectorized Distinct: whole-row keys are interned per
// column instead of concatenating Key() strings, and each surviving row's
// lineage — its duplicates' together — is packed.
func distinctVec(t *Table) *Table {
	out := t.derived(t.Name + "_dist")
	allCols := make([]int, t.Schema.Len())
	for i := range allCols {
		allCols[i] = i
	}
	capHint := min(len(t.Rows), 1024)
	keyer := newRowKeyer(allCols, capHint)
	index := make(map[compositeKey]int, capHint)
	of := make([]int, len(t.Rows)) // the output row each input row falls into
	for i, r := range t.Rows {
		k := keyer.key(r)
		j, ok := index[k]
		if !ok {
			j = len(out.Rows)
			index[k] = j
			out.Rows = append(out.Rows, r)
		}
		of[i] = j
	}
	// The input rows of each output row, out of one array.
	end := make([]int, len(out.Rows))
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
	out.packed = make([]groupLineage, len(out.Rows))
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
