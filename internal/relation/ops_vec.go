package relation

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// This file holds the vectorized kernels behind the public operators
// (ops.go feeds them the batches of a Scanner, or a materialized table).
// Every function here must be observationally identical to its
// row-at-a-time reference in ops_ref_test.go: same rows in the same order,
// same lineage sets, same column origins, same errors. The equivalence
// property tests in vec_equiv_test.go enforce this on randomized and
// workload-shaped inputs.

// selectVec is the vectorized Select over one batch: kernel filtering over
// column vectors when the predicate shape supports it, the predicate bound
// to column positions and evaluated over the batch's rows otherwise.
func selectVec(b *Batch, pred Expr, ord *[]int32) (*Table, error) {
	sel, ok, err := b.Filter(pred)
	if err != nil {
		return nil, err
	}
	if ok {
		if ord != nil {
			for i := 0; i < sel.Len(); i++ {
				if sel.Get(i) {
					*ord = append(*ord, int32(b.start()+i))
				}
			}
		}
		return b.ToTable(b.src.Name+"_sel", sel)
	}
	t, err := b.table()
	if err != nil {
		return nil, err
	}
	out := t.derived(t.Name + "_sel")
	p := CompilePredicate(pred, t.Schema)
	for i, r := range t.Rows {
		ok, err := p.Selected(r)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, r)
			out.Lineage = append(out.Lineage, t.RowLineage(i))
			if ord != nil {
				*ord = append(*ord, int32(b.start()+i))
			}
		}
	}
	return out, nil
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
	out.Rows = make([]Row, 0, len(t.Rows))
	out.Lineage = make([]LineageSet, 0, len(t.Rows))
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
		out.Rows = append(out.Rows, Row(nr))
		out.Lineage = append(out.Lineage, t.RowLineage(i))
	}
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
	out.Rows = make([]Row, 0, len(t.Rows))
	out.Lineage = make([]LineageSet, 0, len(t.Rows))
	for i, r := range t.Rows {
		v, err := be.Eval(r, t.Schema)
		if err != nil {
			return nil, err
		}
		nr := flat[i*w : i*w+w : i*w+w]
		copy(nr, r)
		nr[w-1] = v
		out.Rows = append(out.Rows, Row(nr))
		out.Lineage = append(out.Lineage, t.RowLineage(i))
	}
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

// joinEmitter materializes join output rows and lineage out of shared
// arenas, eliminating the per-row allocations of the reference join.
// Arenas grow in fixed-size chunks rather than by append-doubling: output
// size is unknown upfront, and doubling a multi-megabyte []Value arena
// re-copies every element through write barriers (a Value's string is a
// pointer) and re-zeroes the new block — measurably slower than the
// per-row reference at 100k rows. A fresh chunk costs one allocation and
// leaves all previously emitted rows untouched.
type joinEmitter struct {
	out       *Table
	l, r      *Table // l is the left batch being probed
	lw, rw    int
	leftRows  int // rows of the whole left input: the output-size estimate
	flatChunk int // value-arena chunk size, scaled to the expected output
	linChunk  int
	flat      []Value
	lin       []RowRef
	lLin      []LineageSet // per-row lineage of l and r
	rLin      []LineageSet
	// ord, when non-nil, collects per emitted row the ordinal of its left
	// row in the whole left input: lStart, the batch's first row, plus i.
	ord    *[]int32
	lStart int
}

// Arena chunk-size ceilings (elements): 1.25 MiB of 40-byte Values and
// 384 KiB of 24-byte RowRefs. Large enough to amortize allocation, small
// enough that a mostly-empty final chunk is cheap. The emitter starts from
// the foreign-key estimate (about one output row per probe row) so small
// joins never allocate a megabyte chunk.
const (
	maxFlatChunk = 1 << 15
	maxLinChunk  = 1 << 14
)

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

// ensureLin guarantees the lineage arena can take n more refs without
// reallocating (which would detach previously returned slices' backing
// from e.lin growth, and re-copy on doubling).
func (e *joinEmitter) ensureLin(n int) {
	if len(e.lin)+n > cap(e.lin) {
		c := e.linChunk
		if n > c {
			c = n
		}
		e.lin = make([]RowRef, 0, c)
	}
}

// newJoinEmitter sizes the arenas for l ⋈ r from l's total row count; the
// batches of l are then probed one at a time through setLeft.
func newJoinEmitter(out *Table, l, r *Table, ord *[]int32) *joinEmitter {
	e := &joinEmitter{out: out, r: r, rLin: r.lineage(), lw: l.Schema.Len(), rw: r.Schema.Len(), leftRows: l.NumRows(), ord: ord}
	e.flatChunk = e.leftRows * (e.lw + e.rw)
	if e.flatChunk > maxFlatChunk {
		e.flatChunk = maxFlatChunk
	} else if e.flatChunk < 64 {
		e.flatChunk = 64
	}
	e.linChunk = e.leftRows * 2
	if e.linChunk > maxLinChunk {
		e.linChunk = maxLinChunk
	} else if e.linChunk < 64 {
		e.linChunk = 64
	}
	return e
}

// setLeft points the emitter at the next left batch, which starts at row
// start of the left input.
func (e *joinEmitter) setLeft(l *Table, start int) {
	if e.out.Rows == nil {
		// Foreign-key-shaped joins emit about one row per probe row; header
		// doubling from zero would re-copy the slice headers several times.
		e.out.Rows = make([]Row, 0, e.leftRows)
		e.out.Lineage = make([]LineageSet, 0, e.leftRows)
	}
	e.l, e.lLin, e.lStart = l, l.lineage(), start
}

// emitted records the left ordinal of the row just appended.
func (e *joinEmitter) emitted(i int) {
	if e.ord != nil {
		*e.ord = append(*e.ord, int32(e.lStart+i))
	}
}

// mergeLin merges two sorted lineage sets into the shared arena.
func (e *joinEmitter) mergeLin(a, b LineageSet) LineageSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	e.ensureLin(len(a) + len(b))
	start := len(e.lin)
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch cmpRef(a[x], b[y]) {
		case -1:
			e.lin = append(e.lin, a[x])
			x++
		case 1:
			e.lin = append(e.lin, b[y])
			y++
		default:
			e.lin = append(e.lin, a[x])
			x++
			y++
		}
	}
	e.lin = append(e.lin, a[x:]...)
	e.lin = append(e.lin, b[y:]...)
	return LineageSet(e.lin[start:len(e.lin):len(e.lin)])
}

// emit appends the joined row (l[i] ++ r[j]) and its merged lineage.
func (e *joinEmitter) emit(i, j int) {
	nr := e.rowSlot(e.lw + e.rw)
	nr = append(nr, e.l.Rows[i]...)
	nr = append(nr, e.r.Rows[j]...)
	e.out.Rows = append(e.out.Rows, Row(nr))
	e.out.Lineage = append(e.out.Lineage, e.mergeLin(e.lLin[i], e.rLin[j]))
	e.emitted(i)
}

// emitLeftNull appends l[i] null-extended on the right (LEFT JOIN miss).
func (e *joinEmitter) emitLeftNull(i int) {
	nr := e.rowSlot(e.lw + e.rw)
	nr = append(nr, e.l.Rows[i]...)
	nr = nr[:e.lw+e.rw] // the null extension: fresh arena cells are zero Values
	e.out.Rows = append(e.out.Rows, Row(nr))
	e.out.Lineage = append(e.out.Lineage, e.lLin[i])
	e.emitted(i)
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
	// Single equi pair: exactly the reference fast path, interned.
	if lc, rc, ok := equiJoinCols(pred, l.Schema, r.Schema); ok {
		idx := r.hashIndex(rc)
		em := newJoinEmitter(out, l, r, ord)
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

	nested := func(batch *Table, start int) error { return nestedLoopInto(out, batch, r, pred, kind, ord, start) }
	// Conjunction with equality pairs: multi-key hash join with
	// verification, as long as the residual can never error (otherwise
	// the hash plan could skip rows the reference would have errored on).
	if pairs, residual := extractJoinPairs(pred, l.Schema, r.Schema); len(pairs) > 0 {
		res := CompilePredicate(residual, out.Schema)
		if res.Safe() && !nanInKeys(r.Rows, pairs, true) {
			hashProbe := hashJoinMulti(newJoinEmitter(out, l, r, ord), r, pairs, res, kind)
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
// plan covers, and the test suite's nested-loop oracle. pred is bound
// against the joined schema once, not looked up per row pair. A non-nil ord
// collects each output row's left ordinal, l starting at row start of the
// left input.
func nestedLoopInto(out *Table, l, r *Table, pred Expr, kind JoinKind, ord *[]int32, start int) error {
	cols := out.Schema.Len()
	p := CompilePredicate(pred, out.Schema)
	for i, lr := range l.Rows {
		from := len(out.Rows)
		matched := false
		for j, rr := range r.Rows {
			nr := make(Row, 0, cols)
			nr = append(nr, lr...)
			nr = append(nr, rr...)
			ok, err := p.Selected(nr)
			if err != nil {
				return err
			}
			if ok {
				out.Rows = append(out.Rows, nr)
				out.Lineage = append(out.Lineage, mergeLineage(l.RowLineage(i), r.RowLineage(j)))
				matched = true
			}
		}
		if !matched && kind == LeftJoin {
			nr := make(Row, cols)
			copy(nr, lr)
			out.Rows = append(out.Rows, nr)
			out.Lineage = append(out.Lineage, l.RowLineage(i))
		}
		if ord != nil {
			for ; from < len(out.Rows); from++ {
				*ord = append(*ord, int32(start+i))
			}
		}
	}
	return nil
}

// GroupByState is the GroupBy accumulator — the one place rows are grouped
// and aggregated. GroupBy feeds it a whole scan and emits once; the ETL
// delta path retains it, feeds only the rows appended since and re-emits.
// Group keys are interned to dense ids (one map probe per row, no per-row
// key allocation), numeric aggregates accumulate over the typed column
// vectors of each batch, and lineage refs are copied once, on emit, into
// each group's exactly-sized set. Feeding a table in pieces is
// byte-identical to feeding it whole: group order is first-seen, and float
// SUM/AVG accumulate in row order within a group either way.
type GroupByState struct {
	template *Table // schema, name and provenance donor; never mutated
	keys     []string
	aggs     []AggSpec
	keyIdx   []int
	aggIdx   []int // -1 marks COUNT(*)
	cols     []int // the columns add reads: the keys, then the aggregate inputs
	keyer    *rowKeyer
	// Keys of up to two columns pack into a uint64, so the group index can
	// be a plain integer map — cheaper to hash than the composite struct.
	byWide  map[uint64]int32
	byKey   map[compositeKey]int32
	groups  []gbGroup // first-seen order
	srcRows int
}

// gbGroup is one group's key, aggregate states (one per AggSpec) and
// lineage. lineage is normalized and shared with every table emitted so
// far, so it is never written again; fresh names the member rows absorbed
// since, whose refs the next emit folds in.
type gbGroup struct {
	key       Row
	states    []aggState
	lineage   LineageSet
	fresh     []gbRows
	freshRefs int // refs the fresh rows carry, or a bound on them
}

// gbRows is the rows of one batch that fell into one group: positions into
// the batch's lineage sets, which are read, never written — and, when the
// scanned table keeps lineage columns, those and the batch's first row in
// them.
type gbRows struct {
	lin  []LineageSet
	rows []int32
	cols *lineageCols
	off  int
}

// NewGroupByState validates the keys and aggregates against t's schema
// and returns an empty accumulator. t supplies schema, name and
// provenance only; rows come from AddTable.
func NewGroupByState(t *Table, keys []string, aggs []AggSpec) (*GroupByState, error) {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		idx := t.Schema.Index(k)
		if idx < 0 {
			return nil, fmt.Errorf("relation: group key %q not in %s", k, t.Schema)
		}
		keyIdx[i] = idx
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Col == "" {
			if a.Kind != AggCount {
				return nil, fmt.Errorf("relation: aggregate %s requires a column", a.Kind)
			}
			aggIdx[i] = -1
			continue
		}
		idx := t.Schema.Index(a.Col)
		if idx < 0 {
			return nil, fmt.Errorf("relation: aggregate column %q not in %s", a.Col, t.Schema)
		}
		aggIdx[i] = idx
	}
	capHint := min(t.NumRows(), 1024)
	cols := append([]int(nil), keyIdx...)
	for _, ci := range aggIdx {
		if ci >= 0 {
			cols = append(cols, ci)
		}
	}
	s := &GroupByState{template: t, keys: keys, aggs: aggs, keyIdx: keyIdx, aggIdx: aggIdx, cols: cols,
		keyer: newRowKeyer(keyIdx, capHint)}
	if len(keyIdx) <= 2 {
		s.byWide = make(map[uint64]int32, capHint)
	} else {
		s.byKey = make(map[compositeKey]int32, capHint)
	}
	return s, nil
}

// AddTable absorbs t's rows, batch by batch, carrying each row's lineage.
// A segment scan decodes the key and aggregate columns and no other.
func (s *GroupByState) AddTable(t *Table) error {
	return eachBatch(t, nil, func(b *Batch) error { return b.load(s.cols) }, s.add)
}

// SourceRows returns the number of input rows absorbed so far. The ETL
// layer compares it with the refreshed input's length to detect that a
// rolled-back delta left the state behind the table, forcing a rebuild.
func (s *GroupByState) SourceRows() int { return s.srcRows }

// groupOf returns the dense id of the group keyed ck, opening it on first
// sight with the key cells of row ri of the key vectors.
func (s *GroupByState) groupOf(ck compositeKey, keyVecs []*Vector, ri int) int32 {
	var gi int32
	var ok bool
	if s.byWide != nil {
		gi, ok = s.byWide[ck.wide]
	} else {
		gi, ok = s.byKey[ck]
	}
	if ok {
		return gi
	}
	gi = int32(len(s.groups))
	if s.byWide != nil {
		s.byWide[ck.wide] = gi
	} else {
		s.byKey[ck] = gi
	}
	key := make(Row, len(keyVecs))
	for i, v := range keyVecs {
		key[i] = v.Value(ri)
	}
	states := make([]aggState, len(s.aggs))
	for i := range states {
		states[i].allInt = true
	}
	s.groups = append(s.groups, gbGroup{key: key, states: states})
	return gi
}

// add absorbs one batch, reading the key and aggregate columns as vectors
// and the lineage of its rows — never rows, so a segment partition is
// grouped without any being built. Scratch is per batch (key ids, group
// ids, one row cursor per group), never per table.
func (s *GroupByState) add(b *Batch) error {
	n := b.Len()
	keyVecs := make([]*Vector, len(s.keyIdx))
	ids := make([][]uint32, len(s.keyIdx))
	for i, ci := range s.keyIdx {
		v, err := b.Col(ci)
		if err != nil {
			return err
		}
		buf := idBuf(n)
		defer idBufs.Put(buf)
		keyVecs[i], ids[i] = v, *buf
		s.keyer.ins[i].vecIDs(v, ids[i])
	}
	aggVecs := make([]*Vector, len(s.aggs))
	for ai, ci := range s.aggIdx {
		if ci < 0 {
			continue
		}
		v, err := b.Col(ci)
		if err != nil {
			return err
		}
		aggVecs[ai] = v
	}
	s.srcRows += n

	// Pass 1: assign group ids and count the rows and lineage refs each group
	// draws from this batch, then list the batch's rows group by group out
	// of one exactly-sized array. The refs themselves stay where they are
	// until emit, which copies them once into the group's set — copying them
	// here as well would turn the input's whole lineage into garbage on
	// every pass.
	lin, linCols := b.lineage(), b.src.lineageColumns()
	buf := idBuf(n)
	defer idBufs.Put(buf)
	gids := *buf
	cur := make([]int, len(s.groups), len(s.groups)+64)
	refs := make([]int, len(s.groups), len(s.groups)+64)
	for ri := range gids {
		gi := s.groupOf(s.keyer.vecKey(ids, ri), keyVecs, ri)
		if int(gi) == len(cur) {
			cur, refs = append(cur, 0), append(refs, 0)
		}
		gids[ri] = uint32(gi)
		cur[gi]++
		if linCols == nil {
			refs[gi] += len(lin[ri])
		}
	}
	off := 0
	for gi, n := range cur {
		if linCols != nil { // at most one ref per base table: a bound, without reading the sets
			refs[gi] = n * len(linCols.tables)
		}
		cur[gi] = off
		off += n
	}
	rows := make([]int32, n)
	for ri, gi := range gids {
		rows[cur[gi]] = int32(ri)
		cur[gi]++
	}
	start := 0
	for gi, end := range cur { // each cursor now sits at its slot's end
		if end > start {
			g := &s.groups[gi]
			g.fresh = append(g.fresh, gbRows{lin: lin, rows: rows[start:end:end], cols: linCols, off: b.start()})
			g.freshRefs += refs[gi]
		}
		start = end
	}

	// Pass 2: accumulate aggregates column by column over vectors.
	for ai, a := range s.aggs {
		if s.aggIdx[ai] < 0 { // COUNT(*): one per member row
			for _, gi := range gids {
				s.groups[gi].states[ai].n++
			}
			continue
		}
		vec := aggVecs[ai]
		switch {
		case (a.Kind == AggSum || a.Kind == AggAvg) && vec.V == nil && vec.Kind == TInt:
			for ri, x := range vec.I {
				if vec.Null != nil && vec.Null[ri] {
					continue
				}
				st := &s.groups[gids[ri]].states[ai]
				st.n++
				st.sumInt += x
				st.sum += float64(x)
			}
		case (a.Kind == AggSum || a.Kind == AggAvg) && vec.V == nil && vec.Kind == TFloat:
			for ri, f := range vec.F {
				if vec.Null != nil && vec.Null[ri] {
					continue
				}
				st := &s.groups[gids[ri]].states[ai]
				st.n++
				st.allInt = false
				st.sum += f
			}
		default:
			for ri := 0; ri < vec.Len(); ri++ {
				v := vec.Value(ri)
				if v.IsNull() {
					continue
				}
				st := &s.groups[gids[ri]].states[ai]
				st.n++
				switch a.Kind {
				case AggSum, AggAvg:
					if v.Kind == TInt {
						st.sumInt += v.I
						st.sum += float64(v.I)
					} else if f, ok := v.AsFloat(); ok {
						st.allInt = false
						st.sum += f
					}
				case AggMin:
					if st.min.IsNull() {
						st.min = v
					} else if c, ok := v.Compare(st.min); ok && c < 0 {
						st.min = v
					}
				case AggMax:
					if st.max.IsNull() {
						st.max = v
					} else if c, ok := v.Compare(st.max); ok && c > 0 {
						st.max = v
					}
				case AggCountDistinct:
					if st.distinct == nil {
						st.distinct = map[ValKey]bool{}
					}
					st.distinct[MapKey(v)] = true
				}
			}
		}
	}
	return nil
}

// idBufs recycles add's per-batch arrays of key ids and group ids, which it
// fills and is done with before it returns: 4 bytes per row and key column
// that a render would otherwise leave behind as garbage.
var idBufs sync.Pool // of *[]uint32

func idBuf(n int) *[]uint32 {
	if p, _ := idBufs.Get().(*[]uint32); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]uint32, n)
	return &b
}

// pending bounds how many refs settle will gather: none when nothing was
// absorbed since the last emit.
func (g *gbGroup) pending() int {
	if len(g.fresh) == 0 {
		return 0
	}
	return len(g.lineage) + g.freshRefs
}

// settle folds the refs of the rows absorbed since the last emit into the
// group's normalized lineage and returns it, carved out of the emit's arena:
// neither the input's lineage nor an emitted table is ever mutated. A group
// emitted for the first time whose rows all come from one frozen table reads
// that table's lineage columns — one int32 per (row, base table); any other
// gathers the refs themselves, the settled ones first.
func (g *gbGroup) settle(sc *lineageScratch) LineageSet {
	n := g.pending()
	if n == 0 {
		return g.lineage
	}
	sc.pending, sc.gathered = sc.pending-n, sc.gathered+n
	lc := g.fresh[0].cols
	for _, f := range g.fresh[1:] {
		if f.cols != lc {
			lc = nil
		}
	}
	if len(g.lineage) > 0 {
		lc = nil
	}
	if lc != nil {
		for ti, col := range lc.cols {
			start := len(sc.rows)
			for _, f := range g.fresh {
				for _, ri := range f.rows {
					if ord := col[f.off+int(ri)]; ord >= 0 {
						sc.rows = append(sc.rows, int(ord))
					}
				}
			}
			sc.add(lc.tables[ti], sc.rows[start:])
		}
		g.lineage = sc.emit()
	} else {
		if cap(sc.refs) < n {
			sc.refs = make(LineageSet, 0, sc.largest)
		}
		all := append(sc.refs[:0], g.lineage...)
		for _, f := range g.fresh {
			for _, ri := range f.rows {
				all = append(all, f.lin[ri]...)
			}
		}
		g.lineage = normalizeGroupLineage(all, sc)
	}
	g.fresh, g.freshRefs = nil, 0
	return g.lineage
}

// Result emits the grouped table. The emitted table is independent of
// the accumulator: further feeding followed by another Result never
// mutates a previously emitted table.
func (s *GroupByState) Result() *Table {
	t := s.template
	out := &Table{Name: t.Name + "_grp"}
	cols := make([]Column, 0, len(s.keys)+len(s.aggs))
	out.ColOrigin = make([]ColRefSet, 0, cap(cols))
	for i, k := range s.keys {
		cols = append(cols, Column{Name: baseName(k), Type: t.Schema.Columns[s.keyIdx[i]].Type})
		out.ColOrigin = append(out.ColOrigin, t.ColumnOrigin(s.keyIdx[i]))
	}
	for i, a := range s.aggs {
		cols = append(cols, Column{Name: a.outName(), Type: a.outType(t.Schema)})
		if s.aggIdx[i] >= 0 {
			out.ColOrigin = append(out.ColOrigin, t.ColumnOrigin(s.aggIdx[i]))
		} else {
			// COUNT(*) derives from the whole row; attribute it to all
			// input columns so provenance over-approximates rather than
			// under-approximates.
			out.ColOrigin = append(out.ColOrigin, t.AllColumnOrigins())
		}
	}
	out.Schema = &Schema{Columns: cols}

	flat := make([]Value, 0, len(s.groups)*len(cols))
	var sc lineageScratch
	for gi := range s.groups {
		n := s.groups[gi].pending()
		sc.pending += n
		sc.largest = max(sc.largest, n)
	}
	sc.rows = make([]int, 0, sc.largest)
	for gi := range s.groups {
		g := &s.groups[gi]
		start := len(flat)
		flat = append(flat, g.key...)
		for ai, a := range s.aggs {
			flat = append(flat, g.states[ai].result(a.Kind))
		}
		out.Rows = append(out.Rows, Row(flat[start:len(flat):len(flat)]))
		out.Lineage = append(out.Lineage, g.settle(&sc))
	}
	return out
}

// lineageScratch is what one emit's settles share: the arena their sets are
// carved from, and the working memory of the group being settled — its refs
// when they are gathered one by one, its row ordinals table after table,
// the bitsets that sort the dense tables, and the resulting parts.
type lineageScratch struct {
	// arena is the chunk being carved; its length is what is taken. A chunk
	// is sized by what is emitted: the set at hand, plus what the groups to
	// come will need if their refs — pending bounds them — deduplicate as
	// those gathered so far did. A small GROUP BY takes a small chunk.
	arena                      LineageSet
	pending, gathered, emitted int
	largest                    int // the most refs any one group gathers
	refs                       LineageSet
	rows                       []int
	words                      []uint64
	parts                      []linPart
}

// linPart is one base table's share of a group's lineage, ascending and
// distinct: a bitset over the ordinals when they are dense, the ordinals
// themselves otherwise.
type linPart struct {
	table string
	rows  []int
	words []uint64
	n     int
}

// carve takes room for n refs from the arena; no room is the nil set, as
// the lineage of a group that gathered nothing has always been.
func (sc *lineageScratch) carve(n int) LineageSet {
	if n == 0 {
		return nil
	}
	sc.emitted += n
	if cap(sc.arena)-len(sc.arena) < n {
		rest := sc.pending * sc.emitted / sc.gathered
		sc.arena = make(LineageSet, 0, n+min(rest+rest/8, maxGroupChunk))
	}
	start := len(sc.arena)
	sc.arena = sc.arena[:start+n]
	return sc.arena[start : start : start+n]
}

// maxGroupChunk bounds what an emit-arena chunk holds for the groups to come
// (refs): large enough that the room a chunk's last group leaves unused is a
// few percent of it.
const maxGroupChunk = 1 << 16

// add takes the ordinals the group at hand draws from one base table, in
// any order and with repeats, and sorts them in place. Tables must be added
// in ascending order. Dense ordinals (the normal case: lineage points into
// a contiguous base table) go through a bitset, which yields them sorted
// and deduplicated in one sweep with no comparison sort.
func (sc *lineageScratch) add(table string, rows []int) {
	if len(rows) == 0 {
		return
	}
	p := linPart{table: table}
	if !sort.IntsAreSorted(rows) {
		minRow, maxRow := rows[0], rows[0]
		for _, r := range rows {
			minRow, maxRow = min(minRow, r), max(maxRow, r)
		}
		if nw := maxRow/64 + 1; minRow >= 0 && maxRow < 4*len(rows)+1024 {
			if len(sc.words)+nw > cap(sc.words) {
				sc.words = make([]uint64, 0, max(nw, 2*cap(sc.words)))
			}
			p.words = sc.words[len(sc.words) : len(sc.words)+nw]
			sc.words = sc.words[:len(sc.words)+nw]
			clear(p.words)
			for _, r := range rows {
				p.words[r>>6] |= 1 << (uint(r) & 63)
			}
			for _, w := range p.words {
				p.n += bits.OnesCount64(w)
			}
			sc.parts = append(sc.parts, p)
			return
		}
		sort.Ints(rows)
	}
	p.rows = rows[:1]
	for _, r := range rows[1:] {
		if r != p.rows[len(p.rows)-1] {
			p.rows = append(p.rows, r)
		}
	}
	p.n = len(p.rows)
	sc.parts = append(sc.parts, p)
}

// emit carves the set the added parts make up and readies the scratch for
// the next group.
func (sc *lineageScratch) emit() LineageSet {
	n := 0
	for _, p := range sc.parts {
		n += p.n
	}
	out := sc.carve(n)
	for _, p := range sc.parts {
		for _, r := range p.rows {
			out = append(out, RowRef{Table: p.table, Row: r})
		}
		for wi, w := range p.words {
			for ; w != 0; w &= w - 1 {
				out = append(out, RowRef{Table: p.table, Row: wi<<6 | bits.TrailingZeros64(w)})
			}
		}
	}
	sc.parts, sc.rows, sc.words = sc.parts[:0], sc.rows[:0], sc.words[:0]
	return out
}

// normalizeGroupLineage sorts and deduplicates a group's gathered row refs
// into a set carved from sc's arena; refs is scratch. Output is identical to
// LineageSet.normalize — ascending (table, row), unique — but it buckets
// refs by table first (groups draw from a handful of base tables) and sorts
// plain ints per bucket, instead of string-comparing tables inside every
// comparison of a reflective sort.Slice.
func normalizeGroupLineage(refs LineageSet, sc *lineageScratch) LineageSet {
	if len(refs) <= 1 {
		return append(sc.carve(len(refs)), refs...)
	}
	// Bucket rows by table. A group draws from a handful of tables, so a
	// linear probe over the names beats a map: no hashing, and the
	// previous ref's table matches the next one often enough (per-row
	// lineage sets are themselves sorted) that the probe usually stops at
	// its cached index via a pointer-equal string compare.
	names := make([]string, 0, 4)
	var counts [16]int
	cur := -1
	probe := func(table string) int {
		if cur >= 0 && names[cur] == table {
			return cur
		}
		cur = -1
		for i, nm := range names {
			if nm == table {
				cur = i
				break
			}
		}
		if cur < 0 {
			names = append(names, table)
			cur = len(names) - 1
		}
		return cur
	}
	wide := false
	for _, r := range refs {
		bi := probe(r.Table)
		if bi < len(counts) {
			counts[bi]++
		} else {
			wide = true
		}
	}
	if wide {
		// Pathological table fan-out: fall back to the generic normalize.
		refs = refs.normalize()
		return append(sc.carve(len(refs)), refs...)
	}
	rowArena := sc.rows[:len(refs)]
	buckets := make([][]int, len(names))
	off := 0
	for i := range names {
		buckets[i] = rowArena[off : off : off+counts[i]]
		off += counts[i]
	}
	cur = -1
	for _, r := range refs {
		bi := probe(r.Table)
		buckets[bi] = append(buckets[bi], r.Row)
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	for _, bi := range order {
		sc.add(names[bi], buckets[bi])
	}
	return sc.emit()
}

// distinctVec is the vectorized Distinct: whole-row keys are interned per
// column instead of concatenating Key() strings.
func distinctVec(t *Table) *Table {
	out := t.derived(t.Name + "_dist")
	allCols := make([]int, t.Schema.Len())
	for i := range allCols {
		allCols[i] = i
	}
	capHint := len(t.Rows)
	if capHint > 1024 {
		capHint = 1024
	}
	keyer := newRowKeyer(allCols, capHint)
	index := make(map[compositeKey]int, capHint)
	for i, r := range t.Rows {
		k := keyer.key(r)
		if j, ok := index[k]; ok {
			out.Lineage[j] = append(out.Lineage[j], t.RowLineage(i)...)
			continue
		}
		index[k] = len(out.Rows)
		out.Rows = append(out.Rows, r)
		out.Lineage = append(out.Lineage, append(LineageSet(nil), t.RowLineage(i)...))
	}
	for j := range out.Lineage {
		out.Lineage[j] = out.Lineage[j].normalize()
	}
	return out
}
