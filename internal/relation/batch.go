package relation

import (
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-size selection bitmap over the rows of a Batch.
type Bitmap struct {
	bits []uint64
	n    int
}

// NewBitmap returns an empty bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of addressable rows.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i as selected.
func (b *Bitmap) Set(i int) { b.bits[i>>6] |= 1 << uint(i&63) }

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool { return b.bits[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of selected rows.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Batch is what a scan hands to the operators: every row of an in-memory
// table, or one partition of a segment-backed one. Operators read it by
// column, through Col, and by nothing else: a stored table hands over its
// own vectors, an edge-form table (a literal, a loader's table, a delta's
// rows) is transposed column by column on first use (a kernel touching two
// columns of a twelve-column table pays for those two), and a partition's
// verified block is decoded straight into typed storage. Vectors are
// read-only: a stored table's are shared by every scan of it.
type Batch struct {
	src  *Table // the scanned table: name, schema, provenance; the cells when in memory
	n    int
	cols []*Vector

	// A segment batch: the partition file, read and verified whole by
	// SegmentStore.readPartition, its column blocks still encoded. The
	// blocks alias buf, which the batch owns until release.
	seg      *segBacking
	part     *segPart
	hdr      *segHeader
	blocks   [][]byte
	buf      *[]byte
	released bool
}

// NewBatch wraps t for columnar execution. A table still being built must
// not be written while the batch is in use; a table in a catalog snapshot is
// never written again (the contract of sql.Catalog.Register and Refresh).
func NewBatch(t *Table) *Batch {
	return &Batch{src: t, n: t.NumRows(), cols: make([]*Vector, t.Schema.Len())}
}

// Len returns the row count.
func (b *Batch) Len() int { return b.n }

// Schema returns the batch schema.
func (b *Batch) Schema() *Schema { return b.src.Schema }

// start returns the ordinal, in the scanned table, of the batch's first
// row.
func (b *Batch) start() int {
	if b.part == nil {
		return 0
	}
	return b.part.start
}

// Col returns the vector of column ci, extracting it on first use. Only a
// segment batch can fail: a block that passed its checksum but does not
// have the shape its encoding promises is a *CorruptError, and a column
// first asked for after the scan moved past the batch is an error too — the
// partition's bytes are gone by then; vectors extracted earlier stay valid.
func (b *Batch) Col(ci int) (*Vector, error) {
	if b.cols[ci] == nil {
		if b.part == nil {
			b.cols[ci] = b.src.column(ci)
			return b.cols[ci], nil
		}
		if b.released {
			return nil, fmt.Errorf("relation: segment %s: column %d asked for after the scan moved on", b.part.path, ci)
		}
		v, err := decodeVector(b.blocks[ci], ci, b.hdr.Cols[ci].Enc, b.n)
		if err != nil {
			b.seg.store.Metrics().Counter("segment.read.errors").Inc()
			return nil, pathed(err, b.part.path)
		}
		b.cols[ci] = v
	}
	return b.cols[ci], nil
}

// predCols returns the indices of the columns of s that pred names.
func predCols(pred Expr, s *Schema) []int {
	var cols []int
	for _, name := range ColumnsOf(pred) {
		if ci := s.Index(name); ci >= 0 {
			cols = append(cols, ci)
		}
	}
	return cols
}

// load extracts the listed columns, so that what follows can read b.cols.
func (b *Batch) load(cols []int) error {
	for _, ci := range cols {
		if _, err := b.Col(ci); err != nil {
			return err
		}
	}
	return nil
}

// row fills dst with row i of the batch, for the kernels that bind a
// predicate to a row (the fallback of Select); it decodes whatever columns
// are still encoded.
func (b *Batch) row(i int, dst Row) error {
	for ci := range dst {
		v, err := b.Col(ci)
		if err != nil {
			return err
		}
		dst[ci] = v.Value(i)
	}
	return nil
}

// gather returns every column of the batch at the rows ord names by their
// ordinals in the scanned table: the batch's own vectors, shared, when ord
// names every row in order.
func (b *Batch) gather(ord []int32) ([]*Vector, error) {
	idx, start := ord, int32(b.start())
	if start != 0 {
		idx = make([]int32, len(ord))
		for k, o := range ord {
			idx[k] = o - start
		}
	}
	every := len(idx) == b.n
	for k := 0; every && k < len(idx); k++ {
		every = idx[k] == int32(k)
	}
	out := make([]*Vector, len(b.cols))
	for ci := range out {
		v, err := b.Col(ci)
		if err != nil {
			return nil, err
		}
		if out[ci] = v; !every {
			out[ci] = v.gather(idx)
		}
	}
	return out, nil
}

// release ends a segment batch's hold on its partition, once: it reports
// how many of the verified column blocks were decoded and how many never
// were, and hands the file's bytes back for the next read.
func (b *Batch) release() {
	if b == nil || b.part == nil || b.released {
		return
	}
	b.released = true
	b.blocks = nil
	partBufs.Put(b.buf)
	b.buf = nil
	decoded := 0
	for _, v := range b.cols {
		if v != nil {
			decoded++
		}
	}
	m := b.seg.store.Metrics()
	m.Counter("segment.read.columns").Add(uint64(decoded))
	m.Counter("segment.read.columns_skipped").Add(uint64(len(b.cols) - decoded))
}

// Filter evaluates pred over the batch with the vectorized kernels and
// returns the selection bitmap of rows where the predicate is exactly
// TRUE. ok is false when the predicate shape has no kernel (the caller
// then binds the predicate to column positions and evaluates the bound
// tree row at a time, each node by its own Eval); a nil predicate selects
// every row. Only the columns the predicate names are extracted.
func (b *Batch) Filter(pred Expr) (sel *Bitmap, ok bool, err error) {
	n := b.Len()
	sel = NewBitmap(n)
	if pred == nil {
		for i := 0; i < n; i++ {
			sel.Set(i)
		}
		return sel, true, nil
	}
	if err := b.load(predCols(pred, b.Schema())); err != nil {
		return nil, false, err
	}
	tv, ok := evalVecPred(pred, b)
	if !ok {
		return nil, false, nil
	}
	for i, t := range tv {
		if t == tT {
			sel.Set(i)
		}
	}
	return sel, true, nil
}

// selected appends to ord the ordinals, in the scanned table, of the rows
// sel selects.
func (b *Batch) selected(sel *Bitmap, ord []int32) []int32 {
	for i := 0; i < sel.Len(); i++ {
		if sel.Get(i) {
			ord = append(ord, int32(b.start()+i))
		}
	}
	return ord
}

// evalVecPred evaluates a predicate tree over the batch using the truth
// kernels. It supports comparison/logic trees over column references and
// literals; any other shape reports ok=false. Filter has extracted every
// column the predicate names, so b.cols is read directly.
func evalVecPred(e Expr, b *Batch) (truth, bool) {
	s := b.Schema()
	switch ex := e.(type) {
	case *LitExpr:
		return broadcast(b.Len(), truthOf(ex.V)), true
	case *ColExpr:
		ci := s.Index(ex.Name)
		if ci < 0 {
			return nil, false
		}
		return boolVec(b.cols[ci]), true
	case *BinExpr:
		switch ex.Op {
		case OpAnd, OpOr:
			lt, ok := evalVecPred(ex.L, b)
			if !ok {
				return nil, false
			}
			rt, ok := evalVecPred(ex.R, b)
			if !ok {
				return nil, false
			}
			if ex.Op == OpAnd {
				return andTruth(lt, rt), true
			}
			return orTruth(lt, rt), true
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			lc, lIsCol := ex.L.(*ColExpr)
			rc, rIsCol := ex.R.(*ColExpr)
			ll, lIsLit := ex.L.(*LitExpr)
			rl, rIsLit := ex.R.(*LitExpr)
			switch {
			case lIsCol && rIsCol:
				li, ri := s.Index(lc.Name), s.Index(rc.Name)
				if li < 0 || ri < 0 {
					return nil, false
				}
				return cmpVecVec(ex.Op, b.cols[li], b.cols[ri]), true
			case lIsCol && rIsLit:
				ci := s.Index(lc.Name)
				if ci < 0 {
					return nil, false
				}
				return cmpVecLit(ex.Op, b.cols[ci], rl.V), true
			case lIsLit && rIsCol:
				ci := s.Index(rc.Name)
				if ci < 0 {
					return nil, false
				}
				return cmpVecLit(flipCmp(ex.Op), b.cols[ci], ll.V), true
			case lIsLit && rIsLit:
				return broadcast(b.Len(), cmpValues(ex.Op, ll.V, rl.V)), true
			default:
				return nil, false
			}
		case OpLike:
			lc, lIsCol := ex.L.(*ColExpr)
			rl, rIsLit := ex.R.(*LitExpr)
			if !lIsCol || !rIsLit {
				return nil, false
			}
			ci := s.Index(lc.Name)
			if ci < 0 {
				return nil, false
			}
			return likeVec(b.cols[ci], rl.V), true
		default:
			return nil, false
		}
	case *NotExpr:
		sub, ok := evalVecPred(ex.E, b)
		if !ok {
			return nil, false
		}
		return notTruth(sub), true
	case *IsNullExpr:
		switch inner := ex.E.(type) {
		case *ColExpr:
			ci := s.Index(inner.Name)
			if ci < 0 {
				return nil, false
			}
			return isNullVec(b.cols[ci], ex.Negate), true
		case *LitExpr:
			if inner.V.IsNull() != ex.Negate {
				return broadcast(b.Len(), tT), true
			}
			return broadcast(b.Len(), tF), true
		default:
			return nil, false
		}
	case *InExpr:
		inner, isCol := ex.E.(*ColExpr)
		if !isCol {
			return nil, false
		}
		ci := s.Index(inner.Name)
		if ci < 0 {
			return nil, false
		}
		lits := make([]Value, len(ex.List))
		for i, le := range ex.List {
			lt, isLit := le.(*LitExpr)
			if !isLit {
				return nil, false
			}
			lits[i] = lt.V
		}
		return inVec(b.cols[ci], lits, ex.Negate), true
	default:
		return nil, false
	}
}

// flipCmp mirrors a comparison operator for swapped operands.
func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

func broadcast(n int, t int8) truth {
	out := make(truth, n)
	if t != tF {
		for i := range out {
			out[i] = t
		}
	}
	return out
}
