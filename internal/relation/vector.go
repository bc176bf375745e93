package relation

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Vector is one column of a Batch — and of a stored table, whose cells it
// is — decomposed into typed storage. A column whose non-null values all
// share one Kind is stored in the matching flat array (plus a null mask),
// so predicate and aggregation kernels run tight loops over contiguous
// memory instead of loading the full Value struct per cell; a string
// column as codes into a dictionary of its distinct strings, so its cells
// hold no pointers and gathering, copying and scanning one moves four
// bytes a cell. Mixed-kind columns (possible because schemas are advisory
// — e.g. masked cells drop strings into numeric columns) fall back to a
// generic []Value representation with identical semantics.
type Vector struct {
	// Kind is the homogeneous value kind, or TNull when the column is
	// mixed-kind (generic fallback) or entirely null.
	Kind Type
	// Null flags null cells; nil when the column has no nulls.
	Null []bool

	I []int64
	F []float64
	// S holds a string column's cells as codes into Dict: cell i is
	// Dict[S[i]] (a null cell's code is 0). Vectors gathered, sliced or
	// edited from one share its dictionary's array, each reading its own
	// length of it; ix is how the edits that bring new strings extend it.
	S    []int32
	Dict []string
	ix   *strIndex
	B    []bool
	T    []Day

	// V is the generic fallback storage for mixed-kind columns.
	V []Value

	n int

	// claimed is taken by the one edit that may write into the room behind
	// the arrays (editVector). next records the first edit of this vector
	// and the vector it made — an identical edit, of another table version
	// sharing this vector, reads it instead of copying the arrays again —
	// and prev is the record of the edit that made this one, which retires
	// once this vector is edited in turn, so that no chain of versions is
	// held through the records.
	claimed atomic.Bool
	next    atomic.Pointer[editRecord]
	prev    *editRecord
}

// strIndex is shared by the vectors whose dictionaries share one array:
// the longest dictionary written into it (the frontier, which only grows)
// and, built on the first edit that asks, its strings' codes. A vector
// whose dictionary is the frontier appends a new string into the array's
// room; any other copies its dictionary into an index of its own. Readers
// never touch it: they read their own Dict.
type strIndex struct {
	mu   sync.Mutex
	dict []string
	ids  map[string]int32
}

// newStrIndex returns the index of a fresh dictionary.
func newStrIndex(dict []string) *strIndex { return &strIndex{dict: dict} }

// code returns the code of s in v's dictionary, adding s when it is not
// there. v is a vector being built, not yet read by anyone.
func (v *Vector) code(s string) int32 {
	ix := v.ix
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(v.Dict) != len(ix.dict) || len(v.Dict) > 0 && &v.Dict[0] != &ix.dict[0] {
		// Another vector extended the array past v's dictionary: fork.
		ix = newStrIndex(slices.Clip(slices.Clone(v.Dict)))
		ix.mu.Lock()
		defer ix.mu.Unlock()
		v.ix, v.Dict = ix, ix.dict
	}
	if ix.ids == nil {
		ix.ids = make(map[string]int32, len(ix.dict))
		for c := len(ix.dict) - 1; c >= 0; c-- { // the first code of a string wins
			ix.ids[ix.dict[c]] = int32(c)
		}
	}
	c, ok := ix.ids[s]
	if !ok {
		c = int32(len(ix.dict))
		ix.dict = append(ix.dict, s)
		ix.ids[s] = c
		v.Dict = ix.dict
	}
	return c
}

// Len returns the number of elements.
func (v *Vector) Len() int { return v.n }

// Value reconstructs element i as a Value.
func (v *Vector) Value(i int) Value {
	if v.V != nil {
		return v.V[i]
	}
	if v.Null != nil && v.Null[i] {
		return Null()
	}
	switch v.Kind {
	case TString:
		return Str(v.Dict[v.S[i]])
	case TInt:
		return Int(v.I[i])
	case TFloat:
		return Float(v.F[i])
	case TBool:
		return Bool(v.B[i])
	case TDate:
		return Value{Kind: TDate, T: v.T[i]}
	default:
		return Null()
	}
}

// IsNull reports whether element i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.V != nil {
		return v.V[i].IsNull()
	}
	return v.Null != nil && v.Null[i]
}

// vectorOf decomposes the n cells at(0), …, at(n-1) into typed storage:
// the flat array of the one kind every non-null cell has, and a null mask;
// or, over cells of mixed kinds or none that is not null, generic storage.
func vectorOf(n int, at func(int) Value) *Vector {
	kind := TNull
	for i := 0; i < n; i++ {
		k := at(i).Kind
		if k == TNull {
			continue
		}
		if kind == TNull {
			kind = k
		} else if kind != k {
			kind = -1 // mixed
			break
		}
	}
	if kind == TNull || kind == -1 {
		v := &Vector{n: n, V: make([]Value, n)}
		for i := range v.V {
			v.V[i] = at(i)
		}
		return v
	}
	v := newTyped(kind, n)
	if kind != TString {
		for i := 0; i < n; i++ {
			v.set(i, at(i))
		}
		return v
	}
	// Built here, not through code: v is no one's but ours. A short column
	// finds its strings by scanning the dictionary, a long one in a map.
	var ids map[string]int32
	if n > 32 {
		ids = map[string]int32{}
	}
	for i := range v.S {
		c := at(i)
		if c.Kind != TString {
			v.set(i, c)
			continue
		}
		code := int32(-1)
		if ids == nil {
			code = int32(slices.Index(v.Dict, c.S))
		} else if id, ok := ids[c.S]; ok {
			code = id
		}
		if code < 0 {
			code = int32(len(v.Dict))
			v.Dict = append(v.Dict, c.S)
			if ids != nil {
				ids[c.S] = code
			}
		}
		v.S[i] = code
	}
	v.Dict = slices.Clip(v.Dict)
	v.ix = newStrIndex(v.Dict)
	return v
}

// newTyped returns a typed vector of n zero cells of kind.
func newTyped(kind Type, n int) *Vector {
	v := &Vector{Kind: kind, n: n}
	switch kind {
	case TString:
		v.S, v.ix = make([]int32, n), newStrIndex(nil)
	case TInt:
		v.I = make([]int64, n)
	case TFloat:
		v.F = make([]float64, n)
	case TBool:
		v.B = make([]bool, n)
	case TDate:
		v.T = make([]Day, n)
	}
	return v
}

// transpose is column ci of rows as a vector: how a row-form input — a
// literal, a loader's table, a delta's rows — enters the operators, once.
func transpose(rows []Row, ci int) *Vector {
	return vectorOf(len(rows), func(i int) Value { return rows[i][ci] })
}

// set writes c into cell i of a typed vector being built, whose kind c has
// unless it is NULL; a null cell holds the zero value.
func (v *Vector) set(i int, c Value) {
	if c.Kind == TNull {
		if v.Null == nil {
			v.Null = make([]bool, v.n, v.capacity())
		}
		v.Null[i] = true
		c = Value{Kind: v.Kind}
	} else if v.Null != nil {
		v.Null[i] = false
	}
	switch v.Kind {
	case TString:
		v.S[i] = 0
		if c.Kind == TString {
			v.S[i] = v.code(c.S)
		}
	case TInt:
		v.I[i] = c.I
	case TFloat:
		v.F[i] = c.F
	case TBool:
		v.B[i] = c.B
	case TDate:
		v.T[i] = c.T
	}
}

// capacity returns the capacity of a typed vector's array: what set gives
// a null mask it allocates, so that an edit growing the array in place can
// grow the mask too.
func (v *Vector) capacity() int {
	switch v.Kind {
	case TString:
		return cap(v.S)
	case TInt:
		return cap(v.I)
	case TFloat:
		return cap(v.F)
	case TBool:
		return cap(v.B)
	default:
		return cap(v.T)
	}
}

// holds reports whether every cell of o fits v's typed storage: v is
// typed, and each cell of o is NULL or of v's kind.
func (v *Vector) holds(o *Vector) bool {
	if v.V != nil {
		return false
	}
	if o.V == nil {
		return o.Kind == v.Kind
	}
	for _, c := range o.V {
		if c.Kind != TNull && c.Kind != v.Kind {
			return false
		}
	}
	return true
}

// generic returns v in generic storage.
func (v *Vector) generic() *Vector {
	if v.V != nil {
		return v
	}
	return &Vector{n: v.n, V: v.values(0, v.n)}
}

// values returns cells [lo, hi) of v as Values.
func (v *Vector) values(lo, hi int) []Value {
	out := make([]Value, hi-lo)
	for i := range out {
		out[i] = v.Value(lo + i)
	}
	return out
}

// gather returns the vector of v's cells at idx, an index of -1 giving
// NULL: what a select, a sort or a join's output column is. A string
// column's gather shares its dictionary.
func (v *Vector) gather(idx []int32) *Vector {
	out := &Vector{Kind: v.Kind, n: len(idx)}
	if v.V != nil {
		out.V = gatherArr(v.V, idx)
		return out
	}
	if v.Null != nil || slices.Contains(idx, -1) {
		out.Null = make([]bool, len(idx))
		for k, i := range idx {
			out.Null[k] = i < 0 || v.Null != nil && v.Null[i]
		}
	}
	switch v.Kind {
	case TString:
		out.S, out.Dict, out.ix = gatherArr(v.S, idx), v.Dict, v.ix
	case TInt:
		out.I = gatherArr(v.I, idx)
	case TFloat:
		out.F = gatherArr(v.F, idx)
	case TBool:
		out.B = gatherArr(v.B, idx)
	case TDate:
		out.T = gatherArr(v.T, idx)
	}
	return out
}

// gatherArr returns a's elements at idx, the zero value at an index of -1.
func gatherArr[T any](a []T, idx []int32) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		if i >= 0 {
			out[k] = a[i]
		}
	}
	return out
}

// slice returns v's cells [lo, hi), sharing its storage, capped so that
// nothing appended to the view reaches v's arrays.
func (v *Vector) slice(lo, hi int) *Vector {
	out := &Vector{Kind: v.Kind, n: hi - lo}
	if v.Null != nil {
		out.Null = v.Null[lo:hi:hi]
	}
	switch {
	case v.V != nil:
		out.V = v.V[lo:hi:hi]
	case v.Kind == TString:
		out.S, out.Dict, out.ix = v.S[lo:hi:hi], v.Dict, v.ix
	case v.Kind == TInt:
		out.I = v.I[lo:hi:hi]
	case v.Kind == TFloat:
		out.F = v.F[lo:hi:hi]
	case v.Kind == TBool:
		out.B = v.B[lo:hi:hi]
	case v.Kind == TDate:
		out.T = v.T[lo:hi:hi]
	}
	return out
}

// concatVectors returns the cells of vs one after another: typed when
// every part is typed alike (or holds only NULLs besides), generic
// otherwise. A typed string part's codes are recoded into the result's
// dictionary, one lookup per distinct code.
func concatVectors(vs ...*Vector) *Vector {
	n, kind := 0, TNull
	for _, v := range vs {
		n += v.n
		switch {
		case v.n == 0 || v.V != nil:
		case kind == TNull:
			kind = v.Kind
		case kind != v.Kind:
			kind = -1
		}
	}
	typed := kind != TNull && kind != -1
	for _, v := range vs {
		typed = typed && (v.V == nil || (&Vector{Kind: kind}).holds(v))
	}
	if !typed {
		out := &Vector{n: n, V: make([]Value, 0, n)}
		for _, v := range vs {
			out.V = append(out.V, v.values(0, v.n)...)
		}
		return out
	}
	out := newTyped(kind, n)
	at := 0
	for _, v := range vs {
		var recode []int32 // v's codes in out's, -1 until met
		if kind == TString && v.V == nil {
			recode = make([]int32, len(v.Dict))
			for c := range recode {
				recode[c] = -1
			}
		}
		for i := 0; i < v.n; i++ {
			if recode == nil || v.IsNull(i) {
				out.set(at+i, v.Value(i))
				continue
			}
			c := v.S[i]
			if recode[c] < 0 {
				recode[c] = out.code(v.Dict[c])
			}
			out.S[at+i] = recode[c]
		}
		at += v.n
	}
	if out.ix != nil {
		out.ix.ids = nil
	}
	return out
}

// clone returns a deep copy of v, its dictionary its own.
func (v *Vector) clone() *Vector {
	c := &Vector{Kind: v.Kind, n: v.n, Null: slices.Clone(v.Null), I: slices.Clone(v.I),
		F: slices.Clone(v.F), S: slices.Clone(v.S), B: slices.Clone(v.B), T: slices.Clone(v.T), V: slices.Clone(v.V)}
	if v.ix != nil {
		c.Dict = slices.Clip(slices.Clone(v.Dict))
		c.ix = newStrIndex(c.Dict)
	}
	return c
}

// editRecord holds the first edit of a vector until the vector it made is
// itself edited.
type editRecord struct{ edit atomic.Pointer[vecEdit] }

// vecEdit is one edit of a vector and the vector it made: the edit's row
// lists and the dirty cells it wrote, in Dirty order.
type vecEdit struct {
	removed, updated []int
	appended         int
	cells            []Value
	w                *Vector
}

// same reports whether e, writing cells, is the edit m recorded.
func (m *vecEdit) same(e Edit, cells []Value) bool {
	return m.appended == e.Appended && slices.Equal(m.removed, e.Removed) && slices.Equal(m.updated, e.Updated) &&
		slices.EqualFunc(m.cells, cells, sameCell)
}

// sameCell reports whether a and b are the same cell, a float bit for bit.
func sameCell(a, b Value) bool {
	if a.Kind == TFloat && b.Kind == TFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

// editVector is v, one column of the version an edit came from, edited
// into the n cells of the next: typed arrays and null mask cut and grown
// with editArray, the dirty rows set from repl (its cells in Dirty order).
// A dirty cell of another kind turns the column generic. The arrays grow
// in place only for an edit that only appends and claims v's room first;
// any other copies them. Versions of different tables share a vector —
// a join's output its left input's, when every left row is one output row
// — and an edit of v identical to its first reads that edit's vector, so
// one delta copies each column once, however many versions hold it.
func editVector(v *Vector, e Edit, n int, dirty []int, repl *Vector) *Vector {
	cells := make([]Value, len(dirty))
	for i := range cells {
		cells[i] = repl.Value(i)
	}
	if v.prev != nil {
		v.prev.edit.Store(nil)
	}
	rec := v.next.Load()
	if rec == nil {
		v.next.CompareAndSwap(nil, new(editRecord))
		rec = v.next.Load()
	}
	if m := rec.edit.Load(); m != nil && m.same(e, cells) {
		return m.w
	}
	src, grow := v, false
	switch {
	case len(dirty) > 0 && v.V == nil && !v.holds(repl):
		src = v.generic()
	case e.onlyAppends():
		grow = v.claimed.CompareAndSwap(false, true)
	}
	w := &Vector{Kind: src.Kind, n: n}
	if src.V != nil {
		w.V = editArray(src.V, e, n, grow)
		for i, ri := range dirty {
			w.V[ri] = cells[i]
		}
	} else {
		if src.Null != nil {
			w.Null = editArray(src.Null, e, n, grow)
		}
		switch src.Kind {
		case TString:
			w.S, w.Dict, w.ix = editArray(src.S, e, n, grow), src.Dict, src.ix
		case TInt:
			w.I = editArray(src.I, e, n, grow)
		case TFloat:
			w.F = editArray(src.F, e, n, grow)
		case TBool:
			w.B = editArray(src.B, e, n, grow)
		case TDate:
			w.T = editArray(src.T, e, n, grow)
		}
		for i, ri := range dirty {
			w.set(ri, cells[i])
		}
	}
	if rec.edit.CompareAndSwap(nil, &vecEdit{removed: slices.Clone(e.Removed), updated: slices.Clone(e.Updated), appended: e.Appended, cells: cells, w: w}) {
		w.prev = rec
	}
	return w
}

// truth is a vector of SQL three-valued logic outcomes.
type truth []int8

// Three-valued logic outcomes.
const (
	tF int8 = iota // FALSE (includes "non-bool operand" at logic level)
	tT             // TRUE
	tN             // NULL / unknown
)

// truthOf maps a Value to its predicate outcome under evalLogic's rules:
// exactly-true booleans are TRUE, false booleans FALSE, everything else
// (NULL or non-bool) NULL.
func truthOf(v Value) int8 {
	if v.Kind == TBool {
		if v.B {
			return tT
		}
		return tF
	}
	return tN
}

// cmpTruth converts a comparison result to a truth value for the operator.
func cmpTruth(op BinOp, c int) int8 {
	var b bool
	switch op {
	case OpEq:
		b = c == 0
	case OpNe:
		b = c != 0
	case OpLt:
		b = c < 0
	case OpLe:
		b = c <= 0
	case OpGt:
		b = c > 0
	default:
		b = c >= 0
	}
	if b {
		return tT
	}
	return tF
}

// cmpValues evaluates `a op b` for a comparison operator with the exact
// semantics of BinExpr.Eval: NULL operands and incomparable kinds yield
// NULL.
func cmpValues(op BinOp, a, b Value) int8 {
	if a.IsNull() || b.IsNull() {
		return tN
	}
	c, ok := a.Compare(b)
	if !ok {
		return tN
	}
	return cmpTruth(op, c)
}

// cmpVecLit compares every element of v with the literal lit.
func cmpVecLit(op BinOp, v *Vector, lit Value) truth {
	out := make(truth, v.n)
	if lit.IsNull() {
		for i := range out {
			out[i] = tN
		}
		return out
	}
	if v.V != nil {
		for i := range out {
			out[i] = cmpValues(op, v.V[i], lit)
		}
		return out
	}
	switch {
	case v.Kind == TString && lit.Kind == TString:
		// Each distinct string is compared once, when the dictionary is no
		// larger than the column.
		ls := lit.S
		cmp := func(s string) int8 {
			switch {
			case s < ls:
				return cmpTruth(op, -1)
			case s > ls:
				return cmpTruth(op, 1)
			}
			return cmpTruth(op, 0)
		}
		var byCode []int8
		if len(v.Dict) <= v.n {
			byCode = make([]int8, len(v.Dict))
			for c, s := range v.Dict {
				byCode[c] = cmp(s)
			}
		}
		for i, c := range v.S {
			switch {
			case v.Null != nil && v.Null[i]:
				out[i] = tN
			case byCode != nil:
				out[i] = byCode[c]
			default:
				out[i] = cmp(v.Dict[c])
			}
		}
	case v.Kind == TInt && lit.Kind == TInt:
		li := lit.I
		for i, x := range v.I {
			if v.Null != nil && v.Null[i] {
				out[i] = tN
				continue
			}
			switch {
			case x < li:
				out[i] = cmpTruth(op, -1)
			case x > li:
				out[i] = cmpTruth(op, 1)
			default:
				out[i] = cmpTruth(op, 0)
			}
		}
	case (v.Kind == TInt || v.Kind == TFloat) && (lit.Kind == TInt || lit.Kind == TFloat):
		// Mixed numeric: coerce to float64 like Value.Compare.
		lf, _ := lit.AsFloat()
		get := func(i int) float64 {
			if v.Kind == TInt {
				return float64(v.I[i])
			}
			return v.F[i]
		}
		for i := 0; i < v.n; i++ {
			if v.Null != nil && v.Null[i] {
				out[i] = tN
				continue
			}
			x := get(i)
			switch {
			case x < lf:
				out[i] = cmpTruth(op, -1)
			case x > lf:
				out[i] = cmpTruth(op, 1)
			case x == lf:
				out[i] = cmpTruth(op, 0)
			default: // NaN involved: incomparable under <,>; Compare says equal
				out[i] = cmpTruth(op, 0)
			}
		}
	default:
		// Kind mismatch or per-element semantics (dates, bools): generic.
		for i := 0; i < v.n; i++ {
			out[i] = cmpValues(op, v.Value(i), lit)
		}
	}
	return out
}

// cmpVecVec compares two vectors element-wise.
func cmpVecVec(op BinOp, a, b *Vector) truth {
	out := make(truth, a.n)
	if a.V == nil && b.V == nil && a.Kind == TString && b.Kind == TString {
		for i := range out {
			if (a.Null != nil && a.Null[i]) || (b.Null != nil && b.Null[i]) {
				out[i] = tN
				continue
			}
			x, y := a.Dict[a.S[i]], b.Dict[b.S[i]]
			switch {
			case x < y:
				out[i] = cmpTruth(op, -1)
			case x > y:
				out[i] = cmpTruth(op, 1)
			default:
				out[i] = cmpTruth(op, 0)
			}
		}
		return out
	}
	if a.V == nil && b.V == nil && a.Kind == TInt && b.Kind == TInt {
		for i := range out {
			if (a.Null != nil && a.Null[i]) || (b.Null != nil && b.Null[i]) {
				out[i] = tN
				continue
			}
			x, y := a.I[i], b.I[i]
			switch {
			case x < y:
				out[i] = cmpTruth(op, -1)
			case x > y:
				out[i] = cmpTruth(op, 1)
			default:
				out[i] = cmpTruth(op, 0)
			}
		}
		return out
	}
	for i := range out {
		out[i] = cmpValues(op, a.Value(i), b.Value(i))
	}
	return out
}

// likeVec evaluates `v LIKE pattern` element-wise (BinExpr OpLike
// semantics: non-string operands yield NULL).
func likeVec(v *Vector, pattern Value) truth {
	out := make(truth, v.n)
	if pattern.IsNull() {
		for i := range out {
			out[i] = tN
		}
		return out
	}
	for i := 0; i < v.n; i++ {
		lv := v.Value(i)
		if lv.IsNull() {
			out[i] = tN
			continue
		}
		if lv.Kind != TString || pattern.Kind != TString {
			out[i] = tN
			continue
		}
		if likeMatch(pattern.S, lv.S) {
			out[i] = tT
		} else {
			out[i] = tF
		}
	}
	return out
}

// isNullVec evaluates IS [NOT] NULL element-wise.
func isNullVec(v *Vector, negate bool) truth {
	out := make(truth, v.n)
	for i := 0; i < v.n; i++ {
		if v.IsNull(i) != negate {
			out[i] = tT
		} else {
			out[i] = tF
		}
	}
	return out
}

// inVec evaluates `v IN (lits...)` element-wise with InExpr semantics.
func inVec(v *Vector, lits []Value, negate bool) truth {
	out := make(truth, v.n)
	for i := 0; i < v.n; i++ {
		el := v.Value(i)
		if el.IsNull() {
			out[i] = tN
			continue
		}
		sawNull := false
		res := tF
		for _, lv := range lits {
			if lv.IsNull() {
				sawNull = true
				continue
			}
			if el.Equal(lv) {
				res = tT
				break
			}
		}
		switch {
		case res == tT && negate:
			out[i] = tF
		case res == tT:
			out[i] = tT
		case sawNull:
			out[i] = tN
		case negate:
			out[i] = tT
		default:
			out[i] = tF
		}
	}
	return out
}

// boolVec maps a vector to predicate outcomes (bare column used as a
// boolean): exactly-true booleans are TRUE, false FALSE, all else NULL.
func boolVec(v *Vector) truth {
	out := make(truth, v.n)
	if v.V == nil && v.Kind == TBool && v.Null == nil {
		for i, b := range v.B {
			if b {
				out[i] = tT
			}
		}
		return out
	}
	for i := 0; i < v.n; i++ {
		out[i] = truthOf(v.Value(i))
	}
	return out
}

// andTruth combines two truth vectors with SQL AND (in place into a).
func andTruth(a, b truth) truth {
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x == tF || y == tF:
			a[i] = tF
		case x == tN || y == tN:
			a[i] = tN
		default:
			a[i] = tT
		}
	}
	return a
}

// orTruth combines two truth vectors with SQL OR (in place into a).
func orTruth(a, b truth) truth {
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x == tT || y == tT:
			a[i] = tT
		case x == tN || y == tN:
			a[i] = tN
		default:
			a[i] = tF
		}
	}
	return a
}

// notTruth negates a truth vector in place (NULL stays NULL).
func notTruth(a truth) truth {
	for i := range a {
		switch a[i] {
		case tT:
			a[i] = tF
		case tF:
			a[i] = tT
		}
	}
	return a
}
