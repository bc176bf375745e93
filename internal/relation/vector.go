package relation

// Vector is one column of a Batch decomposed into typed storage. A column
// whose non-null values all share one Kind is stored in the matching flat
// array (plus a null mask), so predicate and aggregation kernels run tight
// loops over contiguous memory instead of loading the full Value struct
// per cell. Mixed-kind columns (possible because schemas are advisory —
// e.g. masked cells drop strings into numeric columns) fall back to a
// generic []Value representation with identical semantics.
type Vector struct {
	// Kind is the homogeneous value kind, or TNull when the column is
	// mixed-kind (generic fallback) or entirely null.
	Kind Type
	// Null flags null cells; nil when the column has no nulls.
	Null []bool

	I []int64
	F []float64
	S []string
	B []bool
	T []Day

	// V is the generic fallback storage for mixed-kind columns.
	V []Value

	n int
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
		return Str(v.S[i])
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

// NewVector decomposes column ci of t into typed storage.
func NewVector(t *Table, ci int) *Vector {
	n := len(t.Rows)
	v := &Vector{n: n}
	kind := TNull
	for _, r := range t.Rows {
		k := r[ci].Kind
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
		// All-null or mixed: generic storage.
		v.V = make([]Value, n)
		for i, r := range t.Rows {
			v.V[i] = r[ci]
		}
		return v
	}
	v.Kind = kind
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	switch kind {
	case TString:
		v.S = make([]string, n)
		for i, r := range t.Rows {
			if c := r[ci]; c.Kind == TString {
				v.S[i] = c.S
			} else {
				setNull(i)
			}
		}
	case TInt:
		v.I = make([]int64, n)
		for i, r := range t.Rows {
			if c := r[ci]; c.Kind == TInt {
				v.I[i] = c.I
			} else {
				setNull(i)
			}
		}
	case TFloat:
		v.F = make([]float64, n)
		for i, r := range t.Rows {
			if c := r[ci]; c.Kind == TFloat {
				v.F[i] = c.F
			} else {
				setNull(i)
			}
		}
	case TBool:
		v.B = make([]bool, n)
		for i, r := range t.Rows {
			if c := r[ci]; c.Kind == TBool {
				v.B[i] = c.B
			} else {
				setNull(i)
			}
		}
	case TDate:
		v.T = make([]Day, n)
		for i, r := range t.Rows {
			if c := r[ci]; c.Kind == TDate {
				v.T[i] = c.T
			} else {
				setNull(i)
			}
		}
	}
	v.Null = nulls
	return v
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
		ls := lit.S
		for i, s := range v.S {
			if v.Null != nil && v.Null[i] {
				out[i] = tN
				continue
			}
			switch {
			case s < ls:
				out[i] = cmpTruth(op, -1)
			case s > ls:
				out[i] = cmpTruth(op, 1)
			default:
				out[i] = cmpTruth(op, 0)
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
			x, y := a.S[i], b.S[i]
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
