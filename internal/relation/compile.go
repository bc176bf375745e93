package relation

// bind returns e's tree with every column reference resolved against s to
// its position, so evaluating the bound tree (with s) performs no name
// lookups. Each node keeps its own Eval; only the leaves change. A column
// s does not resolve stays a ColExpr, which raises its error only when a
// row is evaluated. Literals and node types bind cannot see into are
// returned as they are.
func bind(e Expr, s *Schema) Expr {
	switch ex := e.(type) {
	case *ColExpr:
		if i := s.Index(ex.Name); i >= 0 {
			return &boundCol{ColExpr: ex, i: i}
		}
		return ex
	case *BinExpr:
		return &BinExpr{Op: ex.Op, L: bind(ex.L, s), R: bind(ex.R, s)}
	case *NotExpr:
		return &NotExpr{E: bind(ex.E, s)}
	case *NegExpr:
		return &NegExpr{E: bind(ex.E, s)}
	case *IsNullExpr:
		return &IsNullExpr{E: bind(ex.E, s), Negate: ex.Negate}
	case *InExpr:
		return &InExpr{E: bind(ex.E, s), List: bindAll(ex.List, s), Negate: ex.Negate}
	case *FuncExpr:
		return &FuncExpr{Name: ex.Name, Args: bindAll(ex.Args, s)}
	default:
		return e
	}
}

func bindAll(es []Expr, s *Schema) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = bind(e, s)
	}
	return out
}

// boundCol is a column reference bound to its position.
type boundCol struct {
	*ColExpr
	i int
}

// Eval implements Expr.
func (c *boundCol) Eval(r Row, _ *Schema) (Value, error) { return r[c.i], nil }

// safe reports whether evaluating e against any row of s can never return
// an error: every column resolves, every operator is known and every
// scalar call is statically well-formed.
func safe(e Expr, s *Schema) bool {
	switch ex := e.(type) {
	case *LitExpr:
		return true
	case *ColExpr:
		return s.Index(ex.Name) >= 0
	case *BinExpr:
		return ex.Op >= OpEq && ex.Op <= OpConcat && safe(ex.L, s) && safe(ex.R, s)
	case *NotExpr:
		return safe(ex.E, s)
	case *NegExpr:
		return safe(ex.E, s)
	case *IsNullExpr:
		return safe(ex.E, s)
	case *InExpr:
		return safe(ex.E, s) && allSafe(ex.List, s)
	case *FuncExpr:
		return scalarStaticallySafe(ex.Name, len(ex.Args)) && allSafe(ex.Args, s)
	default:
		return false
	}
}

func allSafe(es []Expr, s *Schema) bool {
	for _, e := range es {
		if !safe(e, s) {
			return false
		}
	}
	return true
}

// scalarStaticallySafe reports whether a scalar call with the given arity
// can never error at evaluation time (callScalar only errors on unknown
// names and arity mismatches; value-level failures yield NULL).
func scalarStaticallySafe(name string, arity int) bool {
	switch name {
	case "UPPER", "LOWER", "LENGTH", "TRIM", "ABS", "ROUND",
		"YEAR", "MONTH", "DAY", "QUARTER", "DATE",
		"CAST_INT", "CAST_FLOAT", "CAST_STRING":
		return arity == 1
	case "SUBSTR":
		return arity == 3
	case "COALESCE":
		return true
	default:
		return false
	}
}

// CompiledPredicate is a row predicate bound to a schema: every column
// reference is resolved once, so per-row evaluation performs no name
// lookups. Residual render programs bind PLA row filters and intensional
// conditions through this at compile time.
type CompiledPredicate struct {
	e    Expr // bound tree; nil selects every row
	s    *Schema
	safe bool
}

// CompilePredicate binds e as a predicate against s; a nil predicate
// selects every row.
func CompilePredicate(e Expr, s *Schema) CompiledPredicate {
	return CompiledPredicate{e: bind(e, s), s: s, safe: SafePredicate(e, s)}
}

// Selected is EvalPredicate over the bound tree: it reports whether the
// row evaluates to exactly TRUE, with the same errors.
func (p CompiledPredicate) Selected(r Row) (bool, error) { return EvalPredicate(p.e, r, p.s) }

// Safe reports whether evaluation can never error for any row.
func (p CompiledPredicate) Safe() bool { return p.safe }

// SafePredicate reports whether evaluating e against rows of s can never
// return an error: every column reference resolves in s and every scalar
// call is statically well-formed. Query planners use this to relocate a
// predicate (e.g. push it below a join) without changing which renders
// fail: an unsafe predicate errors on every row it touches, so moving it
// could surface errors on rows the original plan never evaluated.
func SafePredicate(e Expr, s *Schema) bool {
	return e == nil || safe(e, s)
}
