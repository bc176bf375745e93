package relation

import (
	"fmt"
	"math"
	"strings"
)

// Expr is a scalar expression evaluated against one row of a schema.
// Expressions use SQL three-valued logic: comparisons with NULL yield NULL,
// and a NULL predicate does not select a row.
type Expr interface {
	// Eval computes the expression value for row r of schema s.
	Eval(r Row, s *Schema) (Value, error)
	// String renders the expression in SQL-like syntax.
	String() string
	// ColumnRefs appends the column names referenced by the expression.
	ColumnRefs(dst []string) []string
}

// ColumnsOf returns the distinct column names referenced by an expression.
func ColumnsOf(e Expr) []string {
	if e == nil {
		return nil
	}
	refs := e.ColumnRefs(nil)
	seen := map[string]bool{}
	var out []string
	for _, r := range refs {
		k := strings.ToLower(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// LitExpr is a literal value.
type LitExpr struct{ V Value }

// Lit builds a literal expression.
func Lit(v Value) *LitExpr { return &LitExpr{V: v} }

// Eval implements Expr.
func (e *LitExpr) Eval(Row, *Schema) (Value, error) { return e.V, nil }

// String implements Expr.
func (e *LitExpr) String() string {
	if e.V.Kind == TString {
		return "'" + strings.ReplaceAll(e.V.S, "'", "''") + "'"
	}
	if e.V.Kind == TDate {
		return "DATE '" + e.V.String() + "'"
	}
	return e.V.String()
}

// ColumnRefs implements Expr.
func (e *LitExpr) ColumnRefs(dst []string) []string { return dst }

// ColExpr references a column by (possibly qualified) name.
type ColExpr struct{ Name string }

// ColRefExpr builds a column reference expression.
func ColRefExpr(name string) *ColExpr { return &ColExpr{Name: name} }

// Eval implements Expr.
func (e *ColExpr) Eval(r Row, s *Schema) (Value, error) {
	i := s.Index(e.Name)
	if i < 0 {
		return Null(), fmt.Errorf("relation: unknown column %q in %s", e.Name, s)
	}
	return r[i], nil
}

// String implements Expr.
func (e *ColExpr) String() string { return QuoteIdent(e.Name) }

// QuoteIdent renders a column or table identifier for display and SQL
// round-tripping: plain identifiers (optionally dot-qualified) pass
// through, anything else is double-quoted so that re-parsing the rendered
// form yields the same name instead of an alias or a syntax error.
func QuoteIdent(name string) string {
	plain := name != ""
	segStart := true
	for i := 0; plain && i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			plain = !segStart && i != len(name)-1 // no empty segments
			segStart = true
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			segStart = false
		case c >= '0' && c <= '9':
			plain = !segStart // segments must not start with a digit
		default:
			plain = false
		}
	}
	if plain {
		for rest := name; plain; {
			seg := rest
			if i := strings.IndexByte(rest, '.'); i >= 0 {
				seg, rest = rest[:i], rest[i+1:]
			} else {
				rest = ""
			}
			if ReservedWord(seg) {
				plain = false
			}
			if rest == "" {
				break
			}
		}
	}
	if plain {
		return name
	}
	return `"` + name + `"`
}

// reservedWords are the keywords of the SQL dialect built over this
// expression language (internal/sql's lexer treats them as reserved, never
// as identifiers). They live here so the renderer and the lexer agree on
// exactly one list.
var reservedWords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "JOIN": true,
	"LEFT": true, "INNER": true, "ON": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "IS": true, "NULL": true, "LIKE": true,
	"DISTINCT": true, "ASC": true, "DESC": true, "CREATE": true,
	"VIEW": true, "TRUE": true, "FALSE": true, "DATE": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"BETWEEN": true, "UNION": true, "ALL": true,
}

// ReservedWord reports whether s (case-insensitively) is a SQL keyword.
func ReservedWord(s string) bool { return reservedWords[strings.ToUpper(s)] }

// ColumnRefs implements Expr.
func (e *ColExpr) ColumnRefs(dst []string) []string { return append(dst, e.Name) }

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
	OpConcat
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*",
	OpDiv: "/", OpMod: "%", OpLike: "LIKE", OpConcat: "||",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// BinExpr applies a binary operator to two sub-expressions.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

// Bin builds a binary expression.
func Bin(op BinOp, l, r Expr) *BinExpr { return &BinExpr{Op: op, L: l, R: r} }

// Eq builds l = r.
func Eq(l, r Expr) *BinExpr { return Bin(OpEq, l, r) }

// And builds l AND r.
func And(l, r Expr) *BinExpr { return Bin(OpAnd, l, r) }

// Or builds l OR r.
func Or(l, r Expr) *BinExpr { return Bin(OpOr, l, r) }

// ColEqStr builds col = 'lit', the most common predicate shape.
func ColEqStr(col, lit string) *BinExpr { return Eq(ColRefExpr(col), Lit(Str(lit))) }

// Eval implements Expr.
func (e *BinExpr) Eval(r Row, s *Schema) (Value, error) {
	// AND/OR implement SQL three-valued logic with short-circuiting where
	// sound.
	if e.Op == OpAnd || e.Op == OpOr {
		lv, err := e.L.Eval(r, s)
		if err != nil {
			return Null(), err
		}
		rv, err := e.R.Eval(r, s)
		if err != nil {
			return Null(), err
		}
		return evalLogic(e.Op, lv, rv)
	}
	lv, err := e.L.Eval(r, s)
	if err != nil {
		return Null(), err
	}
	rv, err := e.R.Eval(r, s)
	if err != nil {
		return Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	switch e.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		c, ok := lv.Compare(rv)
		if !ok {
			return Null(), nil
		}
		switch e.Op {
		case OpEq:
			return Bool(c == 0), nil
		case OpNe:
			return Bool(c != 0), nil
		case OpLt:
			return Bool(c < 0), nil
		case OpLe:
			return Bool(c <= 0), nil
		case OpGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(e.Op, lv, rv)
	case OpLike:
		if lv.Kind != TString || rv.Kind != TString {
			return Null(), nil
		}
		return Bool(likeMatch(rv.S, lv.S)), nil
	case OpConcat:
		return Str(lv.String() + rv.String()), nil
	default:
		return Null(), fmt.Errorf("relation: unknown operator %v", e.Op)
	}
}

func evalLogic(op BinOp, l, r Value) (Value, error) {
	toB := func(v Value) (b, null bool) {
		if v.IsNull() {
			return false, true
		}
		if v.Kind != TBool {
			return false, true
		}
		return v.B, false
	}
	lb, ln := toB(l)
	rb, rn := toB(r)
	if op == OpAnd {
		if (!ln && !lb) || (!rn && !rb) {
			return Bool(false), nil
		}
		if ln || rn {
			return Null(), nil
		}
		return Bool(true), nil
	}
	if (!ln && lb) || (!rn && rb) {
		return Bool(true), nil
	}
	if ln || rn {
		return Null(), nil
	}
	return Bool(false), nil
}

func evalArith(op BinOp, l, r Value) (Value, error) {
	if l.Kind == TInt && r.Kind == TInt {
		switch op {
		case OpAdd:
			return Int(l.I + r.I), nil
		case OpSub:
			return Int(l.I - r.I), nil
		case OpMul:
			return Int(l.I * r.I), nil
		case OpDiv:
			if r.I == 0 {
				return Null(), nil
			}
			return Int(l.I / r.I), nil
		case OpMod:
			if r.I == 0 {
				return Null(), nil
			}
			return Int(l.I % r.I), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Null(), nil
	}
	switch op {
	case OpAdd:
		return Float(lf + rf), nil
	case OpSub:
		return Float(lf - rf), nil
	case OpMul:
		return Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return Null(), nil
		}
		return Float(lf / rf), nil
	case OpMod:
		if rf == 0 {
			return Null(), nil
		}
		return Float(math.Mod(lf, rf)), nil
	}
	return Null(), fmt.Errorf("relation: bad arithmetic op %v", op)
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(pattern, s string) bool {
	p, str := strings.ToLower(pattern), strings.ToLower(s)
	return likeRec(p, str)
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			p = p[1:]
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// String implements Expr.
func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// ColumnRefs implements Expr.
func (e *BinExpr) ColumnRefs(dst []string) []string {
	return e.R.ColumnRefs(e.L.ColumnRefs(dst))
}

// NotExpr negates a boolean sub-expression (NULL stays NULL).
type NotExpr struct{ E Expr }

// Not builds NOT e.
func Not(e Expr) *NotExpr { return &NotExpr{E: e} }

// Eval implements Expr.
func (e *NotExpr) Eval(r Row, s *Schema) (Value, error) {
	v, err := e.E.Eval(r, s)
	if err != nil || v.IsNull() {
		return Null(), err
	}
	if v.Kind != TBool {
		return Null(), nil
	}
	return Bool(!v.B), nil
}

// String implements Expr.
func (e *NotExpr) String() string { return "(NOT " + e.E.String() + ")" }

// ColumnRefs implements Expr.
func (e *NotExpr) ColumnRefs(dst []string) []string { return e.E.ColumnRefs(dst) }

// NegExpr is unary numeric minus.
type NegExpr struct{ E Expr }

// Neg builds -e.
func Neg(e Expr) *NegExpr { return &NegExpr{E: e} }

// Eval implements Expr.
func (e *NegExpr) Eval(r Row, s *Schema) (Value, error) {
	v, err := e.E.Eval(r, s)
	if err != nil || v.IsNull() {
		return Null(), err
	}
	switch v.Kind {
	case TInt:
		return Int(-v.I), nil
	case TFloat:
		return Float(-v.F), nil
	default:
		return Null(), nil
	}
}

// String implements Expr.
func (e *NegExpr) String() string { return "(-" + e.E.String() + ")" }

// ColumnRefs implements Expr.
func (e *NegExpr) ColumnRefs(dst []string) []string { return e.E.ColumnRefs(dst) }

// IsNullExpr tests for NULL (IS NULL / IS NOT NULL).
type IsNullExpr struct {
	E      Expr
	Negate bool
}

// IsNull builds e IS NULL.
func IsNull(e Expr) *IsNullExpr { return &IsNullExpr{E: e} }

// IsNotNull builds e IS NOT NULL.
func IsNotNull(e Expr) *IsNullExpr { return &IsNullExpr{E: e, Negate: true} }

// Eval implements Expr.
func (e *IsNullExpr) Eval(r Row, s *Schema) (Value, error) {
	v, err := e.E.Eval(r, s)
	if err != nil {
		return Null(), err
	}
	return Bool(v.IsNull() != e.Negate), nil
}

// String implements Expr.
func (e *IsNullExpr) String() string {
	if e.Negate {
		return "(" + e.E.String() + " IS NOT NULL)"
	}
	return "(" + e.E.String() + " IS NULL)"
}

// ColumnRefs implements Expr.
func (e *IsNullExpr) ColumnRefs(dst []string) []string { return e.E.ColumnRefs(dst) }

// InExpr tests membership in a literal list.
type InExpr struct {
	E      Expr
	List   []Expr
	Negate bool
}

// In builds e IN (list...).
func In(e Expr, list ...Expr) *InExpr { return &InExpr{E: e, List: list} }

// Eval implements Expr.
func (e *InExpr) Eval(r Row, s *Schema) (Value, error) {
	v, err := e.E.Eval(r, s)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, le := range e.List {
		lv, err := le.Eval(r, s)
		if err != nil {
			return Null(), err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if v.Equal(lv) {
			return Bool(!e.Negate), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(e.Negate), nil
}

// String implements Expr.
func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, le := range e.List {
		parts[i] = le.String()
	}
	op := "IN"
	if e.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", e.E, op, strings.Join(parts, ", "))
}

// ColumnRefs implements Expr.
func (e *InExpr) ColumnRefs(dst []string) []string {
	dst = e.E.ColumnRefs(dst)
	for _, le := range e.List {
		dst = le.ColumnRefs(dst)
	}
	return dst
}

// FuncExpr applies a named scalar function.
type FuncExpr struct {
	Name string
	Args []Expr
}

// Fn builds a scalar function call.
func Fn(name string, args ...Expr) *FuncExpr {
	return &FuncExpr{Name: strings.ToUpper(name), Args: args}
}

// Eval implements Expr.
func (e *FuncExpr) Eval(r Row, s *Schema) (Value, error) {
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(r, s)
		if err != nil {
			return Null(), err
		}
		args[i] = v
	}
	return callScalar(e.Name, args)
}

func callScalar(name string, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("relation: %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "UPPER":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TString {
			return Null(), nil
		}
		return Str(strings.ToUpper(args[0].S)), nil
	case "LOWER":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TString {
			return Null(), nil
		}
		return Str(strings.ToLower(args[0].S)), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TString {
			return Null(), nil
		}
		return Int(int64(len(args[0].S))), nil
	case "TRIM":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TString {
			return Null(), nil
		}
		return Str(strings.TrimSpace(args[0].S)), nil
	case "SUBSTR":
		if err := need(3); err != nil {
			return Null(), err
		}
		if args[0].Kind != TString {
			return Null(), nil
		}
		start, ok1 := args[1].AsInt()
		n, ok2 := args[2].AsInt()
		if !ok1 || !ok2 {
			return Null(), nil
		}
		str := args[0].S
		// SQL-style 1-based start.
		i := int(start) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(str) || n <= 0 {
			return Str(""), nil
		}
		end := i + int(n)
		if end > len(str) {
			end = len(str)
		}
		return Str(str[i:end]), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "ABS":
		if err := need(1); err != nil {
			return Null(), err
		}
		switch args[0].Kind {
		case TInt:
			if args[0].I < 0 {
				return Int(-args[0].I), nil
			}
			return args[0], nil
		case TFloat:
			return Float(math.Abs(args[0].F)), nil
		}
		return Null(), nil
	case "ROUND":
		if err := need(1); err != nil {
			return Null(), err
		}
		if f, ok := args[0].AsFloat(); ok {
			return Float(math.Round(f)), nil
		}
		return Null(), nil
	case "YEAR":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TDate {
			return Null(), nil
		}
		return Int(int64(args[0].T.Time().Year())), nil
	case "MONTH":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TDate {
			return Null(), nil
		}
		return Int(int64(args[0].T.Time().Month())), nil
	case "DAY":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TDate {
			return Null(), nil
		}
		return Int(int64(args[0].T.Time().Day())), nil
	case "QUARTER":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].Kind != TDate {
			return Null(), nil
		}
		return Int(int64((int(args[0].T.Time().Month())-1)/3 + 1)), nil
	case "DATE":
		if err := need(1); err != nil {
			return Null(), err
		}
		v, ok := args[0].Coerce(TDate)
		if !ok {
			return Null(), nil
		}
		return v, nil
	case "CAST_INT":
		if err := need(1); err != nil {
			return Null(), err
		}
		v, ok := args[0].Coerce(TInt)
		if !ok {
			return Null(), nil
		}
		return v, nil
	case "CAST_FLOAT":
		if err := need(1); err != nil {
			return Null(), err
		}
		v, ok := args[0].Coerce(TFloat)
		if !ok {
			return Null(), nil
		}
		return v, nil
	case "CAST_STRING":
		if err := need(1); err != nil {
			return Null(), err
		}
		v, ok := args[0].Coerce(TString)
		if !ok {
			return Null(), nil
		}
		return v, nil
	default:
		return Null(), fmt.Errorf("relation: unknown function %s", name)
	}
}

// String implements Expr.
func (e *FuncExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ColumnRefs implements Expr.
func (e *FuncExpr) ColumnRefs(dst []string) []string {
	for _, a := range e.Args {
		dst = a.ColumnRefs(dst)
	}
	return dst
}

// EvalPredicate evaluates e as a row predicate: the row is selected only
// when the result is exactly TRUE.
func EvalPredicate(e Expr, r Row, s *Schema) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(r, s)
	if err != nil {
		return false, err
	}
	return v.Kind == TBool && v.B, nil
}

// InferType computes the static result type of an expression against a
// schema. Unknown shapes infer as TNull (dynamically typed).
func InferType(e Expr, s *Schema) Type {
	switch ex := e.(type) {
	case *LitExpr:
		return ex.V.Kind
	case *ColExpr:
		if i := s.Index(ex.Name); i >= 0 {
			return s.Columns[i].Type
		}
		return TNull
	case *BinExpr:
		switch ex.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr, OpLike:
			return TBool
		case OpConcat:
			return TString
		default:
			lt, rt := InferType(ex.L, s), InferType(ex.R, s)
			if lt == TFloat || rt == TFloat {
				return TFloat
			}
			if lt == TInt && rt == TInt {
				return TInt
			}
			return TFloat
		}
	case *NotExpr, *IsNullExpr, *InExpr:
		return TBool
	case *NegExpr:
		return InferType(ex.E, s)
	case *FuncExpr:
		switch ex.Name {
		case "UPPER", "LOWER", "TRIM", "SUBSTR", "CAST_STRING":
			return TString
		case "LENGTH", "YEAR", "MONTH", "DAY", "QUARTER", "CAST_INT":
			return TInt
		case "ABS", "ROUND", "CAST_FLOAT":
			return TFloat
		case "DATE":
			return TDate
		case "COALESCE":
			if len(ex.Args) > 0 {
				return InferType(ex.Args[0], s)
			}
		}
		return TNull
	default:
		return TNull
	}
}
