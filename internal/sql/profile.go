package sql

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"plabi/internal/relation"
)

// SimplePred is a filter conjunct of the form col OP literal (or col IN
// (literals)), with the column resolved to its base-table origin. Simple
// predicates are the unit of the implication reasoning used by VPD
// rewriting and meta-report containment.
type SimplePred struct {
	Col  relation.ColRef
	Op   relation.BinOp // OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike
	Val  relation.Value
	In   []relation.Value // non-nil for IN predicates (Op ignored)
	NotP bool             // negated IN (NOT IN) or negated LIKE
}

// String renders the predicate.
func (p SimplePred) String() string {
	if p.In != nil {
		parts := make([]string, len(p.In))
		for i, v := range p.In {
			parts[i] = v.String()
		}
		op := "IN"
		if p.NotP {
			op = "NOT IN"
		}
		return fmt.Sprintf("%s %s (%s)", p.Col, op, strings.Join(parts, ", "))
	}
	return fmt.Sprintf("%s %s %v", p.Col, p.Op, p.Val)
}

// JoinPair records that two base tables are joined by a query, in sorted
// order — the unit of the paper's join permissions/prohibitions (§5 iv).
type JoinPair struct {
	A, B string
}

// NewJoinPair builds a normalized (sorted) pair.
func NewJoinPair(a, b string) JoinPair {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a > b {
		a, b = b, a
	}
	return JoinPair{A: a, B: b}
}

// Profile is the structural summary of a SELECT used for policy analysis:
// which base tables it reads, which base columns reach the output, which
// filter conjuncts constrain it, which tables it joins, and how it
// aggregates. Every column origin in it is the executor's: a reference
// resolves against the header of the statement's own FROM stage, the
// output columns are those of Catalog.Header.
type Profile struct {
	// Header is Catalog.Header of the statement — name, schema, column
	// origins, no rows — taken from the same executor pass over the shells
	// that resolved the profile's origins. It belongs to the caller.
	Header     *relation.Table
	BaseTables []string
	OutputCols relation.ColRefSet
	// OutputNames maps each output column name (lowercase) to its origins.
	// An aggregate carries the origins of its argument — COUNT(*) none —
	// so containment compares what a report shows, not what it counts over.
	OutputNames map[string]relation.ColRefSet
	Conjuncts   []SimplePred
	// Opaque is set when the WHERE clause contained structure beyond a
	// conjunction of simple predicates (ORs, NOT, expressions). Opaque
	// filters cannot be used to *prove* containment but do not forbid it
	// when the candidate's filters are a superset.
	Opaque     bool
	JoinPairs  []JoinPair
	GroupKeys  relation.ColRefSet
	Aggregated bool
}

// ProfileQuery computes the profile of a SELECT against a snapshot of src.
// Views in the FROM clause are profiled recursively; their filters and
// joins fold into the outer profile. A statement the executor rejects —
// unknown table or column, non-grouped column, view cycle — does not
// profile.
func ProfileQuery(src Source, s *SelectStmt) (*Profile, error) {
	return src.Snapshot().profile(s, map[string]bool{})
}

// ProfileSQL parses and profiles a SELECT string.
func ProfileSQL(src Source, query string) (*Profile, error) {
	sel, err := ParseSelect(query)
	if err != nil {
		return nil, err
	}
	return ProfileQuery(src, sel)
}

func (c *Snapshot) profile(s *SelectStmt, seen map[string]bool) (*Profile, error) {
	from, residual, err := c.from(s, seen, true)
	if err != nil {
		return nil, err
	}
	out, err := finish(from, residual, s)
	if err != nil {
		return nil, err
	}
	// An aggregate without GROUP BY emits its one row over empty input too.
	p := &Profile{Header: out.Shell(), OutputNames: map[string]relation.ColRefSet{}}

	// What each FROM relation reads: a table says so itself, a view is
	// profiled and folds in. A join derives each row from both sides: every
	// base table of a joined relation meets those of the relations before.
	refs := []TableRef{s.From}
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	for _, tr := range refs {
		key := strings.ToLower(tr.Name)
		var bases []string
		if t, ok := c.Table(key); ok {
			bases = t.BaseTables()
		} else if v, ok := c.View(key); ok {
			seen[key] = true
			sub, err := c.profile(v, seen)
			seen[key] = false
			if err != nil {
				return nil, fmt.Errorf("sql: view %q: %w", tr.Name, err)
			}
			bases = sub.BaseTables
			p.Conjuncts = append(p.Conjuncts, sub.Conjuncts...)
			p.JoinPairs = append(p.JoinPairs, sub.JoinPairs...)
			// An aggregated view makes fine-grained filter reasoning on
			// the outer query unsound; mark opaque.
			if sub.Opaque || sub.Aggregated {
				p.Opaque = true
			}
		} else {
			return nil, fmt.Errorf("sql: %w %q", ErrUnknownTable, tr.Name)
		}
		for _, a := range p.BaseTables {
			for _, b := range bases {
				if a != b {
					p.JoinPairs = append(p.JoinPairs, NewJoinPair(a, b))
				}
			}
		}
		p.BaseTables = append(p.BaseTables, bases...)
	}

	for _, j := range s.Joins {
		if err := p.addPredicate(j.On, from); err != nil {
			return nil, err
		}
	}
	if s.Where != nil {
		if err := p.addPredicate(s.Where, from); err != nil {
			return nil, err
		}
	}

	// Output columns in header order: a star stands for every FROM column,
	// any other item for one. A name the header carries twice means its
	// first column, as it does to Schema.Index.
	ci := 0
	for _, it := range s.Items {
		n := 1
		if it.Star {
			n = from.Schema.Len()
		}
		for ; n > 0; n, ci = n-1, ci+1 {
			var origins relation.ColRefSet
			if it.Agg == nil || it.Agg.Arg != nil {
				origins = out.ColumnOrigin(ci)
			}
			name := strings.ToLower(out.Schema.Columns[ci].Name)
			if _, dup := p.OutputNames[name]; !dup {
				p.OutputNames[name] = origins
			}
			p.OutputCols = p.OutputCols.Union(origins)
		}
	}

	if len(s.GroupBy) > 0 || s.HasAggregates() {
		p.Aggregated = true
		for _, g := range s.GroupBy {
			keys, err := exprOrigins(g, from)
			if err != nil {
				return nil, err
			}
			p.GroupKeys = p.GroupKeys.Union(keys)
		}
	}
	if s.Having != nil {
		p.Opaque = true
	}

	slices.Sort(p.BaseTables)
	p.BaseTables = slices.Compact(p.BaseTables)
	slices.SortFunc(p.JoinPairs, func(a, b JoinPair) int { return cmp.Or(strings.Compare(a.A, b.A), strings.Compare(a.B, b.B)) })
	p.JoinPairs = slices.Compact(p.JoinPairs)
	return p, nil
}

// exprOrigins resolves every column an expression references against the
// FROM header, as the executor does, and unions their origins. A reference
// the header does not carry is the executor's error — relation raises it
// evaluating a row, the profile before any is read.
func exprOrigins(e relation.Expr, from *relation.Table) (relation.ColRefSet, error) {
	var out relation.ColRefSet
	for _, ref := range relation.ColumnsOf(e) {
		i := from.Schema.Index(ref)
		if i < 0 {
			return nil, fmt.Errorf("relation: unknown column %q in %s", ref, from.Schema)
		}
		out = out.Union(from.ColumnOrigin(i))
	}
	return out, nil
}

// addPredicate decomposes a boolean expression over the FROM header into
// simple conjuncts, join pairs, and an opacity flag, folding them into p.
func (p *Profile) addPredicate(e relation.Expr, from *relation.Table) error {
	if _, err := exprOrigins(e, from); err != nil {
		return err
	}
	// A column is usable in a simple predicate when it derives from exactly
	// one base column.
	resolveSingle := func(name string) (relation.ColRef, bool) {
		refs := from.ColumnOrigin(from.Schema.Index(name))
		if len(refs) != 1 {
			return relation.ColRef{}, false
		}
		return refs[0], true
	}

	var walk func(e relation.Expr)
	walk = func(e relation.Expr) {
		switch ex := e.(type) {
		case *relation.BinExpr:
			if ex.Op == relation.OpAnd {
				walk(ex.L)
				walk(ex.R)
				return
			}
			// col OP literal?
			if ce, ok := ex.L.(*relation.ColExpr); ok {
				if le, ok := ex.R.(*relation.LitExpr); ok {
					if ref, ok := resolveSingle(ce.Name); ok && isSimpleCmp(ex.Op) {
						p.Conjuncts = append(p.Conjuncts, SimplePred{Col: ref, Op: ex.Op, Val: le.V})
						return
					}
				}
				// col = col join?
				if ce2, ok := ex.R.(*relation.ColExpr); ok && ex.Op == relation.OpEq {
					r1, ok1 := resolveSingle(ce.Name)
					r2, ok2 := resolveSingle(ce2.Name)
					if ok1 && ok2 && r1.Table != r2.Table {
						p.JoinPairs = append(p.JoinPairs, NewJoinPair(r1.Table, r2.Table))
						return
					}
				}
			}
			// literal OP col (flip).
			if le, ok := ex.L.(*relation.LitExpr); ok {
				if ce, ok := ex.R.(*relation.ColExpr); ok {
					if ref, ok := resolveSingle(ce.Name); ok && isSimpleCmp(ex.Op) {
						p.Conjuncts = append(p.Conjuncts, SimplePred{Col: ref, Op: flipCmp(ex.Op), Val: le.V})
						return
					}
				}
			}
			p.Opaque = true
		case *relation.InExpr:
			if ce, ok := ex.E.(*relation.ColExpr); ok {
				if ref, ok := resolveSingle(ce.Name); ok {
					var vals []relation.Value
					for _, le := range ex.List {
						lit, isLit := le.(*relation.LitExpr)
						if !isLit {
							p.Opaque = true
							return
						}
						vals = append(vals, lit.V)
					}
					p.Conjuncts = append(p.Conjuncts, SimplePred{Col: ref, In: vals, NotP: ex.Negate})
					return
				}
			}
			p.Opaque = true
		default:
			p.Opaque = true
		}
	}
	walk(e)
	return nil
}

func isSimpleCmp(op relation.BinOp) bool {
	switch op {
	case relation.OpEq, relation.OpNe, relation.OpLt, relation.OpLe,
		relation.OpGt, relation.OpGe, relation.OpLike:
		return true
	}
	return false
}

func flipCmp(op relation.BinOp) relation.BinOp {
	switch op {
	case relation.OpLt:
		return relation.OpGt
	case relation.OpLe:
		return relation.OpGe
	case relation.OpGt:
		return relation.OpLt
	case relation.OpGe:
		return relation.OpLe
	default:
		return op
	}
}

// Implies reports whether predicate r logically implies predicate m.
// Both must constrain the same base column; sound but incomplete (false
// negatives possible, never false positives).
func Implies(r, m SimplePred) bool {
	if r.Col != m.Col {
		return false
	}
	// IN-set reasoning.
	if m.In != nil && !m.NotP {
		if r.In != nil && !r.NotP {
			return valueSubset(r.In, m.In)
		}
		if r.In == nil && r.Op == relation.OpEq {
			return valueIn(r.Val, m.In)
		}
		return false
	}
	if m.In != nil && m.NotP {
		// r implies "col NOT IN S" when r pins col to values disjoint
		// from S.
		if r.In == nil && r.Op == relation.OpEq {
			return !valueIn(r.Val, m.In)
		}
		if r.In != nil && !r.NotP {
			for _, v := range r.In {
				if valueIn(v, m.In) {
					return false
				}
			}
			return true
		}
		if r.In != nil && r.NotP {
			return valueSubset(m.In, r.In)
		}
		return false
	}
	if r.In != nil {
		// r is an IN; m is a comparison: every member of r's set must
		// satisfy m.
		if r.NotP {
			return false
		}
		for _, v := range r.In {
			if !satisfies(v, m) {
				return false
			}
		}
		return true
	}
	// Comparison vs comparison.
	switch m.Op {
	case relation.OpLike:
		if r.Op == relation.OpLike {
			return r.Val.Equal(m.Val)
		}
		if r.Op == relation.OpEq {
			return satisfies(r.Val, m)
		}
		return false
	case relation.OpNe:
		if r.Op == relation.OpNe {
			return r.Val.Equal(m.Val)
		}
		if r.Op == relation.OpEq {
			return !r.Val.Equal(m.Val)
		}
		// Interval-based: r strictly excludes m.Val.
		return intervalExcludes(r, m.Val)
	case relation.OpEq:
		return r.Op == relation.OpEq && r.Val.Equal(m.Val)
	default:
		// m is an interval constraint; r must confine col within it.
		if r.Op == relation.OpEq {
			return satisfies(r.Val, m)
		}
		return intervalImplies(r, m)
	}
}

// satisfies reports whether a concrete value satisfies a simple predicate.
func satisfies(v relation.Value, p SimplePred) bool {
	if p.In != nil {
		in := valueIn(v, p.In)
		return in != p.NotP
	}
	c, ok := v.Compare(p.Val)
	if !ok {
		if p.Op == relation.OpLike && v.Kind == relation.TString && p.Val.Kind == relation.TString {
			e := relation.Bin(relation.OpLike, relation.Lit(v), relation.Lit(p.Val))
			res, err := e.Eval(nil, relation.NewSchema())
			return err == nil && res.Kind == relation.TBool && res.B
		}
		return false
	}
	switch p.Op {
	case relation.OpEq:
		return c == 0
	case relation.OpNe:
		return c != 0
	case relation.OpLt:
		return c < 0
	case relation.OpLe:
		return c <= 0
	case relation.OpGt:
		return c > 0
	case relation.OpGe:
		return c >= 0
	case relation.OpLike:
		if v.Kind == relation.TString && p.Val.Kind == relation.TString {
			e := relation.Bin(relation.OpLike, relation.Lit(v), relation.Lit(p.Val))
			res, err := e.Eval(nil, relation.NewSchema())
			return err == nil && res.Kind == relation.TBool && res.B
		}
		return false
	}
	return false
}

// intervalImplies: r and m are both order comparisons on the same column;
// does r's admissible interval lie within m's?
func intervalImplies(r, m SimplePred) bool {
	c, ok := r.Val.Compare(m.Val)
	if !ok {
		return false
	}
	switch m.Op {
	case relation.OpLt:
		return (r.Op == relation.OpLt && c <= 0) || (r.Op == relation.OpLe && c < 0)
	case relation.OpLe:
		return (r.Op == relation.OpLt || r.Op == relation.OpLe) && c <= 0
	case relation.OpGt:
		return (r.Op == relation.OpGt && c >= 0) || (r.Op == relation.OpGe && c > 0)
	case relation.OpGe:
		return (r.Op == relation.OpGt || r.Op == relation.OpGe) && c >= 0
	}
	return false
}

// intervalExcludes reports whether comparison r makes value v impossible.
func intervalExcludes(r SimplePred, v relation.Value) bool {
	c, ok := v.Compare(r.Val)
	if !ok {
		return false
	}
	switch r.Op {
	case relation.OpLt:
		return c >= 0
	case relation.OpLe:
		return c > 0
	case relation.OpGt:
		return c <= 0
	case relation.OpGe:
		return c < 0
	}
	return false
}

func valueIn(v relation.Value, set []relation.Value) bool {
	for _, s := range set {
		if v.Equal(s) {
			return true
		}
	}
	return false
}

func valueSubset(a, b []relation.Value) bool {
	for _, v := range a {
		if !valueIn(v, b) {
			return false
		}
	}
	return true
}

// ConjunctionImplies reports whether the conjunction rs implies the
// conjunction ms: every m must be implied by at least one r.
func ConjunctionImplies(rs, ms []SimplePred) bool {
	for _, m := range ms {
		ok := false
		for _, r := range rs {
			if Implies(r, m) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
