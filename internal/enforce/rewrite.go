package enforce

import (
	"cmp"
	"fmt"
	"strings"

	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/sql"
)

// QueryRewriter implements VPD-style automatic query rewriting (§3): a
// query arriving from a consumer is transparently modified so that it can
// only return PLA-compliant data — row filters become WHERE conjuncts,
// denied attributes are replaced by masked literals, and forbidden joins
// block the query outright.
type QueryRewriter struct {
	Registry *policy.Registry
	Catalog  *sql.Catalog
	// Levels are the PLA levels whose row filters and attribute rules
	// apply; defaults to source only (the classic VPD placement). A join
	// is refused as everywhere else: by the source- and warehouse-level
	// PLAs of either side.
	Levels []policy.Level
}

// NewQueryRewriter builds a source-level rewriter.
func NewQueryRewriter(reg *policy.Registry, cat *sql.Catalog) *QueryRewriter {
	return &QueryRewriter{Registry: reg, Catalog: cat, Levels: []policy.Level{policy.LevelSource}}
}

func (r *QueryRewriter) compositeFor(tables []string) *policy.Composite {
	var plas []*policy.PLA
	seen := map[string]bool{}
	for _, lvl := range r.levels() {
		for _, p := range r.Registry.ForScopes(lvl, tables).PLAs {
			if !seen[p.ID] {
				seen[p.ID] = true
				plas = append(plas, p)
			}
		}
	}
	return policy.Compose(plas...)
}

func (r *QueryRewriter) levels() []policy.Level {
	if len(r.Levels) > 0 {
		return r.Levels
	}
	return []policy.Level{policy.LevelSource}
}

// Rewrite returns the PLA-compliant form of the query for the given role
// and purpose, along with the decisions applied. A Block decision means
// the query must not run at all (forbidden join); the returned statement
// is nil in that case.
func (r *QueryRewriter) Rewrite(sel *sql.SelectStmt, role, purpose string) (*sql.SelectStmt, []Decision, error) {
	prof, err := sql.ProfileQuery(r.Catalog, sel)
	if err != nil {
		return nil, nil, fmt.Errorf("enforce: rewrite: %w", err)
	}
	comp := r.compositeFor(prof.BaseTables)
	var decisions []Decision

	// 1. Forbidden joins block the query: each side's own PLAs must allow
	// joining with the other side — the decision a report and the ETL
	// guard make.
	for _, jp := range prof.JoinPairs {
		if d := cmp.Or(joinRefusal(r.Registry, jp.A, jp.B), joinRefusal(r.Registry, jp.B, jp.A)); d != nil {
			return nil, append(decisions, *d), nil
		}
	}

	// 2. Clone the statement for rewriting.
	out, err := sql.ParseSelect(sel.String())
	if err != nil {
		return nil, nil, fmt.Errorf("enforce: rewrite reparse: %w", err)
	}

	// 3. Row filters become WHERE conjuncts.
	for _, f := range comp.Filters() {
		if !filterApplies(f, r.Catalog, prof.BaseTables) {
			continue
		}
		if out.Where == nil {
			out.Where = f
		} else {
			out.Where = relation.And(out.Where, f)
		}
		decisions = append(decisions, Decision{
			Outcome: SuppressRow, Rule: "row-filter", Subject: "WHERE",
			Detail: f.String(),
		})
	}

	// 4. Denied attributes are masked in the select list; intensional
	// conditions on allow rules become WHERE conjuncts (the source only
	// releases rows satisfying them — the VPD reading of the paper's §5
	// HIV example). With no PLAs in force at all the rewriter passes the
	// query through; once any PLA governs the involved tables, the closed
	// world applies: an attribute without an explicit allow is masked.
	if len(comp.PLAs) > 0 {
		// SELECT * must not bypass masking: expand stars into explicit
		// column items first.
		if err := r.expandStars(out); err != nil {
			return nil, decisions, err
		}
		seenCond := map[string]bool{}
		for i, it := range out.Items {
			if it.Star || it.Agg != nil {
				continue
			}
			name := strings.ToLower(it.OutName())
			origins := prof.OutputNames[name]
			d := comp.DecideAttributeRefs(attrRefs(name, origins), role, purpose)
			if d.Effect == policy.Deny {
				rule := "access-default-deny"
				if len(d.Matched) > 0 {
					rule = "access-deny"
				}
				out.Items[i] = sql.SelectItem{
					Expr:  relation.Lit(MaskValue),
					Alias: it.OutName(),
				}
				decisions = append(decisions, Decision{
					Outcome: Mask, Rule: rule, Subject: it.OutName(),
					Detail: fmt.Sprintf("attribute not released to role %q", role),
				})
				continue
			}
			for _, cond := range d.Conditions {
				key := cond.String()
				if seenCond[key] {
					continue
				}
				seenCond[key] = true
				if !filterApplies(cond, r.Catalog, prof.BaseTables) {
					// The condition references columns the query's
					// tables do not carry: it cannot be expressed as a
					// row predicate here, so the attribute is masked
					// conservatively instead.
					out.Items[i] = sql.SelectItem{
						Expr:  relation.Lit(MaskValue),
						Alias: it.OutName(),
					}
					decisions = append(decisions, Decision{
						Outcome: Mask, Rule: "condition-unresolvable", Subject: it.OutName(),
						Detail: key,
					})
					continue
				}
				if out.Where == nil {
					out.Where = cond
				} else {
					out.Where = relation.And(out.Where, cond)
				}
				decisions = append(decisions, Decision{
					Outcome: SuppressRow, Rule: "condition-filter",
					Subject: it.OutName(), Detail: key,
				})
			}
		}
	}
	return out, decisions, nil
}

// RewriteSQL parses, rewrites, and renders the query text.
func (r *QueryRewriter) RewriteSQL(query, role, purpose string) (string, []Decision, error) {
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return "", nil, err
	}
	out, decisions, err := r.Rewrite(sel, role, purpose)
	if err != nil {
		return "", decisions, err
	}
	if out == nil {
		return "", decisions, nil
	}
	return out.String(), decisions, nil
}

// expandStars replaces SELECT * items with one explicit item per column
// of the FROM-clause relations (qualified when the query joins), so
// column-level masking applies uniformly.
func (r *QueryRewriter) expandStars(sel *sql.SelectStmt) error {
	hasStar := false
	for _, it := range sel.Items {
		if it.Star {
			hasStar = true
		}
	}
	if !hasStar {
		return nil
	}
	type rel struct {
		alias string
		cols  []string
	}
	var rels []rel
	add := func(tr sql.TableRef) error {
		t, ok := r.Catalog.Table(tr.Name)
		if !ok {
			if v, vok := r.Catalog.Snapshot().View(tr.Name); vok {
				var cols []string
				for _, it := range v.Items {
					if !it.Star {
						cols = append(cols, it.OutName())
					}
				}
				rels = append(rels, rel{alias: tr.EffName(), cols: cols})
				return nil
			}
			return fmt.Errorf("enforce: cannot expand * over unknown relation %q", tr.Name)
		}
		rels = append(rels, rel{alias: tr.EffName(), cols: t.Schema.ColumnNames()})
		return nil
	}
	if err := add(sel.From); err != nil {
		return err
	}
	for _, j := range sel.Joins {
		if err := add(j.Table); err != nil {
			return err
		}
	}
	qualify := len(rels) > 1
	var items []sql.SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, rl := range rels {
			for _, c := range rl.cols {
				name := c
				if qualify {
					name = rl.alias + "." + c
				}
				items = append(items, sql.SelectItem{Expr: relation.ColRefExpr(name)})
			}
		}
	}
	sel.Items = items
	return nil
}

// filterApplies reports whether every column the filter references exists
// in at least one of the involved base tables (so the rewritten query
// still runs).
func filterApplies(f relation.Expr, cat *sql.Catalog, tables []string) bool {
	for _, ref := range relation.ColumnsOf(f) {
		found := false
		for _, tn := range tables {
			if t, ok := cat.Table(tn); ok && t.Schema.HasColumn(ref) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
