package enforce

import (
	"sort"
	"strings"

	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/sql"
)

// Generations pins the world state a program was specialized against. A
// program is valid only at exactly these generations.
type Generations struct {
	// Version is the report definition version.
	Version int
	// Policy is the policy.Registry generation (bumped by AddPLAs).
	Policy uint64
	// Catalog is the sql.Catalog generation (bumped by table loads).
	Catalog uint64
	// Scope is the enforcer's scope generation (extra meta-report
	// scopes).
	Scope uint64
}

// Threshold is one aggregation threshold baked into the program: the
// most-restrictive merge (maximum) of every governing rule per grouping
// attribute, pre-sorted so runtime evaluation needs no map iteration or
// per-row sorting.
type Threshold struct {
	// By is the lowercased grouping attribute ("" counts supporting rows).
	By string
	// Min is the merged minimum support.
	Min int
	// PLAs names the agreements imposing thresholds on this report.
	PLAs []string
}

// BoundPredicate is a PLA predicate (row filter or intensional condition)
// specialized for batch evaluation: referenced columns are pre-resolved
// and the expression is bound to a fixed column layout, so
// per-support-row evaluation performs no name lookups. Pred.Selected is
// relation.EvalPredicate over the bound tree.
type BoundPredicate struct {
	// Expr is the original predicate, retained for evidence strings and
	// Explain output.
	Expr relation.Expr
	// Cols are the referenced columns in binding order; runtime resolves
	// base values positionally into a row of this layout.
	Cols []string
	// Pred is the pre-bound evaluator.
	Pred relation.CompiledPredicate
	// Safe reports that evaluation can never error for any row.
	Safe bool
}

// BindPredicate specializes one predicate: column references resolved
// once against the fixed layout ColumnsOf defines.
func BindPredicate(e relation.Expr) BoundPredicate {
	cols := relation.ColumnsOf(e)
	sch := &relation.Schema{Columns: make([]relation.Column, len(cols))}
	for i, c := range cols {
		sch.Columns[i] = relation.Column{Name: c, Type: relation.TString}
	}
	p := relation.CompilePredicate(e, sch)
	return BoundPredicate{Expr: e, Cols: cols, Pred: p, Safe: p.Safe()}
}

// ColumnPlan is the one classification of an output column: governed by
// thresholds (aggregate), masked with the decision each render replays
// into its audit trail, or released subject to bound intensional
// conditions.
type ColumnPlan struct {
	// Name is the lowercased output column name.
	Name string
	// Aggregate marks a column produced by an aggregate function, governed
	// by thresholds rather than attribute access.
	Aggregate bool
	// Masked marks a column the consumer may never see; Decision is the
	// mask decision each render replays.
	Masked   bool
	Decision Decision
	// Conditions are the intensional conditions a released column's cells
	// must meet on every supporting source row.
	Conditions []BoundPredicate
}

// PrunedRule records one access rule removed from the residual rule set
// because it can never influence a decision (PL001 dead-rule analysis).
// Pruning is decision-neutral: it documents how much of the composite
// survives specialization.
type PrunedRule struct {
	PLA       string
	Effect    string
	Attribute string
	Reason    string
}

// Program is the render program of one (report, role, purpose) triple:
// everything about it that does not depend on the data, read once from
// the composed PLAs. The plan cache stores it; the static check, row
// enforcement, Explain, pladiff and its PD000 validator all read these
// fields. It is immutable after construction, so concurrent renders share
// it freely.
type Program struct {
	Report  string
	Role    string
	Purpose string
	At      Generations

	// PLAs lists the governing agreement ids in composition order.
	PLAs []string
	// Aggregated reports whether the query aggregates (thresholds apply
	// per group; row filters only apply to non-aggregated reports).
	Aggregated bool
	// Static is the static check's outcome: join-permission blocks, the
	// masked columns' decisions, and threshold blocks of a report that
	// does not aggregate. Any block refuses the render before the query
	// runs; masks alone keep it alive.
	Static []Decision
	// Thresholds are the baked aggregation thresholds, sorted by By.
	Thresholds []Threshold
	// Filters are the pre-bound row filters in composition order.
	Filters []BoundPredicate
	// FilterPLAs names the agreements behind the row filters.
	FilterPLAs []string
	// Columns classifies the output columns, in header order.
	Columns []ColumnPlan
	// Pruned lists the dead rules removed from the residual rule set.
	Pruned []PrunedRule
	// TotalRules and LiveRules count the composite's access rules before
	// and after pruning.
	TotalRules int
	LiveRules  int

	sel  *sql.SelectStmt
	comp *policy.Composite
	// header is what the query's result carries besides its rows — named
	// for the report, schema, column origins: a refusal returns its shell,
	// a render enforces Columns on a result of exactly this schema.
	header *relation.Table
	// from names the relations of the query's FROM clause, in order.
	from []string
}

// Blocked reports whether the program folds to a refusal: any static
// block means the render returns without touching data.
func (p *Program) Blocked() bool { return len(Blocked(p.Static)) > 0 }

// mergeThresholds merges the composite's aggregation rules
// most-restrictively per grouping attribute, sorted once at plan time.
func mergeThresholds(comp *policy.Composite) []Threshold {
	merged := map[string]int{}
	for _, rule := range comp.AggregationRules() {
		key := strings.ToLower(rule.By)
		if rule.MinCount > merged[key] {
			merged[key] = rule.MinCount
		}
	}
	plas := comp.AggregationPLAs()
	var out []Threshold
	for by, min := range merged {
		out = append(out, Threshold{By: by, Min: min, PLAs: plas})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].By < out[j].By })
	return out
}

// pruneDeadRules runs PL001 over the composite's rule set: allow rules
// covered by an unconditional deny in a co-governing agreement (shadowed)
// and rules covered by an earlier unconditional rule of the same effect in
// the same agreement (redundant).
func pruneDeadRules(comp *policy.Composite) []PrunedRule {
	var out []PrunedRule
	for _, pla := range comp.PLAs {
		var co []*policy.PLA
		for _, q := range comp.PLAs {
			if coGoverns(q, pla) {
				co = append(co, q)
			}
		}
		for i, r := range pla.Access {
			if r.Effect == policy.Allow {
				if by, _ := policy.ShadowingDeny(co, r); by != nil {
					out = append(out, PrunedRule{
						PLA: pla.ID, Effect: r.Effect.String(), Attribute: r.Attribute,
						Reason: "shadowed by unconditional deny in " + by.ID,
					})
					continue
				}
			}
			if j := policy.CoveredEarlier(pla, i); j >= 0 {
				out = append(out, PrunedRule{
					PLA: pla.ID, Effect: r.Effect.String(), Attribute: r.Attribute,
					Reason: "subsumed by earlier " + pla.Access[j].Effect.String() +
						" rule for " + pla.Access[j].Attribute,
				})
			}
		}
	}
	return out
}

// coGoverns reports whether q's rules are guaranteed to govern every
// attribute reference p's rules govern. Scoped levels only shadow within
// their own scope; report- and meta-report-level rules speak about any
// referenced name, so their denies shadow everywhere. Cross-scope
// shadowing at the source/warehouse levels is never assumed.
func coGoverns(q, p *policy.PLA) bool {
	if q.Level != policy.LevelSource && q.Level != policy.LevelWarehouse {
		return true
	}
	if q.Level != p.Level {
		return false
	}
	return q.Scope == "*" || p.Scope == "*" || strings.EqualFold(q.Scope, p.Scope)
}
