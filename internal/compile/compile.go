// Package compile is the policy-change-time partial evaluator behind
// every render: it specializes the composed PLA set governing one
// (report, role, purpose) triple into a residual program the render hot
// path executes without interpreting a single policy rule.
//
// The idea is OPA-style partial evaluation applied to the paper's
// composition semantics (§5): everything that is constant once the
// policy world is fixed — static verdicts, merged aggregation
// thresholds, row-filter predicates, per-column access decisions — is
// folded into the program when the plan is built, and rules that can
// never influence a decision (plalint's PL001 dead-rule analysis, via
// policy.RuleCovers) are pruned from the residual rule set. The program
// is pinned to the exact generations of the report definition, policy
// registry, catalog and enforcer configuration it was specialized
// against; any policy change moves a generation and forces a recompile.
// The program is a constant of the policy world, not of the data: an
// incremental refresh swaps table versions under a valid program, and
// every render executes it over the data as it is (see internal/enforce).
//
// compile sits below enforce (which executes programs) and is
// independent of lint (which reports the same dead rules to authors);
// both share the covering primitives exported by internal/policy.
package compile

import (
	"sort"
	"strings"

	"plabi/internal/policy"
	"plabi/internal/relation"
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
	// Scope is the enforcer configuration generation (levels, extra
	// meta-report scopes).
	Scope uint64
}

// Verdict is a constant decision folded at compile time: the residual
// program needs no data to reach it. A program with verdicts renders to
// an empty result carrying exactly these decisions.
type Verdict struct {
	Outcome string
	Rule    string
	Subject string
	Detail  string
	PLAs    []string
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

// BoundPredicate is a PLA predicate (row filter or intensional
// condition) specialized for batch evaluation: referenced columns are
// pre-resolved and the expression is bound to a fixed column layout, so
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

// ColumnPlan is the compile-time classification of one output column.
type ColumnPlan struct {
	Name string
	// Aggregate marks columns produced by aggregate functions, governed
	// by thresholds rather than attribute access.
	Aggregate bool
	// Masked marks columns the consumer may never see; Rule and PLAs
	// carry the folded decision.
	Masked bool
	Rule   string
	PLAs   []string
	// Conditions renders the intensional conditions attached to a
	// conditionally released column.
	Conditions []string
}

// PrunedRule records one access rule removed from the residual rule set
// because it can never influence a decision (PL001 dead-rule analysis).
// Pruning is decision-neutral: the residual program behaves identically
// with or without the rule; recording it documents how much of the
// composite survives specialization.
type PrunedRule struct {
	PLA       string
	Effect    string
	Attribute string
	Reason    string
}

// Program is the residual render program for one (report, role, purpose)
// triple: the complete output of partial evaluation, inspectable via
// Explain. The enforcement layer stores programs in its generation-keyed
// plan cache and executes them on every render.
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
	// Static holds the folded constant verdicts; non-empty means the
	// render folds to an empty result without touching data.
	Static []Verdict
	// Thresholds are the baked aggregation thresholds, sorted by By.
	Thresholds []Threshold
	// Filters are the pre-bound row filters in composition order.
	Filters []BoundPredicate
	// FilterPLAs names the agreements behind the row filters.
	FilterPLAs []string
	// Columns is the classification of the output columns, in header
	// order, for Explain and pladiff: the one the static check reports and
	// row enforcement runs.
	Columns []ColumnPlan
	// Pruned lists the dead rules removed from the residual rule set.
	Pruned []PrunedRule
	// TotalRules and LiveRules count the composite's access rules before
	// and after pruning.
	TotalRules int
	LiveRules  int
}

// Blocked reports whether the program folds to a refusal: any static
// block verdict means the render returns an error without touching data.
// Mask verdicts keep the render alive (cells blank, rows survive).
func (p *Program) Blocked() bool {
	for _, v := range p.Static {
		if v.Outcome == "block" {
			return true
		}
	}
	return false
}

// Input is everything Compile specializes against. The enforcement layer
// supplies the already-composed PLA set together with its own folded
// products (static verdicts, column classification) so the two layers
// can never disagree on decision semantics.
type Input struct {
	Report  string
	Role    string
	Purpose string
	At      Generations

	Composite  *policy.Composite
	Aggregated bool
	Static     []Verdict
	Columns    []ColumnPlan
}

// Compile partially evaluates the composite into a residual program:
// thresholds merged and sorted, filters pre-bound, dead rules pruned.
func Compile(in Input) *Program {
	p := &Program{
		Report: in.Report, Role: in.Role, Purpose: in.Purpose, At: in.At,
		Aggregated: in.Aggregated,
		Static:     in.Static,
		Columns:    in.Columns,
		FilterPLAs: in.Composite.FilterPLAs(),
	}
	for _, pla := range in.Composite.PLAs {
		p.PLAs = append(p.PLAs, pla.ID)
	}

	// Fold thresholds: most-restrictive merge per grouping attribute,
	// sorted once at compile time (the interpreter re-sorted per row).
	// A non-aggregated report under a threshold folds to a static block
	// instead (already present in Static), so thresholds only survive
	// into programs that aggregate.
	if in.Aggregated {
		merged := map[string]int{}
		for _, rule := range in.Composite.AggregationRules() {
			key := strings.ToLower(rule.By)
			if rule.MinCount > merged[key] {
				merged[key] = rule.MinCount
			}
		}
		aggPLAs := in.Composite.AggregationPLAs()
		for by, min := range merged {
			p.Thresholds = append(p.Thresholds, Threshold{By: by, Min: min, PLAs: aggPLAs})
		}
		sort.Slice(p.Thresholds, func(i, j int) bool { return p.Thresholds[i].By < p.Thresholds[j].By })
	}

	// Pre-bind row filters (predicate pushdown into the support scan).
	for _, f := range in.Composite.Filters() {
		p.Filters = append(p.Filters, BindPredicate(f))
	}

	p.Pruned = pruneDeadRules(in.Composite)
	for _, pla := range in.Composite.PLAs {
		p.TotalRules += len(pla.Access)
	}
	p.LiveRules = p.TotalRules - len(p.Pruned)
	return p
}

// pruneDeadRules runs PL001 over the composite's rule set: allow rules
// fully covered by an unconditional deny in a co-governing agreement
// (shadowed — most-restrictive-wins makes them unreachable) and rules
// covered by an earlier unconditional rule of the same effect in the
// same agreement (redundant).
func pruneDeadRules(comp *policy.Composite) []PrunedRule {
	var out []PrunedRule
	for _, pla := range comp.PLAs {
		for i, r := range pla.Access {
			if r.Effect == policy.Allow {
				if by := shadowingDeny(comp, pla, r); by != "" {
					out = append(out, PrunedRule{
						PLA: pla.ID, Effect: r.Effect.String(), Attribute: r.Attribute,
						Reason: "shadowed by unconditional deny in " + by,
					})
					continue
				}
			}
			if j := coveredEarlier(pla, i); j >= 0 {
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

// shadowingDeny returns the id of a co-governing agreement whose deny
// covers every triple r matches ("" when none does). Scoped levels only
// shadow within their own scope; report- and meta-report-level rules
// speak about any referenced name, so their denies shadow everywhere.
func shadowingDeny(comp *policy.Composite, owner *policy.PLA, r policy.AccessRule) string {
	for _, q := range comp.PLAs {
		if !coGoverns(q, owner) {
			continue
		}
		for _, s := range q.Access {
			// A deny's condition is ignored by decision composition, so
			// any covering deny shadows unconditionally.
			if s.Effect == policy.Deny && policy.RuleCovers(s, r) {
				return q.ID
			}
		}
	}
	return ""
}

// coGoverns reports whether q's rules are guaranteed to govern every
// attribute reference p's rules govern. Conservative: cross-scope
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

// coveredEarlier returns the index of an earlier unconditional rule in
// the same PLA with the same effect covering rule i (-1 when none).
func coveredEarlier(pla *policy.PLA, i int) int {
	r := pla.Access[i]
	if r.When != nil {
		return -1
	}
	for j := 0; j < i; j++ {
		s := pla.Access[j]
		if s.Effect == r.Effect && s.When == nil && policy.RuleCovers(s, r) {
			return j
		}
	}
	return -1
}
