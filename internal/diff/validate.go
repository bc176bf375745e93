package diff

import (
	"fmt"
	"sort"
	"strings"

	"plabi/internal/enforce"
	"plabi/internal/lint"
	"plabi/internal/policy"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// Validate is the translation-validation pass: for every (report, role,
// purpose) triple in the state it recomputes the interpreted products —
// composite PLA set, merged thresholds, bound row filters, static
// verdicts, per-column mask decisions — directly from the composite, and
// cross-checks them against the program every render executes. Any
// divergence is a PD000 soundness finding: the program folded something
// the interpreter would decide differently.
//
// The recomputation deliberately does not reuse any of the program's
// products; it re-derives them from the same public composite primitives
// the runtime decisions use.
func Validate(s *State) ([]Impact, error) {
	enf := s.newEnforcer()
	var imps []Impact
	defs := append([]*report.Definition(nil), s.Reports...)
	sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
	for _, def := range defs {
		comp, prof, err := enf.CompositeFor(def)
		if err != nil {
			return nil, fmt.Errorf("diff: validate compose %s: %w", def.ID, err)
		}
		sel, err := def.Parse()
		if err != nil {
			return nil, fmt.Errorf("diff: validate parse %s: %w", def.ID, err)
		}
		for _, role := range tripleRoles(def, nil) {
			prog, _, err := enf.ProgramFor(def, role, def.Purpose)
			if err != nil {
				return nil, fmt.Errorf("diff: validate compile %s/%s: %w", def.ID, role, err)
			}
			t := triple{report: def.ID, role: role, purpose: def.Purpose}
			v := validator{t: t, s: s, comp: comp, prof: prof, sel: sel, prog: prog,
				role: role, purpose: def.Purpose}
			imps = append(imps, v.run()...)
		}
	}
	sortImpacts(imps)
	return imps, nil
}

type validator struct {
	t             triple
	s             *State
	comp          *policy.Composite
	prof          *sql.Profile
	sel           *sql.SelectStmt
	prog          *enforce.Program
	role, purpose string
}

func (v *validator) diverge(subject, msg string) Impact {
	return v.t.impact(CodeTranslation, lint.SevError, subject,
		"compiled program diverges from interpreted composite: "+msg, v.prog.PLAs)
}

func (v *validator) run() []Impact {
	var imps []Impact
	imps = append(imps, v.checkAggregated()...)
	imps = append(imps, v.checkPLAs()...)
	imps = append(imps, v.checkThresholds()...)
	imps = append(imps, v.checkFilters()...)
	imps = append(imps, v.checkStatic()...)
	imps = append(imps, v.checkColumns()...)
	return imps
}

func (v *validator) checkAggregated() []Impact {
	if v.prog.Aggregated != v.prof.Aggregated {
		return []Impact{v.diverge("aggregated",
			fmt.Sprintf("program says aggregated=%v, query profile says %v", v.prog.Aggregated, v.prof.Aggregated))}
	}
	return nil
}

func (v *validator) checkPLAs() []Impact {
	want := make([]string, 0, len(v.comp.PLAs))
	for _, p := range v.comp.PLAs {
		want = append(want, p.ID)
	}
	if strings.Join(want, ",") != strings.Join(v.prog.PLAs, ",") {
		return []Impact{v.diverge("plas",
			fmt.Sprintf("program composes [%s], interpreter composes [%s]",
				strings.Join(v.prog.PLAs, " "), strings.Join(want, " ")))}
	}
	return nil
}

// checkThresholds recomputes the most-restrictive per-attribute merge of
// the composite's aggregation rules and compares it with the baked
// thresholds. A non-aggregated report must bake none (they fold to a
// static block, checked by checkStatic).
func (v *validator) checkThresholds() []Impact {
	var imps []Impact
	if !v.prof.Aggregated {
		if len(v.prog.Thresholds) != 0 {
			imps = append(imps, v.diverge("thresholds",
				fmt.Sprintf("non-aggregated report bakes %d thresholds; interpreter folds them to a static block", len(v.prog.Thresholds))))
		}
		return imps
	}
	want := map[string]int{}
	for _, rule := range v.comp.AggregationRules() {
		key := strings.ToLower(rule.By)
		if rule.MinCount > want[key] {
			want[key] = rule.MinCount
		}
	}
	got := map[string]int{}
	for _, th := range v.prog.Thresholds {
		got[th.By] = th.Min
	}
	for _, by := range sortedKeys(want) {
		if g, ok := got[by]; !ok {
			imps = append(imps, v.diverge(thresholdSubject(by),
				fmt.Sprintf("interpreter enforces min %d by %s; program bakes no threshold", want[by], thresholdSubject(by))))
		} else if g != want[by] {
			imps = append(imps, v.diverge(thresholdSubject(by),
				fmt.Sprintf("interpreter enforces min %d by %s; program bakes min %d", want[by], thresholdSubject(by), g)))
		}
	}
	for _, by := range sortedKeys(got) {
		if _, ok := want[by]; !ok {
			imps = append(imps, v.diverge(thresholdSubject(by),
				fmt.Sprintf("program bakes min %d by %s that no composed aggregation rule requires", got[by], thresholdSubject(by))))
		}
	}
	return imps
}

// checkFilters compares the pre-bound row filters with the composite's
// filter expressions, in composition order, including the safety of the
// pre-bound predicate.
func (v *validator) checkFilters() []Impact {
	want := v.comp.Filters()
	if len(want) != len(v.prog.Filters) {
		return []Impact{v.diverge("filters",
			fmt.Sprintf("interpreter applies %d row filters, program binds %d", len(want), len(v.prog.Filters)))}
	}
	var imps []Impact
	for i, f := range want {
		bound := enforce.BindPredicate(f)
		gotF := v.prog.Filters[i]
		if fmt.Sprint(gotF.Expr) != fmt.Sprint(f) {
			imps = append(imps, v.diverge(fmt.Sprint(f),
				fmt.Sprintf("row filter %d: interpreter applies %s, program binds %s", i, f, gotF.Expr)))
		} else if gotF.Safe != bound.Safe {
			imps = append(imps, v.diverge(fmt.Sprint(f),
				fmt.Sprintf("row filter %s: bound safety %v differs from rebound %v", f, gotF.Safe, bound.Safe)))
		}
	}
	return imps
}

// checkStatic independently re-derives the static verdict set — join
// permission blocks, per-column mask decisions, aggregation fold-to-block
// — and compares it (as a set keyed outcome|rule|subject) with the
// program's folded verdicts.
func (v *validator) checkStatic() []Impact {
	want := map[string]bool{}

	// Join permissions: per-table source+warehouse composites.
	for _, jp := range v.prof.JoinPairs {
		a := v.s.Policies.ForTable(jp.A)
		b := v.s.Policies.ForTable(jp.B)
		if ok, _ := a.JoinAllowed(jp.B); !ok {
			want["block|join-permission|"+jp.A+" JOIN "+jp.B] = true
		} else if ok, _ := b.JoinAllowed(jp.A); !ok {
			want["block|join-permission|"+jp.B+" JOIN "+jp.A] = true
		}
	}

	// Attribute access on non-aggregated output columns.
	aggCols := v.aggregateColumns()
	for _, name := range sortedKeys(v.prof.OutputNames) {
		if aggCols[name] {
			continue
		}
		if d := v.decideColumn(name); d != nil {
			want["mask|"+d.Rule+"|"+name] = true
		}
	}

	// A non-aggregated report under threshold rules folds to blocks.
	if !v.prof.Aggregated {
		for _, rule := range v.comp.AggregationRules() {
			want["block|aggregation-threshold|"+thresholdSubject(rule.By)] = true
		}
	}

	got := map[string]bool{}
	for _, d := range v.prog.Static {
		got[d.Outcome.String()+"|"+d.Rule+"|"+d.Subject] = true
	}
	var imps []Impact
	for _, key := range sortedKeys(want) {
		if !got[key] {
			imps = append(imps, v.diverge(key,
				fmt.Sprintf("interpreter derives static verdict %q that the program lacks", key)))
		}
	}
	for _, key := range sortedKeys(got) {
		if !want[key] {
			imps = append(imps, v.diverge(key,
				fmt.Sprintf("program folds static verdict %q the interpreter does not derive", key)))
		}
	}
	return imps
}

// checkColumns re-derives the per-column classification — aggregate,
// masked (and by which rule), release conditions — and compares it with
// the program's column plans.
func (v *validator) checkColumns() []Impact {
	aggCols := v.aggregateColumns()
	plans := columnMap(v.prog)
	var imps []Impact
	for _, name := range sortedKeys(v.prof.OutputNames) {
		cp, ok := plans[name]
		if !ok {
			imps = append(imps, v.diverge(name,
				fmt.Sprintf("output column %q has no column plan", name)))
			continue
		}
		if aggCols[name] {
			if !cp.Aggregate {
				imps = append(imps, v.diverge(name,
					fmt.Sprintf("column %q aggregates in the query but the plan treats it as raw", name)))
			}
			continue
		}
		if cp.Aggregate {
			imps = append(imps, v.diverge(name,
				fmt.Sprintf("plan treats column %q as aggregate but the query does not aggregate it", name)))
			continue
		}
		d, conds := v.decideColumnConds(name)
		switch {
		case d != nil && !cp.Masked:
			imps = append(imps, v.diverge(name,
				fmt.Sprintf("interpreter masks column %q (%s) but the plan releases it", name, d.Rule)))
		case d == nil && cp.Masked:
			imps = append(imps, v.diverge(name,
				fmt.Sprintf("plan masks column %q (%s) but the interpreter releases it", name, cp.Decision.Rule)))
		case d != nil && cp.Masked && d.Rule != cp.Decision.Rule:
			imps = append(imps, v.diverge(name,
				fmt.Sprintf("column %q masked under rule %q by the interpreter, %q by the plan", name, d.Rule, cp.Decision.Rule)))
		case d == nil:
			wantConds := strings.Join(conds, " AND ")
			gotConds := strings.Join(predicateTexts(cp.Conditions), " AND ")
			if wantConds != gotConds {
				imps = append(imps, v.diverge(name,
					fmt.Sprintf("column %q release conditions diverge: interpreter requires [%s], plan binds [%s]", name, wantConds, gotConds)))
			}
		}
	}
	for name := range plans {
		if _, ok := v.prof.OutputNames[name]; !ok {
			imps = append(imps, v.diverge(name,
				fmt.Sprintf("plan carries column %q the query does not output", name)))
		}
	}
	sortImpacts(imps)
	return imps
}

// --- independent re-derivations of the enforcer's folding helpers ---

type maskDecision struct{ Rule string }

func (v *validator) decideColumn(name string) *maskDecision {
	d, _ := v.decideColumnConds(name)
	return d
}

// decideColumnConds mirrors the runtime column decision: scoped
// attribute references (output name, base-table origins, warehouse
// relations carrying the column) resolved through the composite under
// most-restrictive-wins, closed world.
func (v *validator) decideColumnConds(name string) (*maskDecision, []string) {
	refs := []policy.AttrRef{{Name: strings.ToLower(name)}}
	candidates := map[string]bool{strings.ToLower(name): true}
	for _, o := range v.prof.OutputNames[name] {
		refs = append(refs, policy.AttrRef{Name: o.Column, Table: o.Table})
		candidates[o.Column] = true
	}
	for _, rel := range v.fromNames() {
		tab, ok := v.s.Catalog.Table(rel)
		if !ok {
			continue
		}
		for c := range candidates {
			if tab.Schema.HasColumn(c) {
				refs = append(refs, policy.AttrRef{Name: c, Table: rel})
			}
		}
	}
	d := v.comp.DecideAttributeRefs(refs, v.role, v.purpose)
	if d.Effect == policy.Deny {
		if len(d.Matched) > 0 {
			return &maskDecision{Rule: "access-deny"}, nil
		}
		return &maskDecision{Rule: "access-default-deny"}, nil
	}
	seen := map[string]bool{}
	var conds []string
	for _, c := range d.Conditions {
		if key := fmt.Sprint(c); !seen[key] {
			seen[key] = true
			conds = append(conds, key)
		}
	}
	return nil, conds
}

func (v *validator) fromNames() []string {
	out := []string{strings.ToLower(v.sel.From.Name)}
	for _, j := range v.sel.Joins {
		out = append(out, strings.ToLower(j.Table.Name))
	}
	return out
}

func (v *validator) aggregateColumns() map[string]bool {
	out := map[string]bool{}
	for _, it := range v.sel.Items {
		if it.Agg != nil {
			out[strings.ToLower(it.OutName())] = true
		}
	}
	return out
}
