package metareport

import (
	"fmt"
	"strings"

	"plabi/internal/policy"
	"plabi/internal/provenance"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// ComplianceTest is one executable check generated from an approved PLA:
// it verifies that a produced report output honours one requirement atom.
// Generated suites give the paper's §6 property — privacy policies tested
// before the system goes into operation — and detect non-compliant
// implementations regardless of where the bug sits (ETL, rendering, or
// enforcement).
type ComplianceTest struct {
	Name string
	// Kind is the requirement kind probed: "access", "condition",
	// "aggregation", "filter", "join".
	Kind string
	// Verify inspects a produced output table (with lineage) and reports
	// compliance.
	Verify func(produced *relation.Table) (bool, string)
}

// MaskValue must match the enforcement layer's placeholder.
var MaskValue = relation.Str("***")

// GenerateTests derives the compliance test suite for one report under
// the PLAs in scope (the report's covering meta-report, its base tables'
// source PLAs, and its own report-level PLAs), over one snapshot of cat.
func GenerateTests(reg *policy.Registry, cat *sql.Catalog,
	def *report.Definition, consumer report.Consumer, metaScopes []string) ([]ComplianceTest, error) {

	snap := cat.Snapshot()
	tr := provenance.Over(snap)
	prof, err := sql.ProfileSQL(snap, def.Query)
	if err != nil {
		return nil, fmt.Errorf("metareport: generate tests: %w", err)
	}
	var plas []*policy.PLA
	seen := map[string]bool{}
	add := func(c *policy.Composite) {
		for _, p := range c.PLAs {
			if !seen[p.ID] {
				seen[p.ID] = true
				plas = append(plas, p)
			}
		}
	}
	add(reg.ForScopes(policy.LevelSource, prof.BaseTables))
	add(reg.ForScopes(policy.LevelWarehouse, prof.BaseTables))
	add(reg.ForScopes(policy.LevelMetaReport, metaScopes))
	add(reg.ForScope(policy.LevelReport, def.ID))
	comp := policy.Compose(plas...)

	sel, err := def.Parse()
	if err != nil {
		return nil, err
	}
	aggCols := map[string]bool{}
	for _, it := range sel.Items {
		if it.Agg != nil {
			aggCols[strings.ToLower(it.OutName())] = true
		}
	}

	var tests []ComplianceTest

	// 1. Access tests: one per output column. Denied or default-denied
	// columns must be fully masked; conditionally allowed columns must be
	// masked wherever a supporting source row violates the condition.
	for name, origins := range prof.OutputNames {
		if aggCols[name] {
			continue
		}
		name := name
		refs := []policy.AttrRef{{Name: name}}
		for _, o := range origins {
			refs = append(refs, policy.AttrRef{Name: o.Column, Table: o.Table})
		}
		d := comp.DecideAttributeRefs(refs, consumer.Role, consumer.Purpose)
		conditions := d.Conditions
		switch {
		case d.Effect == policy.Deny:
			tests = append(tests, ComplianceTest{
				Name: fmt.Sprintf("%s: column %q fully masked for role %s", def.ID, name, consumer.Role),
				Kind: "access",
				Verify: func(produced *relation.Table) (bool, string) {
					ci := produced.Schema.Index(name)
					if ci < 0 {
						return true, "column absent"
					}
					for ri := range produced.Rows {
						if v := produced.Rows[ri][ci]; !v.IsNull() && !v.Equal(MaskValue) {
							return false, fmt.Sprintf("row %d exposes %q", ri, v)
						}
					}
					return true, ""
				},
			})
		case len(conditions) > 0:
			conds := dedupeExprs(conditions)
			tests = append(tests, ComplianceTest{
				Name: fmt.Sprintf("%s: column %q masked when supporting rows violate conditions", def.ID, name),
				Kind: "condition",
				Verify: func(produced *relation.Table) (bool, string) {
					ci := produced.Schema.Index(name)
					if ci < 0 {
						return true, "column absent"
					}
					for ri := range produced.Rows {
						v := produced.Rows[ri][ci]
						if v.IsNull() || v.Equal(MaskValue) {
							continue
						}
						ok, detail := supportSatisfies(tr, produced, ri, conds)
						if !ok {
							return false, fmt.Sprintf("row %d shows %q although %s", ri, v, detail)
						}
					}
					return true, ""
				},
			})
		}
	}

	// 2. Aggregation-threshold tests.
	for _, rule := range comp.AggregationRules() {
		rule := rule
		tests = append(tests, ComplianceTest{
			Name: fmt.Sprintf("%s: every row supported by >= %d distinct %s", def.ID, rule.MinCount, byName(rule.By)),
			Kind: "aggregation",
			Verify: func(produced *relation.Table) (bool, string) {
				for ri := range produced.Rows {
					rt, err := tr.TraceRow(produced, ri)
					if err != nil {
						return false, err.Error()
					}
					if support := tr.ThresholdSupport(rt, rule.By); support < rule.MinCount {
						return false, fmt.Sprintf("row %d has support %d < %d", ri, support, rule.MinCount)
					}
				}
				return true, ""
			},
		})
	}

	// 3. Row-filter tests (non-aggregated outputs).
	if !prof.Aggregated {
		for _, f := range comp.Filters() {
			f := f
			tests = append(tests, ComplianceTest{
				Name: fmt.Sprintf("%s: no row violates filter %s", def.ID, f),
				Kind: "filter",
				Verify: func(produced *relation.Table) (bool, string) {
					for ri := range produced.Rows {
						ok, detail := supportSatisfies(tr, produced, ri, []relation.Expr{f})
						if !ok {
							return false, fmt.Sprintf("row %d: %s", ri, detail)
						}
					}
					return true, ""
				},
			})
		}
	}

	// 4. Join-permission tests (static: the definition must not join
	// forbidden pairs; verified on the produced table's own origins too).
	for _, jp := range prof.JoinPairs {
		jp := jp
		a := reg.ForTable(jp.A)
		b := reg.ForTable(jp.B)
		okA, _ := a.JoinAllowed(jp.B)
		okB, _ := b.JoinAllowed(jp.A)
		if okA && okB {
			continue
		}
		tests = append(tests, ComplianceTest{
			Name: fmt.Sprintf("%s: forbidden join %s-%s yields no data", def.ID, jp.A, jp.B),
			Kind: "join",
			Verify: func(produced *relation.Table) (bool, string) {
				if produced.NumRows() == 0 {
					return true, ""
				}
				// Any produced row combining lineage from both tables is
				// a violation.
				for ri := range produced.Rows {
					support := map[string]bool{}
					for _, ref := range produced.RowLineage(ri) {
						support[ref.Table] = true
					}
					if support[jp.A] && support[jp.B] {
						return false, fmt.Sprintf("row %d combines %s and %s", ri, jp.A, jp.B)
					}
				}
				return true, ""
			},
		})
	}
	return tests, nil
}

// RunTests evaluates a suite against a produced table, returning the
// failures.
func RunTests(tests []ComplianceTest, produced *relation.Table) []string {
	produced, err := produced.Materialize()
	if err != nil {
		return []string{err.Error()}
	}
	var failures []string
	for _, tc := range tests {
		if ok, detail := tc.Verify(produced); !ok {
			failures = append(failures, tc.Name+": "+detail)
		}
	}
	return failures
}

func byName(by string) string {
	if by == "" {
		return "rows"
	}
	return by
}

func dedupeExprs(in []relation.Expr) []relation.Expr {
	seen := map[string]bool{}
	var out []relation.Expr
	for _, e := range in {
		k := e.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// supportSatisfies mirrors the enforcement layer's semantics: every
// supporting base row whose table carries the referenced columns must
// satisfy every condition.
func supportSatisfies(tr *provenance.Tracer, produced *relation.Table, ri int, conds []relation.Expr) (bool, string) {
	rt, err := tr.TraceRow(produced, ri)
	if err != nil {
		return false, err.Error()
	}
	for _, cond := range conds {
		refs := relation.ColumnsOf(cond)
		detail := ""
		rt.Refs(func(ref relation.RowRef) bool {
			vals := make(relation.Row, len(refs))
			for i, col := range refs {
				v, ok, err := tr.BaseValue(ref, col)
				if err != nil {
					detail = err.Error()
					return false
				}
				if !ok {
					return true // the condition does not apply to this row
				}
				vals[i] = v
			}
			cols := make([]relation.Column, len(refs))
			for i, c := range refs {
				cols[i] = relation.Column{Name: c, Type: vals[i].Kind}
			}
			if ok, err := relation.EvalPredicate(cond, vals, &relation.Schema{Columns: cols}); err != nil || !ok {
				detail = fmt.Sprintf("%s violates %s", ref, cond)
				return false
			}
			return true
		})
		if detail != "" {
			return false, detail
		}
	}
	return true, ""
}
