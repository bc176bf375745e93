package enforce

import (
	"fmt"
	"sort"
	"strings"
)

// Explain renders the program as a deterministic, human-readable plan —
// the analogue of an EXPLAIN statement: the pinned generations, the
// pruned rule set, the static refusal if there is one, baked thresholds,
// pre-bound filters and the per-column classification.
func (p *Program) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "residual program %s (role %s, purpose %s)\n", p.Report, orAny(p.Role), orAny(p.Purpose))
	fmt.Fprintf(&b, "  generations: report v%d, policy %d, catalog %d, scope %d\n",
		p.At.Version, p.At.Policy, p.At.Catalog, p.At.Scope)
	fmt.Fprintf(&b, "  governing PLAs (%d): %s\n", len(p.PLAs), strings.Join(p.PLAs, ", "))
	fmt.Fprintf(&b, "  rules: %d total, %d live, %d pruned (PL001)\n",
		p.TotalRules, p.LiveRules, len(p.Pruned))
	for _, pr := range p.Pruned {
		fmt.Fprintf(&b, "    - %s: %s %s — %s\n", pr.PLA, pr.Effect, pr.Attribute, pr.Reason)
	}

	if p.Blocked() {
		fmt.Fprintf(&b, "  folded verdicts (%d): render is a compile-time constant (empty result)\n", len(p.Static))
		for _, d := range p.Static {
			b.WriteString("    - " + d.String() + "\n")
		}
		return b.String()
	}

	if len(p.Thresholds) == 0 {
		b.WriteString("  thresholds: none\n")
	} else {
		fmt.Fprintf(&b, "  thresholds (baked, %d):\n", len(p.Thresholds))
		for _, t := range p.Thresholds {
			by := t.By
			if by == "" {
				by = "<rows>"
			}
			fmt.Fprintf(&b, "    - min %d by %q pla=[%s]\n", t.Min, by, strings.Join(t.PLAs, ","))
		}
	}

	if len(p.Filters) == 0 {
		b.WriteString("  row filters: none\n")
	} else {
		fmt.Fprintf(&b, "  row filters (pre-bound, %d) pla=[%s]:\n",
			len(p.Filters), strings.Join(p.FilterPLAs, ","))
		for _, f := range p.Filters {
			safety := "safe"
			if !f.Safe {
				safety = "fallible"
			}
			fmt.Fprintf(&b, "    - %s over (%s) [%s]\n", f.Expr, strings.Join(f.Cols, ", "), safety)
		}
	}

	if len(p.Columns) > 0 {
		fmt.Fprintf(&b, "  columns (%d):\n", len(p.Columns))
		cols := append([]ColumnPlan(nil), p.Columns...)
		sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
		for _, c := range cols {
			switch {
			case c.Aggregate:
				fmt.Fprintf(&b, "    - %s: aggregate (threshold-governed)\n", c.Name)
			case c.Masked:
				line := fmt.Sprintf("    - %s: mask (%s)", c.Name, c.Decision.Rule)
				if len(c.Decision.PLAs) > 0 {
					line += " pla=[" + strings.Join(c.Decision.PLAs, ",") + "]"
				}
				b.WriteString(line + "\n")
			case len(c.Conditions) > 0:
				conds := make([]string, len(c.Conditions))
				for i, cond := range c.Conditions {
					conds[i] = fmt.Sprint(cond.Expr)
				}
				fmt.Fprintf(&b, "    - %s: release when %s\n", c.Name, strings.Join(conds, " AND "))
			default:
				fmt.Fprintf(&b, "    - %s: release\n", c.Name)
			}
		}
	}

	b.WriteString("  pipeline: exec")
	if len(p.Thresholds) > 0 {
		b.WriteString(" -> thresholds")
	}
	if !p.Aggregated && len(p.Filters) > 0 {
		b.WriteString(" -> filters")
	}
	b.WriteString(" -> mask\n")
	return b.String()
}

func orAny(s string) string {
	if s == "" {
		return "*"
	}
	return s
}
