package sql

import (
	"fmt"
	"strings"

	"plabi/internal/relation"
)

// exec evaluates a SELECT against the snapshot. The result is a derived
// relation.Table carrying full lineage and column origins. With header set
// the base tables contribute their schemas and no rows (Snapshot.Header).
func (c *Snapshot) exec(s *SelectStmt, seen map[string]bool, header bool) (*relation.Table, error) {
	cur, residual, err := c.from(s, seen, header)
	if err != nil {
		return nil, err
	}
	return finish(cur, residual, s)
}

// from evaluates the FROM clause: each input resolved and qualified in
// declaration order, single-relation WHERE conjuncts pushed below the
// joins, then the inputs joined left to right. It returns the joined
// relation — the schema every column reference of the statement resolves
// against — and the WHERE conjuncts the pushdown did not claim.
func (c *Snapshot) from(s *SelectStmt, seen map[string]bool, header bool) (*relation.Table, relation.Expr, error) {
	inputs := make([]*relation.Table, 0, 1+len(s.Joins))
	first, err := c.resolve(s.From.Name, seen, header)
	if err != nil {
		return nil, nil, err
	}
	inputs = append(inputs, relation.Rename(first, strings.ToLower(s.From.EffName())))
	for _, j := range s.Joins {
		rt, err := c.resolve(j.Table.Name, seen, header)
		if err != nil {
			return nil, nil, err
		}
		inputs = append(inputs, relation.Rename(rt, strings.ToLower(j.Table.EffName())))
	}

	// See pushdown.go for the soundness conditions.
	pushed, residual := planPushdown(s, inputs)
	for k, parts := range pushed {
		if len(parts) == 0 {
			continue
		}
		inputs[k], err = relation.Select(inputs[k], foldAnd(parts))
		if err != nil {
			return nil, nil, err
		}
	}
	cur := inputs[0]
	for i, j := range s.Joins {
		cur, err = relation.Join(cur, inputs[i+1], j.On, j.Kind)
		if err != nil {
			return nil, nil, err
		}
	}
	return cur, residual, nil
}

// finish evaluates the rest of the statement over its joined FROM
// relation: the residual WHERE, grouping or projection, DISTINCT, ORDER BY
// and LIMIT.
func finish(cur *relation.Table, residual relation.Expr, s *SelectStmt) (*relation.Table, error) {
	var err error
	if residual != nil {
		cur, err = relation.Select(cur, residual)
		if err != nil {
			return nil, err
		}
	}

	grouped := len(s.GroupBy) > 0 || s.HasAggregates()
	if grouped {
		cur, err = execGrouped(cur, s)
		if err != nil {
			return nil, err
		}
	} else {
		cur, err = execProjection(cur, s)
		if err != nil {
			return nil, err
		}
	}

	if s.Distinct {
		cur = relation.Distinct(cur)
	}

	// ORDER BY sorts on output columns.
	if len(s.OrderBy) > 0 {
		keys := make([]relation.SortKey, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = relation.SortKey{Col: o.Col, Desc: o.Desc}
		}
		cur, err = relation.Sort(cur, keys...)
		if err != nil {
			return nil, err
		}
	}

	if s.Limit >= 0 {
		cur = relation.Limit(cur, s.Limit)
	}
	cur.Name = "result"
	return cur, nil
}

// execProjection handles the non-aggregated SELECT list.
func execProjection(cur *relation.Table, s *SelectStmt) (*relation.Table, error) {
	var cols []relation.ProjCol
	for _, it := range s.Items {
		switch {
		case it.Star:
			for _, col := range cur.Schema.Columns {
				cols = append(cols, relation.P(col.Name))
			}
		case it.Agg != nil:
			return nil, fmt.Errorf("sql: internal: aggregate in plain projection")
		default:
			cols = append(cols, relation.PAs(it.Expr, it.OutName()))
		}
	}
	out, err := relation.Project(cur, cols...)
	if err != nil {
		return nil, err
	}
	// Star projections keep qualified names only when ambiguous;
	// prefer clean unqualified output names when possible.
	if unq, uerr := out.Schema.Unqualify(); uerr == nil {
		out.Schema = unq
	}
	return out, nil
}

// execGrouped handles GROUP BY + aggregates (including the implicit single
// group when aggregates appear without GROUP BY), then HAVING, then the
// final projection to the SELECT list order.
func execGrouped(cur *relation.Table, s *SelectStmt) (*relation.Table, error) {
	// Materialize computed group keys and aggregate arguments as columns.
	type keyInfo struct {
		col string // column name in the extended input
	}
	var err error
	keys := make([]keyInfo, len(s.GroupBy))
	synth := 0
	for i, g := range s.GroupBy {
		if ce, ok := g.(*relation.ColExpr); ok {
			keys[i] = keyInfo{col: ce.Name}
			continue
		}
		name := fmt.Sprintf("_gk%d", synth)
		synth++
		cur, err = relation.Extend(cur, name, g)
		if err != nil {
			return nil, err
		}
		keys[i] = keyInfo{col: name}
	}

	type aggInfo struct {
		spec    relation.AggSpec
		outName string
	}
	var aggs []aggInfo
	for _, it := range s.Items {
		if it.Agg == nil {
			continue
		}
		spec := relation.AggSpec{Kind: it.Agg.Kind, As: it.OutName()}
		if it.Agg.Arg != nil {
			if ce, ok := it.Agg.Arg.(*relation.ColExpr); ok {
				spec.Col = ce.Name
			} else {
				name := fmt.Sprintf("_ga%d", synth)
				synth++
				cur, err = relation.Extend(cur, name, it.Agg.Arg)
				if err != nil {
					return nil, err
				}
				spec.Col = name
			}
			if it.Agg.Distinct && it.Agg.Kind != relation.AggCountDistinct {
				return nil, fmt.Errorf("sql: DISTINCT is only supported with COUNT")
			}
		}
		aggs = append(aggs, aggInfo{spec: spec, outName: spec.As})
	}

	keyCols := make([]string, len(keys))
	for i, k := range keys {
		keyCols[i] = k.col
	}
	specs := make([]relation.AggSpec, len(aggs))
	for i, a := range aggs {
		specs[i] = a.spec
	}
	grouped, err := relation.GroupBy(cur, keyCols, specs)
	if err != nil {
		return nil, err
	}
	// The grouped relation leads with the keys, in order, under their
	// unqualified names.
	keyByExpr := make(map[string]string, len(keys))
	for i, g := range s.GroupBy {
		keyByExpr[g.String()] = grouped.Schema.Columns[i].Name
	}

	// HAVING evaluates against the grouped schema (keys + agg outputs).
	if s.Having != nil {
		grouped, err = relation.Select(grouped, s.Having)
		if err != nil {
			return nil, err
		}
	}

	// Final projection: select-list order. Non-aggregate items must be
	// group keys (or expressions over them, re-evaluated on the grouped
	// row).
	var cols []relation.ProjCol
	for _, it := range s.Items {
		switch {
		case it.Star:
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		case it.Agg != nil:
			cols = append(cols, relation.PAs(relation.ColRefExpr(it.OutName()), it.OutName()))
		default:
			// An expression textually identical to a GROUP BY expression
			// maps to that key column (e.g. SELECT YEAR(d) ... GROUP BY
			// YEAR(d)).
			if kc, ok := keyByExpr[it.Expr.String()]; ok {
				cols = append(cols, relation.PAs(relation.ColRefExpr(kc), it.OutName()))
				continue
			}
			// A bare column must be one of the group keys.
			if ce, ok := it.Expr.(*relation.ColExpr); ok {
				if grouped.Schema.Index(ce.Name) < 0 {
					return nil, fmt.Errorf("sql: column %q is neither aggregated nor grouped", ce.Name)
				}
				cols = append(cols, relation.PAs(relation.ColRefExpr(ce.Name), it.OutName()))
				continue
			}
			// Expression over grouped columns: check it only references
			// grouped output columns.
			for _, ref := range relation.ColumnsOf(it.Expr) {
				if grouped.Schema.Index(ref) < 0 {
					return nil, fmt.Errorf("sql: expression %s references non-grouped column %q", it.Expr, ref)
				}
			}
			cols = append(cols, relation.PAs(it.Expr, it.OutName()))
		}
	}
	out, err := relation.Project(grouped, cols...)
	if err != nil {
		return nil, err
	}
	if unq, uerr := out.Schema.Unqualify(); uerr == nil {
		out.Schema = unq
	}
	return out, nil
}
