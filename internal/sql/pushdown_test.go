package sql

import (
	"fmt"
	"reflect"
	"testing"

	"plabi/internal/relation"
)

func pushdownCatalog() *Catalog {
	c := NewCatalog()
	pat := relation.NewBase("patients", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("age", relation.TInt),
		relation.Col("city", relation.TString),
	))
	pat.AppendVals(relation.Str("p1"), relation.Int(30), relation.Str("trento"))
	pat.AppendVals(relation.Str("p2"), relation.Int(41), relation.Str("rovereto"))
	pat.AppendVals(relation.Str("p3"), relation.Int(55), relation.Str("trento"))
	pat.AppendVals(relation.Str("p4"), relation.Int(17), relation.Str("bolzano"))
	c.Register(pat)

	rx := relation.NewBase("rx", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("drug", relation.TString),
		relation.Col("qty", relation.TInt),
	))
	rx.AppendVals(relation.Str("p1"), relation.Str("aspirin"), relation.Int(2))
	rx.AppendVals(relation.Str("p2"), relation.Str("ibuprofen"), relation.Int(1))
	rx.AppendVals(relation.Str("p2"), relation.Str("aspirin"), relation.Int(3))
	rx.AppendVals(relation.Str("p5"), relation.Str("aspirin"), relation.Int(9))
	c.Register(rx)
	return c
}

// runBothPlans executes the query with pushdown as wired, and again with
// the planner disabled by moving the WHERE into a HAVING-free reference:
// we simply re-run exec with a statement whose WHERE survives intact by
// marking every conjunct unsafe is not possible from outside, so instead
// the reference result is computed by the row-at-a-time executor before
// this PR: join everything, then filter. We reconstruct it with the
// relational primitives directly.
func execReference(c *Catalog, src string) (*relation.Table, error) {
	s, err := ParseSelect(src)
	if err != nil {
		return nil, err
	}
	// Reference: the pre-pushdown pipeline (join all, then WHERE), built
	// from the same primitives exec uses.
	cur, err := c.Snapshot().resolve(s.From.Name, map[string]bool{}, false)
	if err != nil {
		return nil, err
	}
	cur = relation.Rename(cur, s.From.EffName())
	for _, j := range s.Joins {
		rt, err := c.Snapshot().resolve(j.Table.Name, map[string]bool{}, false)
		if err != nil {
			return nil, err
		}
		rt = relation.Rename(rt, j.Table.EffName())
		cur, err = relation.Join(cur, rt, j.On, j.Kind)
		if err != nil {
			return nil, err
		}
	}
	if s.Where != nil {
		cur, err = relation.Select(cur, s.Where)
		if err != nil {
			return nil, err
		}
	}
	if len(s.GroupBy) > 0 || s.HasAggregates() {
		cur, err = execGrouped(cur, s)
	} else {
		cur, err = execProjection(cur, s)
	}
	if err != nil {
		return nil, err
	}
	if s.Distinct {
		cur = relation.Distinct(cur)
	}
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

// TestPushdownEquivalence runs join-heavy queries through the pushdown
// executor and the filter-after-join reference; results (rows, lineage,
// rendering) must be identical.
func TestPushdownEquivalence(t *testing.T) {
	c := pushdownCatalog()
	queries := []string{
		"SELECT p.patient, r.drug FROM patients p JOIN rx r ON p.patient = r.patient WHERE p.age > 20",
		"SELECT p.patient, r.drug FROM patients p JOIN rx r ON p.patient = r.patient WHERE p.age > 20 AND r.qty >= 2",
		"SELECT p.patient, r.drug FROM patients p JOIN rx r ON p.patient = r.patient WHERE p.city = 'trento' AND r.drug = 'aspirin' AND p.age < 50",
		"SELECT p.patient, r.drug FROM patients p LEFT JOIN rx r ON p.patient = r.patient WHERE p.age > 20",
		"SELECT p.patient, r.drug FROM patients p LEFT JOIN rx r ON p.patient = r.patient WHERE r.qty > 1",
		"SELECT city, COUNT(*) AS n FROM patients p JOIN rx r ON p.patient = r.patient WHERE r.drug = 'aspirin' GROUP BY city ORDER BY n DESC",
		"SELECT p.patient FROM patients p WHERE p.age > 20 AND p.city <> 'bolzano' ORDER BY patient",
		"SELECT p.patient, r.drug FROM patients p JOIN rx r ON p.patient = r.patient WHERE p.age + r.qty > 30",
	}
	for _, q := range queries {
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := execReference(c, q)
		if err != nil {
			t.Fatalf("%s (reference): %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\npushdown:\n%s\nreference:\n%s", q, got.String(), want.String())
		}
		for i := range got.NumRows() {
			if !reflect.DeepEqual(got.RowLineage(i), want.RowLineage(i)) {
				t.Errorf("%s: lineage of row %d diverged", q, i)
			}
		}
	}
}

// TestPushdownPlan pins which conjuncts the planner claims.
func TestPushdownPlan(t *testing.T) {
	c := pushdownCatalog()
	plan := func(src string) ([][]relation.Expr, relation.Expr) {
		s, err := ParseSelect(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		inputs := []*relation.Table{}
		cur, _ := c.Snapshot().resolve(s.From.Name, map[string]bool{}, false)
		inputs = append(inputs, relation.Rename(cur, s.From.EffName()))
		for _, j := range s.Joins {
			rt, _ := c.Snapshot().resolve(j.Table.Name, map[string]bool{}, false)
			inputs = append(inputs, relation.Rename(rt, j.Table.EffName()))
		}
		return planPushdown(s, inputs)
	}

	// Single-relation conjuncts split to their carriers; nothing residual.
	pushed, res := plan("SELECT * FROM patients p JOIN rx r ON p.patient = r.patient WHERE p.age > 20 AND r.qty >= 2")
	if len(pushed[0]) != 1 || len(pushed[1]) != 1 || res != nil {
		t.Errorf("inner join split: pushed=%v,%v residual=%v", pushed[0], pushed[1], res)
	}

	// Cross-relation conjunct stays residual.
	pushed, res = plan("SELECT * FROM patients p JOIN rx r ON p.patient = r.patient WHERE p.age + r.qty > 30")
	if len(pushed[0]) != 0 || len(pushed[1]) != 0 || res == nil {
		t.Errorf("cross-relation conjunct should stay residual, got pushed=%v,%v", pushed[0], pushed[1])
	}

	// Right side of a LEFT JOIN must not be pre-filtered; left side may.
	pushed, res = plan("SELECT * FROM patients p LEFT JOIN rx r ON p.patient = r.patient WHERE p.age > 20 AND r.qty > 1")
	if len(pushed[0]) != 1 {
		t.Errorf("left side of LEFT JOIN should be pushable, got %v", pushed[0])
	}
	if len(pushed[1]) != 0 || res == nil {
		t.Errorf("right side of LEFT JOIN must stay residual, got pushed=%v residual=%v", pushed[1], res)
	}

	// An unsafe conjunct anywhere disables the whole pushdown (no
	// short-circuit in the reference: errors must not be suppressed).
	pushed, res = plan("SELECT * FROM patients p JOIN rx r ON p.patient = r.patient WHERE p.age > 20 AND nosuch > 1")
	if len(pushed[0]) != 0 || len(pushed[1]) != 0 || res == nil {
		t.Errorf("unsafe WHERE must disable pushdown entirely, got pushed=%v,%v", pushed[0], pushed[1])
	}
}

// TestPushdownErrorEquivalence: queries whose WHERE errors must keep
// erroring identically with the planner in place.
func TestPushdownErrorEquivalence(t *testing.T) {
	c := pushdownCatalog()
	for _, q := range []string{
		"SELECT p.patient FROM patients p JOIN rx r ON p.patient = r.patient WHERE nosuch = 1",
		"SELECT p.patient FROM patients p WHERE NOSUCHFN(p.age) > 1",
	} {
		_, err := c.Query(q)
		if err == nil {
			t.Errorf("%s: expected error, got none", q)
		}
	}
}

// TestSplitFold pins conjunct flattening and refolding order.
func TestSplitFold(t *testing.T) {
	a := relation.ColEqStr("a", "1")
	b := relation.ColEqStr("b", "2")
	d := relation.ColEqStr("d", "3")
	tree := relation.And(relation.And(a, b), d)
	parts := splitConjuncts(tree)
	if len(parts) != 3 {
		t.Fatalf("want 3 conjuncts, got %d", len(parts))
	}
	refolded := foldAnd(parts)
	if fmt.Sprint(refolded) != fmt.Sprint(tree) {
		t.Errorf("refold changed shape: %v vs %v", refolded, tree)
	}
	if foldAnd(nil) != nil {
		t.Error("foldAnd(nil) should be nil")
	}
}
