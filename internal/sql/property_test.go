package sql

import (
	"fmt"
	"math/rand"
	"testing"

	"plabi/internal/relation"
)

// TestImpliesSoundness is the key property of the implication engine:
// whenever Implies(r, m) holds, every concrete value satisfying r must
// satisfy m. (Completeness is not required — false negatives only force
// an unnecessary re-elicitation.)
func TestImpliesSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	col := relation.ColRef{Table: "t", Column: "x"}
	randPred := func() SimplePred {
		switch rng.Intn(4) {
		case 0:
			return SimplePred{Col: col, Op: relation.OpEq, Val: relation.Int(int64(rng.Intn(10)))}
		case 1:
			ops := []relation.BinOp{relation.OpLt, relation.OpLe, relation.OpGt, relation.OpGe, relation.OpNe}
			return SimplePred{Col: col, Op: ops[rng.Intn(len(ops))], Val: relation.Int(int64(rng.Intn(10)))}
		case 2:
			n := 1 + rng.Intn(3)
			vals := make([]relation.Value, n)
			for i := range vals {
				vals[i] = relation.Int(int64(rng.Intn(10)))
			}
			return SimplePred{Col: col, In: vals}
		default:
			n := 1 + rng.Intn(3)
			vals := make([]relation.Value, n)
			for i := range vals {
				vals[i] = relation.Int(int64(rng.Intn(10)))
			}
			return SimplePred{Col: col, In: vals, NotP: true}
		}
	}
	checked, implications := 0, 0
	for trial := 0; trial < 5000; trial++ {
		r, m := randPred(), randPred()
		if !Implies(r, m) {
			continue
		}
		implications++
		for v := int64(-2); v <= 12; v++ {
			val := relation.Int(v)
			if satisfies(val, r) && !satisfies(val, m) {
				t.Fatalf("unsound: %v implies %v but value %d satisfies only the premise", r, m, v)
			}
			checked++
		}
	}
	if implications < 100 {
		t.Fatalf("too few implications exercised: %d", implications)
	}
	t.Logf("checked %d values over %d implications", checked, implications)
}

// TestImpliesReflexiveTransitive: implication is reflexive on concrete
// predicate shapes, and transitive whenever the chain exists.
func TestImpliesReflexiveTransitive(t *testing.T) {
	col := relation.ColRef{Table: "t", Column: "x"}
	preds := []SimplePred{
		{Col: col, Op: relation.OpEq, Val: relation.Int(5)},
		{Col: col, Op: relation.OpGt, Val: relation.Int(3)},
		{Col: col, Op: relation.OpGe, Val: relation.Int(4)},
		{Col: col, Op: relation.OpNe, Val: relation.Int(0)},
		{Col: col, In: []relation.Value{relation.Int(4), relation.Int(5)}},
	}
	for _, p := range preds {
		if !Implies(p, p) {
			t.Errorf("not reflexive: %v", p)
		}
	}
	for _, a := range preds {
		for _, b := range preds {
			for _, c := range preds {
				if Implies(a, b) && Implies(b, c) && !Implies(a, c) {
					t.Errorf("not transitive: %v => %v => %v", a, b, c)
				}
			}
		}
	}
}

// TestGeneratedQueryRoundTrip: random queries from a small grammar — over a
// base table and over a registered derived table with qualified column
// names — must parse, render, re-parse to the identical rendering, execute
// to the same result, have the executed header as their Header, and
// profile to the executed column origins and lineage tables.
func TestGeneratedQueryRoundTrip(t *testing.T) {
	cat := derivedCatalog(t)
	rng := rand.New(rand.NewSource(7))
	cols := []string{"patient", "doctor", "drug", "disease"}
	filters := []string{
		"", "disease = 'HIV'", "disease <> 'HIV' AND drug = 'DR'",
		"patient LIKE 'A%'", "drug IN ('DH', 'DV', 'DM')",
		"date >= DATE '2007-06-01'", "doctor IS NOT NULL",
	}
	for trial := 0; trial < 200; trial++ {
		col := cols[rng.Intn(len(cols))]
		filter := filters[rng.Intn(len(filters))]
		shape := rng.Intn(3)
		from := []string{"prescriptions", "rx_cost"}[rng.Intn(2)]
		var q string
		switch shape {
		case 0:
			q = fmt.Sprintf("SELECT %s FROM %s", col, from)
		case 1:
			q = fmt.Sprintf("SELECT %s, COUNT(*) AS n FROM %s", col, from)
		default:
			q = fmt.Sprintf("SELECT DISTINCT %s FROM %s", col, from)
		}
		if filter != "" {
			q += " WHERE " + filter
		}
		if shape == 1 {
			q += " GROUP BY " + col
		}
		q += " ORDER BY " + col
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(5))
		}

		sel, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		rendered := sel.String()
		again, err := ParseSelect(rendered)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("unstable rendering: %q -> %q", rendered, again.String())
		}
		r1, err := cat.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		checkHeaderIsExecuted(t, cat, q)
		checkProfileIsExecuted(t, cat, q)
		r2, err := cat.Query(rendered)
		if err != nil {
			t.Fatalf("Query(rendered %q): %v", rendered, err)
		}
		if r1.NumRows() != r2.NumRows() {
			t.Fatalf("row mismatch for %q: %d vs %d", q, r1.NumRows(), r2.NumRows())
		}
		for i := range r1.NumRows() {
			for c, v := range r1.Row(i) {
				if v.Key() != r2.Row(i)[c].Key() {
					t.Fatalf("cell mismatch for %q at (%d,%d)", q, i, c)
				}
			}
		}
	}
}

// TestProfileStableUnderRendering: profiling a query and profiling its
// canonical rendering yield the same structural summary.
func TestProfileStableUnderRendering(t *testing.T) {
	cat := testCatalog()
	queries := []string{
		"SELECT patient, drug FROM prescriptions WHERE disease = 'HIV'",
		"SELECT p.patient FROM prescriptions p JOIN drugcost d ON p.drug = d.drug WHERE d.cost > 20",
		"SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug",
	}
	for _, q := range queries {
		sel, err := ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := ProfileQuery(cat, sel)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ProfileSQL(cat, sel.String())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", p1.BaseTables) != fmt.Sprintf("%v", p2.BaseTables) ||
			fmt.Sprintf("%v", p1.OutputCols) != fmt.Sprintf("%v", p2.OutputCols) ||
			len(p1.Conjuncts) != len(p2.Conjuncts) ||
			p1.Aggregated != p2.Aggregated {
			t.Errorf("profile drift for %q", q)
		}
	}
}
