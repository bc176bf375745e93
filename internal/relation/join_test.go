package relation

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// starJoinInputs returns the inputs of the scenario's join-residents step
// at the given size, stored and frozen as the staging area holds them:
// rx_cost, the join of n prescriptions with 25 drug costs (two lineage
// columns), and the residents, one row per patient, whose zip each
// prescription repeats. With missing, every eleventh prescription names a
// patient no resident row has.
func starJoinInputs(n, residents int, missing bool) (rxCost, res *Table) {
	patients := residents
	if missing {
		patients += residents / 10
	}
	rx := NewBase("prescriptions", NewSchema(Col("rx_id", TInt), Col("patient", TString), Col("drug", TString), Col("date", TDate), Col("zip", TString)))
	for i := 0; i < n; i++ {
		p := (i * 7) % patients
		rx.AppendVals(Int(int64(i)), Str(fmt.Sprintf("p%05d", p)), Str(fmt.Sprintf("d%02d", i%25)), DateYMD(2008, 1, 1+i%28), Str(fmt.Sprintf("z%03d", p%300)))
	}
	cost := NewBase("drugcost", NewSchema(Col("name", TString), Col("cost", TInt)))
	for d := 0; d < 25; d++ {
		cost.AppendVals(Str(fmt.Sprintf("d%02d", d)), Int(int64(10*d)))
	}
	rx.Freeze()
	cost.Freeze()
	rxCost, err := Join(Rename(rx, "p"), Rename(cost, "c"), Eq(ColRefExpr("p.drug"), ColRefExpr("c.name")), InnerJoin)
	if err != nil {
		panic(err)
	}
	rxCost.Freeze()
	res = NewBase("residents", NewSchema(Col("patient", TString), Col("age", TInt), Col("zip", TString)))
	for i := 0; i < residents; i++ {
		res.AppendVals(Str(fmt.Sprintf("p%05d", i)), Int(int64(20+i%60)), Str(fmt.Sprintf("z%03d", i%300)))
	}
	res.Freeze()
	return rxCost, res
}

// TestJoinAllocationBudget holds the ETL's foreign-key join to what its
// output needs, on one P: joining the 50k-row rx_cost with the 5k
// residents, both stored and frozen (the right side's index built once per
// version, as for every later rebuild), allocates no more than its output
// cells as typed vectors — ten columns, 52 bytes a row, whether shared
// with the left input or gathered — the two sides' ordinals (8 bytes a
// row), one lineage column per base table (three, 12 bytes a row) and a
// 64 KB slack: 3.7 MB at 50k rows. Copying the rows into 40-byte values
// took 20 MB for the cells alone.
func TestJoinAllocationBudget(t *testing.T) {
	const n = 50000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l, r := starJoinInputs(n, 5000, false)
	on := Eq(ColRefExpr("l.patient"), ColRefExpr("r.patient"))
	if _, _, err := JoinOrdinals(Rename(l, "l"), Rename(r, "r"), on, InnerJoin); err != nil { // builds the right side's index
		t.Fatal(err)
	}
	var out *Table
	got := allocated(func() {
		var err error
		out, _, err = JoinOrdinals(Rename(l, "l"), Rename(r, "r"), on, InnerJoin)
		if err != nil || out.NumRows() != n {
			t.Fatalf("JoinOrdinals = %v rows, %v", out.NumRows(), err)
		}
	})
	cells := n * (cellBytes(l.Schema) + cellBytes(r.Schema))
	tables := uint64(len(out.lin.tables))
	const slack = 64 << 10
	budget := cells + n*8 + n*4*tables + slack
	t.Logf("join of %d rows over %d base tables allocated %d bytes; budget %d (cells %d)", n, tables, got, budget, cells)
	if tables != 3 || got > budget {
		t.Errorf("join allocated %d bytes over %d base tables, more than its budget of %d", got, tables, budget)
	}
}

// BenchmarkJoin is the ETL's foreign-key joins at benchmark size over
// stored, frozen inputs — 50k-row rx_cost, 5k residents — on one key, on
// two keys (verified candidates, a residual-free conjunction) and as a
// LEFT JOIN where a tenth of the left rows find no resident.
func BenchmarkJoin(b *testing.B) {
	l, r := starJoinInputs(50000, 5000, false)
	ml, mr := starJoinInputs(50000, 5000, true)
	one := Eq(ColRefExpr("l.patient"), ColRefExpr("r.patient"))
	two := And(one, Eq(ColRefExpr("l.zip"), ColRefExpr("r.zip")))
	for _, bc := range []struct {
		name string
		l, r *Table
		on   Expr
		kind JoinKind
	}{
		{"single-key", l, r, one, InnerJoin},
		{"multi-key", l, r, two, InnerJoin},
		{"left", ml, mr, one, LeftJoin},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := JoinOrdinals(Rename(bc.l, "l"), Rename(bc.r, "r"), bc.on, bc.kind); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestJoinPlansOverStoredInputs runs every join plan over inputs built as
// row literals and as stored tables, in every pairing, against the
// row-at-a-time reference: one key of an INT and a FLOAT column, NULL keys
// among them; two keys with a residual; a nested loop; a NaN key alone and
// beside a second key (which sends the hash plan to the nested loop); a
// mixed-kind key; a self-join; and a packed side — each as an inner and a
// LEFT JOIN, whose misses null-extend.
func TestJoinPlansOverStoredInputs(t *testing.T) {
	nan := Float(math.NaN())
	l := NewBase("l", NewSchema(Col("k", TInt), Col("f", TFloat), Col("s", TString), Col("m", TString)))
	for _, row := range []Row{
		{Int(1), Float(1), Str("a"), Str("a")},
		{Int(2), nan, Str("b"), Int(1)},
		{Null(), Float(2), Str("a"), Null()},
		{Int(3), Null(), Null(), Str("b")},
		{Int(1), Float(2.5), Str("b"), Float(1)},
	} {
		l.AppendVals(row...)
	}
	r := NewBase("r", NewSchema(Col("k", TFloat), Col("f", TFloat), Col("s", TString), Col("m", TInt)))
	for _, row := range []Row{
		{Float(1), Float(2), Str("a"), Int(1)},
		{Float(2), nan, Str("b"), Str("a")},
		{Int(3), Float(1), Str("b"), Null()},
		{Null(), Float(2.5), Str("a"), Int(1)},
		{Float(1), nan, Null(), Str("b")},
	} {
		r.AppendVals(row...)
	}
	grouped, err := GroupBy(r, []string{"s"}, []AggSpec{{Kind: AggMin, Col: "k", As: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	eq := func(a, b string) Expr { return Eq(ColRefExpr(a), ColRefExpr(b)) }
	cases := []struct {
		name string
		l, r *Table
		on   Expr
	}{
		{"INT-FLOAT key", l, r, eq("l.k", "r.k")},
		{"two keys and a residual", l, r, And(And(eq("l.k", "r.k"), eq("l.s", "r.s")), Bin(OpLt, ColRefExpr("l.f"), Lit(Int(10))))},
		{"nested loop", l, r, Bin(OpLt, ColRefExpr("l.k"), ColRefExpr("r.k"))},
		{"NaN key", l, r, eq("l.f", "r.f")},
		{"NaN beside a second key", l, r, And(eq("l.f", "r.f"), eq("l.s", "r.s"))},
		{"mixed-kind key", l, r, eq("l.m", "r.m")},
		{"self-join", l, l, eq("l.s", "r.s")},
		{"packed right side", l, grouped, eq("l.s", "r.s")},
		{"packed left side", grouped, r, eq("l.k", "r.k")},
	}
	for _, c := range cases {
		for _, kind := range []JoinKind{InnerJoin, LeftJoin} {
			want, werr := joinRows(Rename(c.l, "l"), Rename(c.r, "r"), c.on, kind)
			for _, in := range [][2]*Table{{c.l, c.r}, {storedTwin(c.l), c.r}, {c.l, storedTwin(c.r)}, {storedTwin(c.l), storedTwin(c.r)}} {
				got, gerr := Join(Rename(in[0], "l"), Rename(in[1], "r"), c.on, kind)
				label := fmt.Sprintf("%s kind=%d stored=%v,%v", c.name, kind, in[0] != c.l, in[1] != c.r)
				requireSameOutcome(t, label, got, want, gerr, werr)
			}
		}
	}
}
