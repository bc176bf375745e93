package provenance

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"plabi/internal/relation"
	"plabi/internal/relation/reltest"
	"plabi/internal/sql"
)

func fixtures() (*relation.Table, *relation.Table, *Tracer) {
	p := relation.NewBase("prescriptions", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("drug", relation.TString),
		relation.Col("disease", relation.TString),
	))
	p.AppendVals(relation.Str("Alice"), relation.Str("DH"), relation.Str("HIV"))
	p.AppendVals(relation.Str("Bob"), relation.Str("DR"), relation.Str("asthma"))
	p.AppendVals(relation.Str("Alice"), relation.Str("DR"), relation.Str("asthma"))

	c := relation.NewBase("drugcost", relation.NewSchema(
		relation.Col("drug", relation.TString),
		relation.Col("cost", relation.TInt),
	))
	c.AppendVals(relation.Str("DH"), relation.Int(60))
	c.AppendVals(relation.Str("DR"), relation.Int(10))

	cat := sql.NewCatalog()
	cat.Register(p, c)
	return p, c, Over(cat.Snapshot())
}

func TestTraceCellThroughJoin(t *testing.T) {
	p, c, tr := fixtures()
	j, err := relation.Join(relation.Rename(p, "p"), relation.Rename(c, "c"),
		relation.Eq(relation.ColRefExpr("p.drug"), relation.ColRefExpr("c.drug")), relation.InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tr.TraceCell(j, 0, "c.cost")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Value.I != 60 {
		t.Errorf("value = %v", ct.Value)
	}
	// The cost cell must trace to drugcost#0.cost only.
	if len(ct.Cells) != 1 || ct.Cells[0].Table != "drugcost" || ct.Cells[0].Column != "cost" || ct.Cells[0].Value.I != 60 {
		t.Errorf("cells = %v", ct.Cells)
	}
	if !strings.Contains(ct.String(), "drugcost#0.cost=60") {
		t.Errorf("String = %s", ct.String())
	}
}

func TestTraceAggregateRow(t *testing.T) {
	p, _, tr := fixtures()
	g, err := relation.GroupBy(p, []string{"disease"}, []relation.AggSpec{{Kind: relation.AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	var asthmaRow = -1
	for i := range g.NumRows() {
		if g.Get(i, "disease").S == "asthma" {
			asthmaRow = i
		}
	}
	rt, err := tr.TraceRow(g, asthmaRow)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.ThresholdSupport(rt, ""); n != 2 {
		t.Errorf("support = %d", n)
	}
	// Distinct patients behind the asthma group: Bob and Alice.
	if n := tr.DistinctSupport(rt, "prescriptions", "patient"); n != 2 {
		t.Errorf("distinct patients = %d", n)
	}
	// Distinct drugs behind the asthma group: only DR.
	if n := tr.DistinctSupport(rt, "prescriptions", "drug"); n != 1 {
		t.Errorf("distinct drugs = %d", n)
	}
}

func TestTraceErrors(t *testing.T) {
	p, _, tr := fixtures()
	if _, err := tr.TraceCell(p, 0, "ghost"); err == nil {
		t.Error("expected unknown column error")
	}
	if _, err := tr.TraceCell(p, 99, "patient"); err == nil {
		t.Error("expected out of range error")
	}
	if _, err := tr.TraceRow(p, -1); err == nil {
		t.Error("expected out of range error")
	}
}

func TestBaseValue(t *testing.T) {
	_, _, tr := fixtures()
	v, ok, err := tr.BaseValue(relation.RowRef{Table: "prescriptions", Row: 1}, "patient")
	if !ok || err != nil || v.S != "Bob" {
		t.Errorf("BaseValue = %v, %v, %v", v, ok, err)
	}
	if _, ok, err := tr.BaseValue(relation.RowRef{Table: "nope", Row: 0}, "x"); ok || err != nil {
		t.Errorf("unknown table must not resolve, nor error (%v)", err)
	}
}

// An unreadable cell of a registered base is an error, distinct from a
// reference that does not apply.
func TestBaseValueReadError(t *testing.T) {
	p, _, _ := fixtures()
	dir := t.TempDir()
	seg, err := relation.NewSegmentStore(dir).Spill(p)
	if err != nil {
		t.Fatal(err)
	}
	cat := sql.NewCatalog()
	cat.Register(seg)
	tr := Over(cat)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tr.BaseValue(relation.RowRef{Table: "prescriptions", Row: 1}, "patient"); ok || err == nil {
		t.Errorf("unreadable cell: ok=%v err=%v, want an error", ok, err)
	}
	if _, ok, err := tr.BaseValue(relation.RowRef{Table: "prescriptions", Row: 1}, "nope"); ok || err != nil {
		t.Errorf("missing column: ok=%v err=%v, want not-applicable", ok, err)
	}
}

// TestStandaloneTracer: a tracer made by NewTracer resolves the tables
// RegisterBase and RefreshBase put in its own catalog, each name at the
// version registered last.
func TestStandaloneTracer(t *testing.T) {
	p, c, _ := fixtures()
	tr := NewTracer()
	tr.RegisterBase(p)
	tr.RefreshBase(c, 0)
	for _, ref := range []relation.RowRef{{Table: "prescriptions", Row: 1}, {Table: "drugcost", Row: 1}} {
		if _, ok, err := tr.BaseValue(ref, "drug"); !ok || err != nil {
			t.Errorf("%s does not resolve: %v", ref, err)
		}
	}
	next := p.Clone()
	next.AppendVals(relation.Str("Carl"), relation.Str("DX"), relation.Str("flu"))
	tr.RefreshBase(next, p.NumRows())
	if v, ok, _ := tr.BaseValue(relation.RowRef{Table: "prescriptions", Row: 3}, "patient"); !ok || v.S != "Carl" {
		t.Errorf("the refreshed version's new row reads %v, %v", v, ok)
	}
}

func TestGraphUpstream(t *testing.T) {
	g := NewGraph()
	g.AddStep("extract", []string{"hospital.prescriptions"}, "staging.prescriptions", "", 100, 100)
	g.AddStep("clean", []string{"staging.prescriptions"}, "staging.prescriptions_clean", "trim names", 100, 98)
	g.AddStep("extract", []string{"pharma.drugcost"}, "staging.drugcost", "", 10, 10)
	g.AddStep("join", []string{"staging.prescriptions_clean", "staging.drugcost"}, "dwh.fact_prescription", "", 98, 98)
	g.AddStep("aggregate", []string{"dwh.fact_prescription"}, "report.drug_consumption", "", 98, 4)

	up := g.Upstream("report.drug_consumption")
	if len(up) != 5 {
		t.Fatalf("upstream steps = %d", len(up))
	}
	srcs := g.SourceTables("report.drug_consumption")
	if len(srcs) != 2 || srcs[0] != "hospital.prescriptions" || srcs[1] != "pharma.drugcost" {
		t.Errorf("sources = %v", srcs)
	}
	exp := g.Explain("report.drug_consumption")
	if !strings.Contains(exp, "join") || !strings.Contains(exp, "aggregate") {
		t.Errorf("explain = %s", exp)
	}
}

// TestAddStepRecordsEachStepOnce: recording a step again updates its row
// counts and returns its id; a step differing in any of op, inputs, output
// or note is another step.
func TestAddStepRecordsEachStepOnce(t *testing.T) {
	g := NewGraph()
	id := g.AddStep("render", []string{"rx_wide"}, "drug-consumption", "consumer ana", 0, 4)
	if again := g.AddStep("render", []string{"rx_wide"}, "drug-consumption", "consumer ana", 0, 5); again != id {
		t.Errorf("the same step again got id %d, want %d", again, id)
	}
	if s := g.Steps(); len(s) != 1 || s[0].RowsOut != 5 {
		t.Errorf("steps = %v, want the one step with 5 rows out", s)
	}
	g.AddStep("render", []string{"rx_wide"}, "drug-consumption", "consumer bob", 0, 4)
	g.AddStep("render", []string{"rx_wide", "residents"}, "drug-consumption", "consumer ana", 0, 4)
	g.AddStep("render", []string{"rx_wide"}, "age-profile", "consumer ana", 0, 4)
	if n := len(g.Steps()); n != 4 {
		t.Errorf("%d steps, want 4", n)
	}
}

func TestGraphUpstreamPartial(t *testing.T) {
	g := NewGraph()
	g.AddStep("extract", []string{"a"}, "b", "", 1, 1)
	g.AddStep("extract", []string{"x"}, "y", "", 1, 1)
	up := g.Upstream("b")
	if len(up) != 1 || up[0].Op != "extract" || up[0].Inputs[0] != "a" {
		t.Errorf("upstream = %v", up)
	}
	if got := g.Explain("unknown"); !strings.Contains(got, "base relation") {
		t.Errorf("explain unknown = %s", got)
	}
}

// TestDistinctSupportDuringAppendRefresh interleaves first-use dictionary
// builds with published snapshots. The writer makes each version from the
// last with relation.ApplyEdit — an append, which grows the arrays in
// place, an in-place update, a mid-table removal — carrying whatever
// dictionaries the readers published, and commits it to the catalog. Each
// reader pass binds the snapshot it loads, so readers of one version race
// to build its dictionaries. Under -race, no build or carry writes where a
// reader of another version looks.
func TestDistinctSupportDuringAppendRefresh(t *testing.T) {
	const nCols, nRows = 16, 5000
	cols := make([]relation.Column, nCols)
	for c := range cols {
		cols[c] = relation.Col(fmt.Sprintf("c%d", c), relation.TInt)
	}
	schema := relation.NewSchema(cols...)
	// Column c cycles through c+2 values, so every version of the table
	// has exactly c+2 distinct values in it.
	rowAt := func(r int) relation.Row {
		row := make(relation.Row, nCols)
		for c := range row {
			row[c] = relation.Int(int64(r % (c + 2)))
		}
		return row
	}
	base := relation.NewBase("facts", schema)
	for r := 0; r < nRows; r++ {
		base.Rows = append(base.Rows, rowAt(r))
	}
	cat := sql.NewCatalog()
	cat.Register(base)

	// The trace names more rows than any version holds; DistinctSupport
	// counts the ones its base has. One group over a twice-as-long "facts"
	// draws on all of its rows.
	longer := relation.NewBase("facts", schema)
	for r := 0; r < 2*nRows; r++ {
		longer.Rows = append(longer.Rows, rowAt(r))
	}
	derived, err := relation.GroupBy(longer, nil, []relation.AggSpec{{Kind: relation.AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Over(cat).TraceRow(derived, 0)
	if err != nil {
		t.Fatal(err)
	}

	readerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	cur := base
	go func() { // writer: append, update or replace one row, swap, repeat until the reader is through
		defer wg.Done()
		for step := 0; cur.NumRows() < 2*nRows; step++ {
			select {
			case <-readerDone:
				return
			default:
			}
			n := cur.NumRows()
			e, repl := relation.Edit{Appended: 1}, rowAt(n)
			switch step % 3 {
			case 1: // the same values again, in place
				e, repl = relation.Edit{Updated: []int{n / 2}}, rowAt(n/2)
			case 2: // the middle row goes, the next one arrives
				e.Removed = []int{n / 2}
			}
			next, err := relation.ApplyEdit(cur, e, &relation.Table{Name: "facts", Schema: schema, Base: true, Rows: []relation.Row{repl}})
			if err != nil {
				t.Error(err)
				return
			}
			cat.Refresh(next)
			cur = next
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ { // racing first-use builds of one version's dictionaries
		readers.Add(1)
		go func() {
			defer readers.Done()
			for pass := 0; pass < 2; pass++ { // pass 0 builds each dictionary, pass 1 reads it back carried
				tr := Over(cat.Snapshot())
				for c := 0; c < nCols; c++ {
					if n := tr.DistinctSupport(rt, "facts", cols[c].Name); n != c+2 {
						t.Errorf("pass %d: distinct support of %s = %d, want %d", pass, cols[c].Name, n, c+2)
					}
				}
			}
		}()
	}
	readers.Wait()
	close(readerDone)
	wg.Wait()
	if err := reltest.VerifyResident(cur); err != nil {
		t.Error(err)
	}
}
