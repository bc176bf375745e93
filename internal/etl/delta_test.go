package etl

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"plabi/internal/fault"
	"plabi/internal/obs"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

// dump renders a table with its per-row lineage, so equivalence checks
// cover provenance byte-for-byte, not just cell values.
func dump(t *relation.Table) string {
	var b strings.Builder
	b.WriteString(t.String())
	for i := 0; i < t.NumRows(); i++ {
		for _, ref := range t.RowLineage(i) {
			b.WriteString(ref.String())
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDeltaApplyCopyOnWrite(t *testing.T) {
	base := workload.PrescriptionsFixture()
	before := dump(base)
	d := &Delta{Source: "hospital", Table: "prescriptions",
		Inserts: []relation.Row{
			{relation.Str("Zoe"), relation.Str("Luis"), relation.Str("DM"), relation.Str("diabetes"), relation.DateYMD(2008, 1, 2)},
		},
		Updates: []RowUpdate{{Row: 2, Vals: relation.Row{
			relation.Str("Bob"), relation.Str("Anne"), relation.Str("DR"), relation.Str("flu"), relation.DateYMD(2007, 8, 10)}}},
	}
	next, ch, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if dump(base) != before {
		t.Fatal("Apply mutated the old version")
	}
	if next.NumRows() != 6 || next.Get(2, "disease").S != "flu" || next.Get(5, "patient").S != "Zoe" {
		t.Fatalf("next = %v", next)
	}
	if ch.Appended != 1 || len(ch.Updated) != 1 || ch.Updated[0] != 2 || ch.Rebuilt {
		t.Fatalf("change = %+v", ch)
	}
	// Deletes are part of the script: the rows behind them move down.
	del, ch2, err := (&Delta{Deletes: []int{0, 3, 3}}).Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if ch2.Rebuilt || fmt.Sprint(ch2.Removed) != "[0 3]" || del.NumRows() != 3 ||
		del.Get(0, "patient").S != "Chris" || del.Get(2, "drug").S != "DR" {
		t.Fatalf("delete change = %+v, rows = %v", ch2, del)
	}
	if dump(base) != before {
		t.Fatal("Apply with deletes mutated the old version")
	}
}

// TestDeltaApplySemantics pins what a delta means when it names a row
// more than once.
func TestDeltaApplySemantics(t *testing.T) {
	row := func(patient string) relation.Row {
		return relation.Row{relation.Str(patient), relation.Str("Anne"), relation.Str("DR"), relation.Str("flu"), relation.DateYMD(2008, 1, 1)}
	}
	cases := []struct {
		name     string
		d        Delta
		patients string // of the new version, in order
		change   string // removed / updated / appended
	}{
		{"two updates of one row: the last wins, once",
			Delta{Updates: []RowUpdate{{Row: 1, Vals: row("first")}, {Row: 1, Vals: row("last")}}},
			"Alice last Bob Math Alice", "[] [1] 0"},
		{"update and delete of one row: the delete wins",
			Delta{Updates: []RowUpdate{{Row: 2, Vals: row("gone")}, {Row: 4, Vals: row("kept")}}, Deletes: []int{2}},
			"Alice Chris Math kept", "[2] [4] 0"},
		{"a repeated delete is one delete",
			Delta{Deletes: []int{3, 1, 3, 1}},
			"Alice Bob Alice", "[1 3] [] 0"},
		{"inserts are out of a delete's reach and land behind the survivors",
			Delta{Deletes: []int{4, 0}, Inserts: []relation.Row{row("new")}},
			"Chris Bob Math new", "[0 4] [] 1"},
		{"everything goes",
			Delta{Deletes: []int{0, 1, 2, 3, 4}},
			"", "[0 1 2 3 4] [] 0"},
	}
	for _, tc := range cases {
		next, ch, err := tc.d.Apply(workload.PrescriptionsFixture())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var patients []string
		for i := 0; i < next.NumRows(); i++ {
			patients = append(patients, next.Get(i, "patient").S)
		}
		if got := strings.Join(patients, " "); got != tc.patients {
			t.Errorf("%s: patients = %q, want %q", tc.name, got, tc.patients)
		}
		if got := fmt.Sprint(ch.Removed, ch.Updated, ch.Appended); got != tc.change || ch.Rebuilt {
			t.Errorf("%s: change = %s (rebuilt %v), want %s", tc.name, got, ch.Rebuilt, tc.change)
		}
	}
}

// TestChangeMerge: successive changes of one relation compose into the
// change from the first version to the last; what does not compose is
// Rebuilt, never a mix of index spaces.
func TestChangeMerge(t *testing.T) {
	edit := func(removed, updated []int, appended int) Change {
		return Change{Edit: relation.Edit{Removed: removed, Updated: updated, Appended: appended}}
	}
	cases := []struct {
		name        string
		first, next Change
		finalLen    int
		want        string
	}{
		// v0 has 10 rows throughout.
		{"nothing then something", Change{}, edit([]int{2}, []int{5}, 1), 10, "[2] [5] 1"},
		{"something then nothing", edit([]int{2}, []int{5}, 1), Change{}, 10, "[2] [5] 1"},
		{"later indices map back through earlier removals",
			edit([]int{1, 4}, nil, 0), edit([]int{3}, []int{0, 1, 6}, 0), 7, "[1 4 5] [0 2 8] 0"},
		{"a row inserted by the first and deleted by the second was never there",
			edit(nil, nil, 3), edit([]int{11}, nil, 2), 14, "[] [] 4"},
		{"an update of a row the first appended is still an append",
			edit(nil, []int{3}, 2), edit(nil, []int{3, 10}, 0), 12, "[] [3] 2"},
		{"a later delete wins over an earlier update",
			edit(nil, []int{3, 4}, 0), edit([]int{4}, nil, 0), 9, "[4] [3] 0"},
		{"a tail delete after inserts cancels them before it reaches old rows",
			edit(nil, nil, 2), edit([]int{9, 10, 11}, nil, 0), 9, "[9] [] 0"},
	}
	for _, tc := range cases {
		got := tc.first.Merge(tc.next, tc.finalLen)
		if s := fmt.Sprint(got.Removed, got.Updated, got.Appended); s != tc.want || got.Rebuilt {
			t.Errorf("%s: merged = %s (rebuilt %v), want %s", tc.name, s, got.Rebuilt, tc.want)
		}
	}
	shifted := edit([]int{1}, nil, 0)
	shifted.Shift = map[string][]int{"prescriptions": {1}}
	for name, pair := range map[string][2]Change{
		"rebuilt first":    {{Rebuilt: true}, edit(nil, nil, 1)},
		"rebuilt next":     {edit(nil, nil, 1), {Rebuilt: true}},
		"a lineage shift":  {shifted, edit(nil, nil, 1)},
		"impossible count": {edit(nil, nil, 5), edit(nil, nil, 0)},
	} {
		if got := pair[0].Merge(pair[1], 3); !got.Rebuilt || !got.Edit.Empty() {
			t.Errorf("%s: merged = %+v, want Rebuilt alone", name, got)
		}
	}
	if !(Change{}).Empty() || !edit(nil, nil, 2).AppendOnly() || edit([]int{0}, nil, 2).AppendOnly() || shifted.Empty() {
		t.Error("Empty/AppendOnly misjudge an edit")
	}
}

func TestDeltaApplyValidation(t *testing.T) {
	base := workload.DrugCostFixture()
	cases := []*Delta{
		{Updates: []RowUpdate{{Row: 99, Vals: relation.Row{relation.Str("X"), relation.Int(1)}}}},
		{Updates: []RowUpdate{{Row: 0, Vals: relation.Row{relation.Str("X")}}}},
		{Deletes: []int{-1}},
		{Inserts: []relation.Row{{relation.Str("X")}}},
	}
	for i, d := range cases {
		if _, _, err := d.Apply(base); err == nil {
			t.Errorf("case %d: invalid delta accepted", i)
		}
	}
}

// deltaPipeline exercises every delta-aware step kind: extract,
// row-wise cleanse, filter, left-append join, aggregate.
func deltaPipeline(hosp, agency *Source) *Pipeline {
	return &Pipeline{Name: "dp", Steps: []Step{
		NewExtract("e1", hosp, "prescriptions", ""),
		NewExtract("e2", agency, "drugcost", ""),
		NewCleanse("cl", "prescriptions", "rx_clean", "patient"),
		NewFilter("fl", "rx_clean", "rx_chronic", relation.ColEqStr("disease", "asthma")),
		NewJoin("j", "rx_clean", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")),
			relation.InnerJoin, "rx_cost"),
		NewAggregate("agg", "rx_cost", "by_disease",
			[]string{"disease"}, []relation.AggSpec{
				{Kind: relation.AggCount, As: "n"},
				{Kind: relation.AggSum, Col: "cost", As: "total"},
			}),
	}}
}

// runFreshMirror runs the pipeline from scratch against the given table
// versions and returns the staging dumps — the oracle an incremental
// refresh must match byte-for-byte.
func runFreshMirror(t *testing.T, rx, cost *relation.Table) map[string]string {
	t.Helper()
	hosp := NewSource("hospital", "hospital", rx)
	agency := NewSource("healthagency", "healthagency", cost)
	c := NewContext(nil)
	if _, err := deltaPipeline(hosp, agency).Run(c, false); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range []string{"prescriptions", "rx_clean", "rx_chronic", "rx_cost", "by_disease"} {
		tb, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = dump(tb)
	}
	return out
}

// applyAndPropagate swaps the new table version into the source and
// pushes the change through the pipeline.
func applyAndPropagate(t *testing.T, p *Pipeline, c *Context, src *Source, d *Delta) DeltaResult {
	t.Helper()
	old, ok := src.Table(d.Table)
	if !ok {
		t.Fatalf("source has no table %q", d.Table)
	}
	next, ch, err := d.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	src.Tables[strings.ToLower(d.Table)] = next
	res, err := p.ApplyDelta(context.Background(), c,
		map[string]Change{src.Name + "." + d.Table: ch})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestApplyDeltaInsertOnlyConvergence: an insert-only delta must refresh
// every staging table to exactly what a fresh full run over the new data
// produces — values and lineage — while recomputing incrementally.
func TestApplyDeltaInsertOnlyConvergence(t *testing.T) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	p := deltaPipeline(hosp, agency)
	c := NewContext(nil)
	c.Metrics = obs.New()
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}

	ins := func(pat, drug, dis string) *Delta {
		return &Delta{Source: "hospital", Table: "prescriptions", Inserts: []relation.Row{
			{relation.Str("  " + pat + " "), relation.Str("Luis"), relation.Str(drug), relation.Str(dis), relation.DateYMD(2008, 5, 1)},
		}}
	}
	// First delta: the aggregate rebuilds its retained state (a full Run
	// drops it); everything else touched is incremental, and the drugcost
	// extract — whose input never changed — is untouched.
	res1 := applyAndPropagate(t, p, c, hosp, ins("Dana", "DR", "asthma"))
	if res1.StepsIncremental != 4 || res1.StepsRebuilt != 1 || res1.StepsUntouched != 1 {
		t.Fatalf("first delta: incremental=%d rebuilt=%d untouched=%d",
			res1.StepsIncremental, res1.StepsRebuilt, res1.StepsUntouched)
	}
	// Second delta: the retained aggregate state is live — every touched
	// step is now incremental.
	res2 := applyAndPropagate(t, p, c, hosp, ins("Evan", "DM", "diabetes"))
	if res2.StepsIncremental != 5 || res2.StepsRebuilt != 0 || res2.StepsUntouched != 1 {
		t.Fatalf("second delta: incremental=%d rebuilt=%d untouched=%d",
			res2.StepsIncremental, res2.StepsRebuilt, res2.StepsUntouched)
	}

	rx, _ := hosp.Table("prescriptions")
	want := runFreshMirror(t, rx, workload.DrugCostFixture())
	for name, w := range want {
		got, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if dump(got) != w {
			t.Errorf("%s diverges from full rebuild:\nincremental:\n%s\nfull:\n%s", name, dump(got), w)
		}
	}
	if got := c.Metrics.Counter("etl.deltas").Value(); got != 2 {
		t.Errorf("etl.deltas = %d", got)
	}
}

// TestApplyDeltaUpdateConvergence: an in-place update is replaced where
// it stands by the cleanse and the join, and reruns the filter, whose
// output it enters (HIV to asthma: every later row would move); the
// result must still match a full rebuild exactly.
func TestApplyDeltaUpdateConvergence(t *testing.T) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	p := deltaPipeline(hosp, agency)
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}

	d := &Delta{Source: "hospital", Table: "prescriptions",
		Updates: []RowUpdate{{Row: 1, Vals: relation.Row{
			relation.Str(" chris  "), relation.Str("Anne"), relation.Str("DR"), relation.Str("asthma"), relation.DateYMD(2007, 3, 10)}}},
		Inserts: []relation.Row{
			{relation.Str("Fay"), relation.Str("Mark"), relation.Str("DV"), relation.Str("HIV"), relation.DateYMD(2008, 6, 6)},
		},
	}
	res := applyAndPropagate(t, p, c, hosp, d)
	for _, name := range []string{"rx_clean", "rx_cost"} {
		if ch := res.Changed[name]; ch.Rebuilt || fmt.Sprint(ch.Updated, ch.Appended) != "[1] 1" {
			t.Errorf("%s: change %+v, want row 1 updated in place and one row appended", name, ch)
		}
	}
	if !res.Changed["rx_chronic"].Rebuilt {
		t.Errorf("rx_chronic: change %+v, want Rebuilt (the update enters the filter's output)", res.Changed["rx_chronic"])
	}

	rx, _ := hosp.Table("prescriptions")
	want := runFreshMirror(t, rx, workload.DrugCostFixture())
	for name, w := range want {
		got, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if dump(got) != w {
			t.Errorf("%s diverges from full rebuild:\nincremental:\n%s\nfull:\n%s", name, dump(got), w)
		}
	}
}

// TestApplyDeltaDeleteConvergence: a delete — here one from the middle,
// which renumbers the lineage behind it, and one from the end — is placed
// by the cleanse, filter and join steps in the outputs they have; only
// the aggregate rebuilds its state. The result matches a full rebuild.
func TestApplyDeltaDeleteConvergence(t *testing.T) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	p := deltaPipeline(hosp, agency)
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	res := applyAndPropagate(t, p, c, hosp,
		&Delta{Source: "hospital", Table: "prescriptions", Deletes: []int{2, 4}})
	if res.StepsIncremental != 4 || res.StepsRebuilt != 1 || res.StepsUntouched != 1 {
		t.Fatalf("incremental=%d rebuilt=%d untouched=%d, want 4/1/1 (the aggregate alone rebuilds)",
			res.StepsIncremental, res.StepsRebuilt, res.StepsUntouched)
	}
	for name, removed := range map[string]string{"prescriptions": "[2 4]", "rx_clean": "[2 4]", "rx_chronic": "[0 1]", "rx_cost": "[2 4]"} {
		if ch := res.Changed[name]; ch.Rebuilt || fmt.Sprint(ch.Removed) != removed {
			t.Errorf("%s: change %+v, want rows %s removed in place", name, ch, removed)
		}
	}
	if !res.Changed["by_disease"].Rebuilt {
		t.Errorf("by_disease: change %+v, want Rebuilt", res.Changed["by_disease"])
	}

	rx, _ := hosp.Table("prescriptions")
	if rx.NumRows() != 3 {
		t.Fatalf("rows after delete = %d", rx.NumRows())
	}
	want := runFreshMirror(t, rx, workload.DrugCostFixture())
	for name, w := range want {
		got, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if dump(got) != w {
			t.Errorf("%s diverges from full rebuild:\nincremental:\n%s\nfull:\n%s", name, dump(got), w)
		}
	}
}

// TestApplyDeltaEntityResolution: appended and updated rows re-resolve
// against the unchanged canonical table; the spliced output matches a
// fresh resolution of the whole input.
func TestApplyDeltaEntityResolution(t *testing.T) {
	canon := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
	for _, n := range []string{"Alice Rossi", "Bruno Verdi", "Carla Bianchi"} {
		canon.AppendVals(relation.Str(n))
	}
	mkDirty := func() *relation.Table {
		dirty := relation.NewBase("familydoctor", relation.NewSchema(
			relation.Col("patient", relation.TString),
			relation.Col("doctor", relation.TString)))
		dirty.AppendVals(relation.Str("Alice Rosi"), relation.Str("Dr. A"))
		dirty.AppendVals(relation.Str("BRUNO verdi"), relation.Str("Dr. B"))
		return dirty
	}
	fam := NewSource("familydoctors", "familydoctors", mkDirty())
	canonSrc := NewSource("municipality", "municipality", canon)
	p := &Pipeline{Steps: []Step{
		NewExtract("e1", fam, "familydoctor", ""),
		NewExtract("e2", canonSrc, "residents", ""),
		NewEntityResolution("er", "familydoctor", "patient", "residents", "patient",
			"familydoctors", 0.9, "resolved"),
	}}
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}

	d := &Delta{Source: "familydoctors", Table: "familydoctor",
		Inserts: []relation.Row{{relation.Str("carla BIANCHI"), relation.Str("Dr. C")}},
		Updates: []RowUpdate{{Row: 0, Vals: relation.Row{relation.Str("alice rossi"), relation.Str("Dr. A2")}}},
	}
	res := applyAndPropagate(t, p, c, fam, d)
	if res.StepsIncremental != 2 || res.StepsRebuilt != 0 {
		t.Fatalf("res = %+v", res)
	}
	out, err := c.Get("resolved")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"Alice Rossi", "Bruno Verdi", "Carla Bianchi"} {
		if got := out.Get(i, "patient").S; got != want {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
	if out.Get(0, "doctor").S != "Dr. A2" {
		t.Errorf("updated doctor = %q", out.Get(0, "doctor").S)
	}
}

// TestApplyDeltaAtomicRollback: a fault injected at the etl.delta site
// aborts the application and restores the staging area exactly; the
// retried delta then lands.
func TestApplyDeltaAtomicRollback(t *testing.T) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	p := deltaPipeline(hosp, agency)
	c := NewContext(nil)
	c.Metrics = obs.New()
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for name := range c.Staging {
		before[name] = dump(c.Staging[name])
	}

	fi := fault.NewInjector(9)
	fi.Enable(fault.SiteETLDelta, fault.SiteConfig{ErrorRate: 1, Times: 1})
	c.Faults = fi

	old, _ := hosp.Table("prescriptions")
	d := &Delta{Source: "hospital", Table: "prescriptions", Inserts: []relation.Row{
		{relation.Str("Gil"), relation.Str("Anne"), relation.Str("DH"), relation.Str("HIV"), relation.DateYMD(2008, 7, 7)},
	}}
	next, ch, err := d.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	hosp.Tables["prescriptions"] = next
	changes := map[string]Change{"hospital.prescriptions": ch}

	_, derr := p.ApplyDelta(context.Background(), c, changes)
	if !errors.Is(derr, fault.ErrInjected) {
		t.Fatalf("want injected error, got %v", derr)
	}
	if len(c.Staging) != len(before) {
		t.Fatalf("staging size changed: %d != %d", len(c.Staging), len(before))
	}
	for name, w := range before {
		if dump(c.Staging[name]) != w {
			t.Errorf("staging %q not rolled back", name)
		}
	}
	// The fault budget is spent; the retry applies cleanly and converges.
	if _, err := p.ApplyDelta(context.Background(), c, changes); err != nil {
		t.Fatal(err)
	}
	want := runFreshMirror(t, next, workload.DrugCostFixture())
	for name, w := range want {
		got, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if dump(got) != w {
			t.Errorf("%s diverges after rollback+retry", name)
		}
	}
}

// TestApplyDeltaViolationRollsBack: a join permission revoked between
// the full run and the delta surfaces as a violation and rolls back.
func TestApplyDeltaViolationRollsBack(t *testing.T) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	guard := &flipGuard{}
	p := deltaPipeline(hosp, agency)
	c := NewContext(guard)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	joinedBefore, _ := c.Get("rx_cost")
	want := dump(joinedBefore)

	guard.deny = true
	old, _ := hosp.Table("prescriptions")
	d := &Delta{Source: "hospital", Table: "prescriptions", Inserts: []relation.Row{
		{relation.Str("Hal"), relation.Str("Mark"), relation.Str("DR"), relation.Str("asthma"), relation.DateYMD(2008, 8, 8)},
	}}
	next, ch, _ := d.Apply(old)
	hosp.Tables["prescriptions"] = next
	_, derr := p.ApplyDelta(context.Background(), c, map[string]Change{"hospital.prescriptions": ch})
	if !IsViolation(derr) {
		t.Fatalf("want violation, got %v", derr)
	}
	after, _ := c.Get("rx_cost")
	if dump(after) != want {
		t.Fatal("violating delta leaked into staging")
	}
}

// flipGuard allows everything until deny is set.
type flipGuard struct{ deny bool }

func (g *flipGuard) CheckJoin(l, r string) error {
	if g.deny {
		return fmt.Errorf("join %s-%s revoked", l, r)
	}
	return nil
}
func (g *flipGuard) CheckIntegration(string, string) error { return nil }

// TestDeltaSkipsReaderOfBlockedStep: a step whose output a
// continue-on-violation run left absent, and whose own inputs a delta does
// not touch, stays untouched; a reader of that output whose other input
// the delta changes is skipped, not failed, and the delta commits.
func TestDeltaSkipsReaderOfBlockedStep(t *testing.T) {
	hosp, fam, agency := sources()
	p := &Pipeline{Steps: []Step{
		NewExtract("e1", hosp, "prescriptions", ""),
		NewExtract("e2", fam, "familydoctor", ""),
		NewExtract("e3", agency, "drugcost", ""),
		NewJoin("bad", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")), relation.InnerJoin, "bad_out"),
		NewJoin("reader", "bad_out", "drugcost",
			relation.Eq(relation.ColRefExpr("l.l_drug"), relation.ColRefExpr("r.drug")), relation.InnerJoin, "bad_cost"),
	}}
	c := NewContext(denyGuard{joinA: "prescriptions", joinB: "familydoctor"})
	if res, err := p.Run(c, true); err != nil || len(res.Violations) != 1 || res.Skipped != 1 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	var skipped []string
	c.Observe = func(step, _, _ string, _, _ int, err error) {
		if IsSkipped(err) {
			skipped = append(skipped, step)
		}
	}
	cost, _ := agency.Table("drugcost")
	dr := cost.Row(4).Clone()
	dr[1] = relation.Int(11)
	res := applyAndPropagate(t, p, c, agency, &Delta{Source: "healthagency", Table: "drugcost", Updates: []RowUpdate{{Row: 4, Vals: dr}}})
	if res.StepsUntouched != 3 || !slices.Equal(skipped, []string{"reader"}) {
		t.Errorf("untouched=%d skipped=%v, want e1, e2 and bad untouched and reader skipped", res.StepsUntouched, skipped)
	}
	if _, err := c.Get("bad_cost"); err == nil {
		t.Error("bad_cost staged although its input stays blocked")
	}
}

// TestWrappedStepPlacedIncrementally: a step that embeds a built-in, as a
// tracing harness does, forwards its delta rule with the embedding, so a
// wrapped filter and join place an update and a delete in the outputs they
// have — the wrapper's Run is not called — and equal a fresh run. A change
// of the join's right side still reruns it through the wrapper's Run.
func TestWrappedStepPlacedIncrementally(t *testing.T) {
	hosp, _, agency := sources()
	var filtered, joined []*relation.Table
	steps := func(hosp, agency *Source, wrap bool) []Step {
		fl := Step(NewFilter("fl", "prescriptions", "rx_asthma", relation.ColEqStr("disease", "asthma")))
		j := Step(NewJoin("j", "prescriptions", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")), relation.InnerJoin, "rx_cost"))
		if wrap {
			fl, j = wrapped{fl, &filtered}, wrapped{j, &joined}
		}
		return []Step{NewExtract("e1", hosp, "prescriptions", ""), NewExtract("e2", agency, "drugcost", ""), fl, j}
	}
	p := &Pipeline{Name: "wrapped", Steps: steps(hosp, agency, true)}
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	rx, _ := hosp.Table("prescriptions")
	bob := rx.Row(2).Clone()
	bob[0] = relation.Str("Bobby")
	for _, d := range []*Delta{
		{Source: "hospital", Table: "prescriptions", Updates: []RowUpdate{{Row: 2, Vals: bob}}},
		{Source: "hospital", Table: "prescriptions", Deletes: []int{0}},
	} {
		res := applyAndPropagate(t, p, c, hosp, d)
		if res.StepsIncremental != 3 || res.StepsRebuilt != 0 || len(filtered) != 1 || len(joined) != 1 {
			t.Errorf("%+v: incremental=%d rebuilt=%d, wrapper runs %d and %d; want 3, 0, 1 and 1",
				d, res.StepsIncremental, res.StepsRebuilt, len(filtered), len(joined))
		}
	}
	cost, _ := agency.Table("drugcost")
	dr := cost.Row(4).Clone()
	dr[1] = relation.Int(11)
	res := applyAndPropagate(t, p, c, agency, &Delta{Source: "healthagency", Table: "drugcost", Updates: []RowUpdate{{Row: 4, Vals: dr}}})
	if res.StepsIncremental != 1 || res.StepsRebuilt != 1 || len(filtered) != 1 || len(joined) != 2 {
		t.Errorf("right-side change: incremental=%d rebuilt=%d, wrapper runs %d and %d; want 1, 1, 1 and 2",
			res.StepsIncremental, res.StepsRebuilt, len(filtered), len(joined))
	}

	rx, _ = hosp.Table("prescriptions")
	cost, _ = agency.Table("drugcost")
	fresh := NewContext(nil)
	if _, err := (&Pipeline{Steps: steps(NewSource("hospital", "hospital", rx), NewSource("healthagency", "healthagency", cost), false)}).Run(fresh, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rx_asthma", "rx_cost"} {
		got, _ := c.Get(name)
		want, _ := fresh.Get(name)
		if dump(got) != dump(want) {
			t.Errorf("%s diverges from a fresh run:\nplaced:\n%s\nfresh:\n%s", name, dump(got), dump(want))
		}
	}
}

// TestDeltaAfterContinuedRunStopsAtViolation: a delta over the context of
// a run that continued past violations still stops at the first violation
// of a step that had output, and restores the staging area — a join whose
// permission was revoked since the run — and the same delta, once the join
// is allowed again, converges to a run over the new sources. A join the run
// blocked stays blocked when a delta touches its input: it is recorded as a
// violation again, its reader is skipped, and the rest of the delta commits,
// equal to a continue-on-violation run over the new sources.
func TestDeltaAfterContinuedRunStopsAtViolation(t *testing.T) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	guard := &flipGuard{}
	p := deltaPipeline(hosp, agency)
	c := NewContext(guard)
	if res, err := p.Run(c, true); err != nil || len(res.Violations) != 0 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	before := map[string]string{}
	for name, tb := range c.Staging {
		before[name] = dump(tb)
	}
	guard.deny = true
	old, _ := hosp.Table("prescriptions")
	next, ch, err := (&Delta{Source: "hospital", Table: "prescriptions", Deletes: []int{0}}).Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	hosp.Tables["prescriptions"] = next
	changes := map[string]Change{"hospital.prescriptions": ch}
	if _, err := p.ApplyDelta(context.Background(), c, changes); !IsViolation(err) {
		t.Fatalf("delta with the join revoked: want a violation, got %v", err)
	}
	for name, w := range before {
		if got, err := c.Get(name); err != nil || dump(got) != w {
			t.Errorf("staging %q not restored after the violation", name)
		}
	}
	guard.deny = false
	if _, err := p.ApplyDelta(context.Background(), c, changes); err != nil {
		t.Fatal(err)
	}
	for name, w := range runFreshMirror(t, next, workload.DrugCostFixture()) {
		if got, _ := c.Get(name); dump(got) != w {
			t.Errorf("%s diverges from a run over the new source after the retry", name)
		}
	}

	// A join the run blocked: a delta of its left side re-runs it, and it
	// stays blocked while the rest of the delta commits.
	blocked := func(hosp, fam, agency *Source) *Pipeline {
		return &Pipeline{Steps: []Step{
			NewExtract("e1", hosp, "prescriptions", ""),
			NewExtract("e2", fam, "familydoctor", ""),
			NewExtract("e3", agency, "drugcost", ""),
			NewJoin("bad", "prescriptions", "familydoctor",
				relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")), relation.InnerJoin, "bad_out"),
			NewProject("reader", "bad_out", "slim", "l_patient"),
			NewJoin("good", "prescriptions", "drugcost",
				relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")), relation.InnerJoin, "good_out"),
		}}
	}
	guard2 := denyGuard{joinA: "prescriptions", joinB: "familydoctor"}
	hosp2, fam, agency2 := sources()
	p = blocked(hosp2, fam, agency2)
	c = NewContext(guard2)
	if res, err := p.Run(c, true); err != nil || len(res.Violations) != 1 || res.Skipped != 1 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	goodBefore, _ := c.Get("good_out")
	var events []string
	c.Observe = func(step, _, _ string, _, _ int, err error) {
		switch {
		case IsViolation(err):
			events = append(events, step+" violation")
		case IsSkipped(err):
			events = append(events, step+" skipped")
		}
	}
	rx, _ := hosp2.Table("prescriptions")
	next, ch, _ = (&Delta{Source: "hospital", Table: "prescriptions", Inserts: []relation.Row{rx.Row(2).Clone()}}).Apply(rx)
	hosp2.Tables["prescriptions"] = next
	res, err := p.ApplyDelta(context.Background(), c, map[string]Change{"hospital.prescriptions": ch})
	if err != nil {
		t.Fatalf("delta into the blocked join: %v", err)
	}
	if want := []string{"bad violation", "reader skipped"}; !slices.Equal(events, want) {
		t.Errorf("delta recorded %v, want %v", events, want)
	}
	if got, _ := c.Get("good_out"); got.NumRows() != goodBefore.NumRows()+1 || res.StepsIncremental == 0 {
		t.Errorf("good_out did not place the insert: %d rows (had %d), incremental=%d", got.NumRows(), goodBefore.NumRows(), res.StepsIncremental)
	}
	for _, name := range []string{"bad_out", "slim"} {
		if _, err := c.Get(name); err == nil {
			t.Errorf("%s staged after the delta; its step stays blocked", name)
		}
	}
	_, famT, agencyT := sources()
	mirror := NewContext(guard2)
	if _, err := blocked(NewSource("hospital", "hospital", next), famT, agencyT).Run(mirror, true); err != nil {
		t.Fatal(err)
	}
	if len(c.Staging) != len(mirror.Staging) {
		t.Errorf("staging holds %d tables, a continue-on-violation run %d", len(c.Staging), len(mirror.Staging))
	}
	for name, w := range mirror.Staging {
		if got, err := c.Get(name); err != nil || dump(got) != dump(w) {
			t.Errorf("%s diverges from a continue-on-violation run over the new sources", name)
		}
	}
	cost, _ := agency2.Table("drugcost")
	dr := cost.Row(4).Clone()
	dr[1] = relation.Int(11)
	res = applyAndPropagate(t, p, c, agency2, &Delta{Source: "healthagency", Table: "drugcost", Updates: []RowUpdate{{Row: 4, Vals: dr}}})
	if res.StepsRebuilt != 1 || res.StepsUntouched != 4 {
		t.Errorf("drugcost delta: rebuilt=%d untouched=%d, want the good join rebuilt and the rest untouched", res.StepsRebuilt, res.StepsUntouched)
	}
}
