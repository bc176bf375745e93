package etl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"plabi/internal/relation"
	"plabi/internal/workload"
)

// deltasFromBytes decodes an edit script: three bytes an operation on the
// prescriptions fixture — insert, update (twice as likely), delete, or
// close the delta and open the next, whose indices address what the
// closed ones left. Values come from small pools that hit every branch
// downstream: dirty and clean patient names, drugs with and without a
// cost row (the join's fan-out 1 and 0), diseases inside and outside the
// filter.
func deltasFromBytes(data []byte, rows int) []Delta {
	patients := []string{"Alice", "  Bob ", "Chris  Doe", "Math"}
	drugs := []string{"DR", "DM", "DH", "DX"}
	diseases := []string{"asthma", "HIV"}
	row := func(b byte) relation.Row {
		return relation.Row{relation.Str(patients[b%4]), relation.Str("Anne"), relation.Str(drugs[b>>2%4]),
			relation.Str(diseases[b>>4%2]), relation.DateYMD(2008, 1, 1+int(b>>5))}
	}
	if len(data) > 90 {
		data = data[:90]
	}
	var out []Delta
	cur := Delta{Source: "hospital", Table: "prescriptions"}
	flush := func() {
		if len(cur.Inserts)+len(cur.Updates)+len(cur.Deletes) == 0 {
			return
		}
		gone := map[int]bool{}
		for _, ri := range cur.Deletes {
			gone[ri] = true
		}
		rows += len(cur.Inserts) - len(gone)
		out = append(out, cur)
		cur = Delta{Source: "hospital", Table: "prescriptions"}
	}
	for i := 0; i+2 < len(data); i += 3 {
		kind, at, val := data[i]%5, int(data[i+1]), data[i+2]
		switch {
		case kind == 0:
			cur.Inserts = append(cur.Inserts, row(val))
		case kind == 4:
			flush()
		case rows == 0:
		case kind == 3:
			cur.Deletes = append(cur.Deletes, at%rows)
		default:
			cur.Updates = append(cur.Updates, RowUpdate{Row: at % rows, Vals: row(val)})
		}
	}
	flush()
	return out
}

// checkChangeApply is the property behind TestChangeApplyProperty and
// FuzzChangeApply: whatever the edit script, (1) pushing its deltas one
// by one through the delta pipeline leaves every staging table — rows and
// lineage, renumbered past every delete — exactly as a full run over the
// edited source does; (2) so does pushing the one change they merge to;
// (3) applying that merged edit to a table derived row by row from the
// source equals deriving it again.
func checkChangeApply(t *testing.T, data []byte) {
	base := workload.PrescriptionsFixture()
	deltas := deltasFromBytes(data, base.NumRows())

	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	p := deltaPipeline(hosp, agency)
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	converged := func(what string, c *Context, rx *relation.Table) {
		t.Helper()
		for name, want := range runFreshMirror(t, rx, workload.DrugCostFixture()) {
			got, err := c.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if dump(got) != want {
				t.Fatalf("%s: %s diverges from full rebuild:\nincremental:\n%s\nfull:\n%s", what, name, dump(got), want)
			}
		}
	}
	cur, merged := base, Change{}
	for i := range deltas {
		applyAndPropagate(t, p, c, hosp, &deltas[i])
		rx, _ := hosp.Table("prescriptions")
		converged(fmt.Sprintf("delta %d of %d (%+v)", i+1, len(deltas), deltas[i]), c, rx)

		next, ch, err := deltas[i].Apply(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur, merged = next, merged.Merge(ch, next.NumRows())
	}
	if merged.Rebuilt {
		t.Fatalf("source changes merged to Rebuilt: %+v", deltas)
	}

	hosp2 := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	p2 := deltaPipeline(hosp2, NewSource("healthagency", "healthagency", workload.DrugCostFixture()))
	c2 := NewContext(nil)
	if _, err := p2.Run(c2, false); err != nil {
		t.Fatal(err)
	}
	hosp2.Tables["prescriptions"] = cur
	if _, err := p2.ApplyDelta(context.Background(), c2, map[string]Change{"hospital.prescriptions": merged}); err != nil {
		t.Fatalf("merged change %+v: %v", merged, err)
	}
	converged(fmt.Sprintf("merged change %+v", merged), c2, cur)

	derive := func(rx *relation.Table) *relation.Table {
		out, err := relation.Extend(rx, "n", relation.Lit(relation.Int(1)))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	dirty, err := merged.Dirty(cur.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	want := derive(cur)
	repl, err := relation.SliceRows(want, dirty)
	if err != nil {
		t.Fatal(err)
	}
	e := merged.Edit
	e.Shift = map[string][]int{"prescriptions": merged.Removed}
	got, err := relation.ApplyEdit(derive(base), e, repl)
	if err != nil {
		t.Fatal(err)
	}
	if dump(got) != dump(want) {
		t.Fatalf("edit %+v of a derived table diverges from deriving it again:\nedited:\n%s\nderived:\n%s", e, dump(got), dump(want))
	}
}

func TestChangeApplyProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed + 1300))
		data := make([]byte, 3*(1+rng.Intn(20)))
		rng.Read(data)
		checkChangeApply(t, data)
	}
}

// FuzzChangeApply runs the same property over arbitrary scripts. The seed
// corpus is testdata/fuzz/FuzzChangeApply.
func FuzzChangeApply(f *testing.F) {
	f.Add([]byte{3, 2, 0, 2, 4, 0x15})
	f.Fuzz(checkChangeApply)
}

// TestApplyDeltaRollbackKeepsOrdinals: a delta that fails behind the
// filter and the join has already placed a removal by their ordinals and
// kept new ones beside outputs the rollback then takes away. The versions
// the rollback restores keep theirs, untouched, so the next delta — an
// update, which only the ordinals can place — is placed in the join's
// output and converges, and so is the one after that.
func TestApplyDeltaRollbackKeepsOrdinals(t *testing.T) {
	hosp := NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	agency := NewSource("healthagency", "healthagency", workload.DrugCostFixture())
	p := deltaPipeline(hosp, agency)
	var failing error
	p.Steps = append(p.Steps, NewTransform("audit-copy", "copy", "rx_cost", "rx_copy",
		func(_ context.Context, t *relation.Table) (*relation.Table, error) { return t, failing }))
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}

	// Deleting row 0 moves every ordinal; the failure comes after both
	// the filter and the join have placed it.
	old, _ := hosp.Table("prescriptions")
	next, ch, err := (&Delta{Deletes: []int{0}}).Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	hosp.Tables["prescriptions"] = next
	failing = errors.New("disk full")
	if _, err := p.ApplyDelta(context.Background(), c, map[string]Change{"hospital.prescriptions": ch}); !errors.Is(err, failing) {
		t.Fatalf("err = %v, want the copy step's", err)
	}
	hosp.Tables["prescriptions"] = old // the caller's half of the rollback
	failing = nil

	update := func(ri int, patient string) *Delta {
		return &Delta{Source: "hospital", Table: "prescriptions", Updates: []RowUpdate{{Row: ri, Vals: relation.Row{
			relation.Str(patient), relation.Str("Mark"), relation.Str("DR"), relation.Str("asthma"), relation.DateYMD(2008, 9, 9)}}}}
	}
	res := applyAndPropagate(t, p, c, hosp, update(3, "Zed"))
	if ch := res.Changed["rx_cost"]; ch.Rebuilt || len(ch.Updated) != 1 {
		t.Errorf("rx_cost: change %+v after a rollback, want one row updated in place", ch)
	}
	check := func(what string) {
		t.Helper()
		rx, _ := hosp.Table("prescriptions")
		for name, want := range runFreshMirror(t, rx, workload.DrugCostFixture()) {
			if got, _ := c.Get(name); dump(got) != want {
				t.Errorf("%s: %s diverges from full rebuild:\n%s\nfull:\n%s", what, name, dump(got), want)
			}
		}
	}
	check("update after rollback")

	res = applyAndPropagate(t, p, c, hosp, update(2, "Yan"))
	for _, name := range []string{"rx_chronic", "rx_cost"} {
		if ch := res.Changed[name]; ch.Rebuilt || len(ch.Updated) != 1 {
			t.Errorf("%s: change %+v, want one row updated in place", name, ch)
		}
	}
	check("second update")
}
