package etl

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"plabi/internal/relation"
)

// askGuard records every check put to it and allows them all.
type askGuard struct{ joins, donors []string }

func (g *askGuard) CheckJoin(l, r string) error {
	g.joins = append(g.joins, l+" join "+r)
	return nil
}

func (g *askGuard) CheckIntegration(donor, _ string) error {
	g.donors = append(g.donors, donor)
	return nil
}

// TestResolveChecksEveryCanonTable: a canon drawn from residents ⋈ x and
// projected to residents' column still derives every row from x, so the
// step asks the guard about x as a donor too.
func TestResolveChecksEveryCanonTable(t *testing.T) {
	residents := relation.NewBase("residents", relation.NewSchema(relation.Col("name", relation.TString), relation.Col("k", relation.TInt)))
	residents.AppendVals(relation.Str("Alice Rossi"), relation.Int(1))
	x := relation.NewBase("x", relation.NewSchema(relation.Col("xk", relation.TInt)))
	x.AppendVals(relation.Int(1))
	dirty := relation.NewBase("familydoctor", relation.NewSchema(relation.Col("patient", relation.TString)))
	dirty.AppendVals(relation.Str("Alice Rosi"))
	src := NewSource("registry", "registry", residents, x, dirty)
	p := &Pipeline{Name: "canon", Steps: []Step{
		NewExtract("ext-residents", src, "residents", ""),
		NewExtract("ext-x", src, "x", ""),
		NewExtract("ext-fd", src, "familydoctor", ""),
		NewJoin("join-x", "residents", "x", relation.Eq(relation.ColRefExpr("l.k"), relation.ColRefExpr("r.xk")), relation.InnerJoin, "rx"),
		NewProject("names", "rx", "canon", "name"),
		NewEntityResolution("resolve", "familydoctor", "patient", "canon", "name", "familydoctors", 0.9, "resolved"),
	}}
	g := &askGuard{}
	if _, err := p.Run(NewContext(g), false); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.donors, []string{"residents", "x"}) {
		t.Errorf("donors asked = %v, want residents and x", g.donors)
	}
}

// TestRunEmptyLeavesRetainedState: a run over zero rows asks the guard
// what a run asks, and leaves what each step keeps for the next delta —
// join and filter ordinals, the aggregate's accumulator, the canon index
// and the resolution stats — as the last run left it.
func TestRunEmptyLeavesRetainedState(t *testing.T) {
	hosp, fam, _ := sources()
	residents := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
	for _, name := range []string{"Alice", "Bob", "Chris", "Math"} {
		residents.AppendVals(relation.Str(name))
	}
	canon := NewSource("municipality", "municipality", residents)
	join := NewJoin("join-fd", "prescriptions", "familydoctor",
		relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")), relation.InnerJoin, "rx_fd")
	filter := NewFilter("asthma", "rx_fd", "asthma", relation.ColEqStr("disease", "asthma"))
	agg := NewAggregate("by-drug", "asthma", "by_drug", []string{"drug"}, []relation.AggSpec{{Kind: relation.AggCount}})
	er := NewEntityResolution("resolve", "familydoctor", "patient", "residents", "patient", "familydoctors", 0.9, "fd_resolved")
	p := &Pipeline{Name: "state", Steps: []Step{
		NewExtract("ext-rx", hosp, "prescriptions", ""),
		NewExtract("ext-fd", fam, "familydoctor", ""),
		NewExtract("ext-residents", canon, "residents", ""),
		er, join, filter, agg,
	}}
	live := NewContext(nil)
	if _, err := p.Run(live, false); err != nil {
		t.Fatal(err)
	}
	// A delta leaves the aggregate an accumulator to extend.
	rx, _ := hosp.Table("prescriptions")
	d := Delta{Inserts: []relation.Row{rx.Row(2).Clone()}}
	next, ch, err := d.Apply(rx)
	if err != nil {
		t.Fatal(err)
	}
	hosp.Tables["prescriptions"] = next
	if _, err := p.ApplyDelta(context.Background(), live, map[string]Change{"hospital.prescriptions": ch}); err != nil {
		t.Fatal(err)
	}
	probed, kept, state, idx := join.probed, filter.kept, agg.state, er.idx.Load()
	resolved, unmatched := er.Resolved, er.Unmatched
	if probed.of == nil || kept.of == nil || state == nil || idx == nil {
		t.Fatalf("the run retained no state: join %v, filter %v, aggregate %v, index %v",
			probed.of != nil, kept.of != nil, state != nil, idx != nil)
	}

	g := &askGuard{}
	var ran []string
	p.RunEmpty(g, func(s Step, err error) {
		if err != nil {
			t.Errorf("step %s over zero rows: %v", s.Name(), err)
		}
		ran = append(ran, s.Name())
	})
	if len(ran) != len(p.Steps) {
		t.Errorf("ran %v, want every step", ran)
	}
	if !slices.Equal(g.joins, []string{"prescriptions join familydoctor"}) || !slices.Equal(g.donors, []string{"residents"}) {
		t.Errorf("guard asked joins %v, donors %v", g.joins, g.donors)
	}
	if join.probed.of != probed.of || filter.kept.of != kept.of ||
		agg.state != state || er.idx.Load() != idx || er.Resolved != resolved || er.Unmatched != unmatched {
		t.Error("the zero-row run touched a step's retained state")
	}
	if out, _ := live.Get("by_drug"); out == nil || out.NumRows() == 0 {
		t.Error("the live staging area lost its output")
	}
}

// TestRunEmptyReportsFailingStep: a step that fails over zero rows is
// reported with its error, and the steps reading what it should have made
// are not run.
func TestRunEmptyReportsFailingStep(t *testing.T) {
	hosp, _, _ := sources()
	boom := errors.New("boom")
	p := &Pipeline{Name: "fails", Steps: []Step{
		NewExtract("ext-rx", hosp, "prescriptions", ""),
		NewProject("prj", "prescriptions", "slim", "no_such_column"),
		NewTransform("custom", "custom", "prescriptions", "odd", func(_ context.Context, t *relation.Table) (*relation.Table, error) {
			if t.NumRows() == 0 {
				return nil, boom
			}
			return t, nil
		}),
		NewFilter("after", "slim", "slimmer", relation.ColEqStr("drug", "x")),
	}}
	failed := map[string]error{}
	var ran []string
	p.RunEmpty(nil, func(s Step, err error) {
		ran = append(ran, s.Name())
		if err != nil {
			failed[s.Name()] = err
		}
	})
	if !slices.Equal(ran, []string{"ext-rx", "prj", "custom"}) {
		t.Errorf("ran %v, want the step after a failed one skipped", ran)
	}
	if err := failed["prj"]; err == nil || !strings.Contains(err.Error(), "no_such_column") {
		t.Errorf("prj: err = %v", err)
	}
	if !errors.Is(failed["custom"], boom) {
		t.Errorf("custom: err = %v", failed["custom"])
	}
}

// wrapped is a step decorating another, as a tracing harness does.
type wrapped struct{ Step }

// TestRunEmptyRunsNoWrappedStep: a wrapped step has no body of its own, so
// the zero-row run does not run it — it would stage the live source table
// or rewrite the step's retained state — but reports it.
func TestRunEmptyRunsNoWrappedStep(t *testing.T) {
	hosp, fam, _ := sources()
	join := NewJoin("join-fd", "prescriptions", "familydoctor",
		relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")), relation.InnerJoin, "rx_fd")
	p := &Pipeline{Name: "wrapped", Steps: []Step{
		wrapped{NewExtract("ext-rx", hosp, "prescriptions", "")},
		NewExtract("ext-fd", fam, "familydoctor", ""),
		wrapped{join},
	}}
	if _, err := p.Run(NewContext(nil), false); err != nil {
		t.Fatal(err)
	}
	probed := join.probed
	g := &askGuard{}
	failed := map[string]error{}
	var ran []string
	p.RunEmpty(g, func(s Step, err error) {
		ran = append(ran, s.Name())
		if err != nil {
			failed[s.Name()] = err
		}
	})
	if !slices.Equal(ran, []string{"ext-rx", "ext-fd"}) {
		t.Errorf("ran %v, want the join reading the unrun extraction skipped", ran)
	}
	if err := failed["ext-rx"]; err == nil || !strings.Contains(err.Error(), "no body") {
		t.Errorf("wrapped extraction: err = %v", err)
	}
	if len(g.joins) != 0 || join.probed.of != probed.of {
		t.Errorf("the zero-row run ran the wrapped join: asked %v", g.joins)
	}

	// Wrapped on its own, the join is not run either.
	p.Steps[0] = NewExtract("ext-rx", hosp, "prescriptions", "")
	failed = map[string]error{}
	p.RunEmpty(g, func(s Step, err error) {
		if err != nil {
			failed[s.Name()] = err
		}
	})
	if err := failed["join-fd"]; err == nil || len(g.joins) != 0 || join.probed.of != probed.of {
		t.Errorf("wrapped join: err = %v, asked %v", err, g.joins)
	}
}
