package etl

import (
	"context"
	"errors"
	"fmt"
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
// what a run asks, and leaves the live versions — the staged tables and
// what is kept beside them for the next delta: join and filter ordinals,
// the aggregate's accumulator, the canon index — as the last delta left
// them.
func TestRunEmptyLeavesRetainedState(t *testing.T) {
	hosp, fam, _ := sources()
	residents := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
	for _, name := range []string{"Alice", "Bob", "Chris", "Math"} {
		residents.AppendVals(relation.Str(name))
	}
	canon := NewSource("municipality", "municipality", residents)
	p := &Pipeline{Name: "state", Steps: []Step{
		NewExtract("ext-rx", hosp, "prescriptions", ""),
		NewExtract("ext-fd", fam, "familydoctor", ""),
		NewExtract("ext-residents", canon, "residents", ""),
		NewEntityResolution("resolve", "familydoctor", "patient", "residents", "patient", "familydoctors", 0.9, "fd_resolved"),
		NewJoin("join-fd", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")), relation.InnerJoin, "rx_fd"),
		NewFilter("asthma", "rx_fd", "asthma", relation.ColEqStr("disease", "asthma")),
		NewAggregate("by-drug", "asthma", "by_drug", []string{"drug"}, []relation.AggSpec{{Kind: relation.AggCount}}),
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
	hosp.Swap("prescriptions", next)
	if _, err := p.ApplyDelta(context.Background(), live, map[string]Change{"hospital.prescriptions": ch}); err != nil {
		t.Fatal(err)
	}
	// state names each staged version and what is kept beside it, by
	// table and key.
	state := func() string {
		var b strings.Builder
		for _, k := range [][2]string{{"rx_fd", "rx_fd"}, {"asthma", "asthma"}, {"by_drug", "by_drug"}, {"residents", "fd_resolved"}} {
			tb, err := live.Get(k[0])
			if err != nil {
				t.Fatal(err)
			}
			v := tb.Kept(k[1])
			if v == nil {
				t.Fatalf("nothing is kept beside %s under %q", k[0], k[1])
			}
			fmt.Fprintf(&b, "%s %p %d: %T %p", k[0], tb, tb.NumRows(), v, v)
			if f, ok := v.(fanout); ok {
				fmt.Fprint(&b, []int32(f))
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	before := state()

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
	if after := state(); after != before {
		t.Errorf("the zero-row run touched the live versions:\nbefore:\n%safter:\n%s", before, after)
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

// wrapped is a step decorating another, as a tracing harness does; it
// notes what each of its runs left staged under its output.
type wrapped struct {
	Step
	staged *[]*relation.Table
}

func (w wrapped) Run(c *Context) error {
	err := w.Step.Run(c)
	if t, gerr := c.Get(w.Output()); gerr == nil {
		*w.staged = append(*w.staged, t)
	}
	return err
}

// TestRunEmptyRunsWrappedStep: a wrapped step's Run is the step's own Run,
// so the zero-row run runs it like any other: a wrapped extraction stages
// a rowless shell of the source table, a wrapped join asks the guard, and
// neither touches the live versions.
func TestRunEmptyRunsWrappedStep(t *testing.T) {
	hosp, fam, _ := sources()
	var extracted, joined []*relation.Table
	p := &Pipeline{Name: "wrapped", Steps: []Step{
		wrapped{NewExtract("ext-rx", hosp, "prescriptions", ""), &extracted},
		NewExtract("ext-fd", fam, "familydoctor", ""),
		wrapped{NewJoin("join-fd", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")), relation.InnerJoin, "rx_fd"), &joined},
	}}
	live := NewContext(nil)
	if _, err := p.Run(live, false); err != nil {
		t.Fatal(err)
	}
	rx, _ := hosp.Table("prescriptions")
	out, _ := live.Get("rx_fd")
	ord := fmt.Sprint(out.Kept("rx_fd"))
	if len(extracted) != 1 || extracted[0] != rx || len(joined) != 1 || joined[0] != out || out.NumRows() == 0 {
		t.Fatalf("the live run staged %v and %v", extracted, joined)
	}

	g := &askGuard{}
	var ran []string
	p.RunEmpty(g, func(s Step, err error) {
		ran = append(ran, s.Name())
		if err != nil {
			t.Errorf("step %s over zero rows: %v", s.Name(), err)
		}
	})
	if !slices.Equal(ran, []string{"ext-rx", "ext-fd", "join-fd"}) {
		t.Errorf("ran %v, want every step", ran)
	}
	if shell := extracted[1]; shell == rx || shell.NumRows() != 0 || shell.Schema.String() != rx.Schema.String() {
		t.Errorf("the wrapped extraction staged %p with %d rows, want a rowless shell of %p", shell, shell.NumRows(), rx)
	}
	if !slices.Equal(g.joins, []string{"prescriptions join familydoctor"}) || joined[1].NumRows() != 0 {
		t.Errorf("the wrapped join asked %v and staged %d rows", g.joins, joined[1].NumRows())
	}
	if now, _ := hosp.Table("prescriptions"); now != rx || now.NumRows() == 0 {
		t.Error("the zero-row run touched the source table")
	}
	if now, _ := live.Get("rx_fd"); now != out || fmt.Sprint(now.Kept("rx_fd")) != ord {
		t.Error("the zero-row run touched the live join output or its ordinals")
	}
}
