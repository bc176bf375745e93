package enforce_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"plabi/internal/core"
	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// TestRenderReadsOneSnapshot: a delta that commits between a render's query
// and its row enforcement — a one-row delete, which renumbers the
// prescription ordinals the result's lineage holds, and a one-row update of
// a patient — changes nothing the render releases. It equals the serial
// render of the version before the delta, decisions and their evidence
// included, because thresholds count support in the snapshot the query
// read.
func TestRenderReadsOneSnapshot(t *testing.T) {
	cfg := workload.DefaultConfig(21)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 600, 80, 20
	serial, _, err := core.BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := core.BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyst := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	render := func(e *core.Engine) *enforce.Enforced {
		t.Helper()
		enf, err := e.Render("drug-consumption", analyst)
		if err != nil {
			t.Fatal(err)
		}
		return enf
	}
	want := render(serial)

	src, _ := live.Source("hospital")
	rx, _ := src.Table("prescriptions")
	pc := rx.Schema.Index("patient")
	moved := rx.Row(1).Clone()
	moved[pc] = rx.Row(2)[pc]
	batch := etl.Batch{Deltas: []etl.Delta{{Source: "hospital", Table: "prescriptions",
		Deletes: []int{0}, Updates: []etl.RowUpdate{{Row: 1, Vals: moved}}}}}
	commits := 0
	t.Cleanup(enforce.SetAfterExec(func() {
		if commits++; commits == 1 {
			if _, err := live.ApplyDelta(context.Background(), batch); err != nil {
				t.Error(err)
			}
		}
	}))
	got := render(live)
	if commits != 1 {
		t.Fatalf("the hook ran %d times, want once", commits)
	}
	if g, w := renderText(got), renderText(want); g != w {
		t.Errorf("a render across a delta's commit:\n%s\nthe serial render before the delta:\n%s", g, w)
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Errorf("decisions across a delta's commit differ from the serial render's")
	}
	if after := render(live); renderText(after) == renderText(want) {
		t.Error("fixture: the delta changes nothing the render releases")
	}
}

func renderText(enf *enforce.Enforced) string {
	s := enf.Table.String()
	for _, d := range enf.Decisions {
		s += fmt.Sprintf("%s %v\n", d, d.Evidence)
	}
	return s + fmt.Sprintf("masked=%d suppressed=%d\n", enf.MaskedCells, enf.SuppressedRows)
}
