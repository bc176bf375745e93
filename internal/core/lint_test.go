package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"plabi/internal/etl"
	"plabi/internal/lint"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

// lintEngine builds a small healthcare engine.
func lintEngine(t *testing.T) (*Engine, *workload.Dataset) {
	t.Helper()
	cfg := workload.DefaultConfig(5)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 600, 80, 20
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

// familyDoctorDelta inserts one dirty family-doctor row.
func familyDoctorDelta(ds *workload.Dataset, round int) etl.Batch {
	return etl.Batch{Deltas: []etl.Delta{{Source: "familydoctors", Table: "familydoctor",
		Inserts: []relation.Row{{relation.Str(" " + ds.PatientNames[round] + " "), relation.Str("Dr. Who")}}}}}
}

// TestLintLeavesPipelineState: Lint runs the recorded pipelines over zero
// rows beside the engine's live state, so a delta after it finds every
// step's retained state as the run left it — the canon index reused, and
// as many steps incremental and rebuilt as without the Lint.
func TestLintLeavesPipelineState(t *testing.T) {
	run := func(withLint bool) (etl.DeltaResult, uint64) {
		e, ds := lintEngine(t)
		if _, err := e.RunETL(HealthcarePipeline(e), false); err != nil {
			t.Fatal(err)
		}
		if withLint {
			e.Lint()
		}
		builds := e.Obs().Counter("etl.er.index_builds")
		before := builds.Value()
		res, err := e.ApplyDelta(context.Background(), familyDoctorDelta(ds, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res, builds.Value() - before
	}
	want, _ := run(false)
	got, builds := run(true)
	if builds != 0 {
		t.Errorf("the delta after Lint built %d canon indexes, want the run's reused", builds)
	}
	if got.StepsRebuilt != want.StepsRebuilt || got.StepsIncremental != want.StepsIncremental {
		t.Errorf("after Lint the delta rebuilt %d and refreshed %d steps, without it %d and %d",
			got.StepsRebuilt, got.StepsIncremental, want.StepsRebuilt, want.StepsIncremental)
	}
}

// TestLintDuringDeltas: Lint runs while deltas commit (under -race in
// make chaos): every Lint reports what the first did, and the deltas
// succeed.
func TestLintDuringDeltas(t *testing.T) {
	e, ds := lintEngine(t)
	text := func(fs []lint.Finding) string { return fmt.Sprint(fs) }
	want := text(e.Lint())
	done := make(chan struct{})
	var wg sync.WaitGroup
	var lints atomic.Int32
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if got := text(e.Lint()); got != want {
					t.Errorf("Lint during deltas = %s, want %s", got, want)
					return
				}
				lints.Add(1)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	// At least ten deltas, and until the linters have run a few times.
	for round := 0; round < 10 || lints.Load() < 4 && round < 60; round++ {
		b := familyDoctorDelta(ds, round)
		b.Deltas = append(b.Deltas, etl.Delta{Source: "hospital", Table: "prescriptions",
			Inserts: []relation.Row{sourceTable(t, e, "hospital", "prescriptions").Row(round).Clone()}})
		if _, err := e.ApplyDelta(context.Background(), b); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
