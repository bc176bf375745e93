package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"plabi/internal/etl"
	"plabi/internal/fault"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

// TestPipelineObjectChangesNoWork: what a delta reads is kept with the
// table versions, not on the steps, so which pipeline object an engine
// holds changes no work. A second run of a fresh HealthcarePipeline over
// unchanged residents builds no canon index; a fresh pipeline object's
// first delta places as many steps' edits as the object that ran the
// build; and a delete batch rolled back behind the joins, then applied
// again, is placed by the ordinals the restored versions kept and equals
// a rebuild.
func TestPipelineObjectChangesNoWork(t *testing.T) {
	cfg := workload.DefaultConfig(5)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 600, 80, 20
	build := func(c Config) (*Engine, *workload.Dataset) {
		t.Helper()
		e, ds, err := buildScenario(cfg, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e, ds
	}

	e, ds := build(Config{})
	builds := e.Obs().Counter("etl.er.index_builds")
	before := builds.Value()
	if _, err := e.RunETL(HealthcarePipeline(e), false); err != nil {
		t.Fatal(err)
	}
	if n := builds.Value() - before; n != 0 {
		t.Errorf("a fresh pipeline over unchanged residents built %d canon indexes, want 0", n)
	}

	batch := func() etl.Batch {
		rng := rand.New(rand.NewSource(9))
		b := familyDoctorDelta(ds, 0)
		b.Deltas = append(b.Deltas, etl.Delta{Source: "hospital", Table: "prescriptions",
			Inserts: []relation.Row{randRxRow(rng, ds, 1), randRxRow(rng, ds, 2)}})
		return b
	}
	same, _ := build(Config{})
	want, err := same.ApplyDelta(context.Background(), batch())
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := build(Config{})
	fresh.recordPipeline(HealthcarePipeline(fresh)) // same name: the build's staging stays
	got, err := fresh.ApplyDelta(context.Background(), batch())
	if err != nil {
		t.Fatal(err)
	}
	if got.StepsIncremental != want.StepsIncremental || got.StepsRebuilt != want.StepsRebuilt || want.StepsRebuilt != 0 {
		t.Errorf("a fresh pipeline object's first delta placed %d and reran %d steps; the build's object %d and %d (want 0 rerun)",
			got.StepsIncremental, got.StepsRebuilt, want.StepsIncremental, want.StepsRebuilt)
	}

	// Give row 5 a drug without a cost, so that join-costs' ordinals skip
	// it, then delete row 4 beside it and two more. Each batch hits
	// etl.delta at ext-prescriptions, join-costs and join-residents; the
	// delete's third hit fails, after join-costs has placed the removals
	// by its ordinals. Had it renumbered the ordinals in place, the version
	// the rollback restores would place row 4's removal on another row.
	fi := fault.NewInjector(1)
	fi.ReplaySchedule([]fault.Fire{{Site: fault.SiteETLDelta, Kind: "error", Call: 6}})
	live, _ := build(Config{Faults: fi})
	rx := sourceTable(t, live, "hospital", "prescriptions")
	vals := rx.Row(5).Clone()
	vals[rx.Schema.Index("drug")] = relation.Str("no such drug")
	if _, err := live.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{Source: "hospital", Table: "prescriptions",
		Updates: []etl.RowUpdate{{Row: 5, Vals: vals}}}}}); err != nil {
		t.Fatal(err)
	}
	del := etl.Batch{Deltas: []etl.Delta{{Source: "hospital", Table: "prescriptions", Deletes: []int{0, 4, 300}}}}
	if _, err := live.ApplyDelta(context.Background(), del); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("delete under an injected fault: %v", err)
	}
	res, err := live.ApplyDelta(context.Background(), del)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRebuilt != 0 {
		t.Errorf("the delete after the rollback reran %d steps, want every edit placed", res.StepsRebuilt)
	}
	mirror, err := buildEngineFromTables(
		sourceTable(t, live, "hospital", "prescriptions").Clone(),
		sourceTable(t, live, "familydoctors", "familydoctor").Clone(),
		sourceTable(t, live, "healthagency", "drugcost").Clone(),
		sourceTable(t, live, "laboratory", "labresults").Clone(),
		sourceTable(t, live, "municipality", "residents").Clone(),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"prescriptions", "rx_cost", "rx_wide"} {
		lt, _ := live.Table(name)
		mt, _ := mirror.Table(name)
		if dumpTable(lt) != dumpTable(mt) {
			t.Errorf("%s after the rolled-back and reapplied delete diverges from a rebuild (%d vs %d rows)", name, lt.NumRows(), mt.NumRows())
		}
	}
}
