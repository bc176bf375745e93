package core

import (
	"fmt"
	"testing"

	"plabi/internal/enforce"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// scenarioRun captures everything observable about one full scenario run:
// rendered tables, enforcement decisions, intervention counters, and the
// audit trail. Folded and unfolded renders, and segment-backed and
// in-memory storage, must produce identical runs — the acceptance bar
// for the fold memo and for the out-of-core storage layer.
type scenarioRun struct {
	tables     map[string]string
	decisions  map[string][]string
	masked     map[string]int
	suppressed map[string]int
	auditKinds map[string]int
	etlTables  map[string]string
}

// runScenario runs the scenario on an engine set up by the configuration
// hook (nil keeps the defaults), applied before the scenario ETL runs:
// turn folding on, reroute staging tables through a spill store.
func runScenario(t *testing.T, configure func(*Engine)) scenarioRun {
	t.Helper()
	e, _, err := BuildHealthcareEngineWith(workload.DefaultConfig(7), configure)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	run := scenarioRun{
		tables:     map[string]string{},
		decisions:  map[string][]string{},
		masked:     map[string]int{},
		suppressed: map[string]int{},
		auditKinds: map[string]int{},
		etlTables:  map[string]string{},
	}
	for _, name := range []string{"rx_cost", "rx_wide", "familydoctor_resolved"} {
		tab, ok := e.Table(name)
		if !ok {
			t.Fatalf("warehouse table %s missing", name)
		}
		run.etlTables[name] = tab.String()
	}
	consumers := []report.Consumer{
		{Name: "alice", Role: "analyst", Purpose: "quality"},
		{Name: "audrey", Role: "auditor", Purpose: "quality"},
		{Name: "rob", Role: "analyst", Purpose: "reimbursement"},
	}
	for _, d := range StandardReports() {
		for _, c := range consumers {
			key := d.ID + "/" + c.Role + "/" + c.Purpose
			// Render every triple twice: with folding on the first render
			// folds the result and the second replays the fold, so the
			// equivalence bar covers both the cold and the replay path.
			for pass := 0; pass < 2; pass++ {
				enf, err := e.Render(d.ID, c)
				if err != nil {
					run.tables[key] = "ERR: " + err.Error()
					continue
				}
				run.tables[key] = enf.Table.String()
				run.masked[key] = enf.MaskedCells
				run.suppressed[key] = enf.SuppressedRows
				for _, dec := range enf.Decisions {
					run.decisions[key] = append(run.decisions[key],
						fmt.Sprintf("%v|%s|%s|%s", dec.Outcome, dec.Rule, dec.Subject, dec.Detail))
				}
				_ = enforce.Blocked(enf.Decisions)
			}
		}
	}
	for _, ev := range e.Audit.Events() {
		run.auditKinds[ev.Kind]++
	}
	verifyResident(t, e)
	return run
}

// compareRuns requires two scenario runs to be byte-identical: tables,
// decision streams, intervention counters and audit event counts.
func compareRuns(t *testing.T, aName, bName string, a, b scenarioRun) {
	t.Helper()
	for name, as := range a.etlTables {
		if bs := b.etlTables[name]; as != bs {
			t.Errorf("ETL table %s diverged:\n%s:\n%s\n%s:\n%s", name, aName, as, bName, bs)
		}
	}
	for key, as := range a.tables {
		if bs, ok := b.tables[key]; !ok || as != bs {
			t.Errorf("report %s diverged:\n%s:\n%s\n%s:\n%s", key, aName, as, bName, b.tables[key])
		}
	}
	if len(a.tables) != len(b.tables) {
		t.Errorf("rendered report sets differ: %d (%s) vs %d (%s)", len(a.tables), aName, len(b.tables), bName)
	}
	for key := range a.tables {
		if a.masked[key] != b.masked[key] {
			t.Errorf("%s: masked cells %d (%s) vs %d (%s)", key, a.masked[key], aName, b.masked[key], bName)
		}
		if a.suppressed[key] != b.suppressed[key] {
			t.Errorf("%s: suppressed rows %d (%s) vs %d (%s)", key, a.suppressed[key], aName, b.suppressed[key], bName)
		}
		ad, bd := a.decisions[key], b.decisions[key]
		if len(ad) != len(bd) {
			t.Errorf("%s: decision count %d (%s) vs %d (%s)", key, len(ad), aName, len(bd), bName)
			continue
		}
		for i := range ad {
			if ad[i] != bd[i] {
				t.Errorf("%s: decision %d diverged:\n  %s: %s\n  %s: %s", key, i, aName, ad[i], bName, bd[i])
			}
		}
	}
	for kind, n := range a.auditKinds {
		if b.auditKinds[kind] != n {
			t.Errorf("audit events %q: %d (%s) vs %d (%s)", kind, n, aName, b.auditKinds[kind], bName)
		}
	}
}

// folded turns whole-result folding on.
func folded(e *Engine) { e.SetCompiledRenders(true) }

// TestScenarioModeEquivalence runs the complete healthcare scenario —
// synthetic workload, guarded ETL with entity resolution, every standard
// report for three consumers, each rendered twice — unfolded (the
// default) and folded, and requires byte-identical tables, identical
// decision streams, identical mask/suppression counters and identical
// audit event counts.
func TestScenarioModeEquivalence(t *testing.T) {
	compareRuns(t, "unfolded", "folded", runScenario(t, nil), runScenario(t, folded))
}

// TestSegmentModeEquivalence is the storage-mode analogue: the complete
// scenario with every ETL staging table spilled to on-disk columnar
// segments (tiny partitions, so reports cross many partition boundaries)
// must be byte-identical — tables, decisions, counters, audit kinds — to
// the fully in-memory run, folded or not. The in-memory run is the
// semantic oracle for the out-of-core storage layer.
func TestSegmentModeEquivalence(t *testing.T) {
	spilled := func(e *Engine) {
		s := e.SetSegmentStore(t.TempDir())
		s.SetPartitionRows(16)
		e.SetSpillThreshold(1) // spill every staging table
	}
	compareRuns(t, "unfolded/in-memory", "unfolded/segment", runScenario(t, nil), runScenario(t, spilled))
	compareRuns(t, "folded/in-memory", "folded/segment", runScenario(t, folded),
		runScenario(t, func(e *Engine) { folded(e); spilled(e) }))
}
