package core

import (
	"fmt"
	"reflect"
	"testing"

	"plabi/internal/enforce"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// scenarioRun captures everything observable about one full scenario run:
// rendered tables, enforcement decisions, intervention counters, and the
// audit trail. Segment-backed and in-memory storage must produce
// identical runs — the acceptance bar for the out-of-core storage layer.
type scenarioRun struct {
	tables     map[string]string
	decisions  map[string][]string
	masked     map[string]int
	suppressed map[string]int
	auditKinds map[string]int
	etlTables  map[string]string
}

// runScenario runs the scenario on an engine set up by the configuration
// hook (nil keeps the defaults), applied before the scenario ETL runs —
// e.g. reroute staging tables through a spill store.
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
			// Render every triple twice: the first render builds the plan,
			// the second is served from the plan cache and must render the
			// same table, decisions and counters.
			first := observeRender(e.Render(d.ID, c))
			enf, err := e.Render(d.ID, c)
			if err == nil && !enf.CacheHit {
				t.Errorf("%s: second render rebuilt its plan", key)
			}
			if again := observeRender(enf, err); !reflect.DeepEqual(again, first) {
				t.Errorf("%s: cached-plan render diverged from the cold one:\n%+v\n%+v", key, again, first)
			}
			run.tables[key] = first.table
			run.decisions[key] = first.decisions
			run.masked[key] = first.masked
			run.suppressed[key] = first.suppressed
		}
	}
	for _, ev := range e.Audit.Events() {
		run.auditKinds[ev.Kind]++
	}
	verifyResident(t, e)
	return run
}

// renderedTriple is what one render of a triple shows: the table (or the
// error), the decision stream and the intervention counters.
type renderedTriple struct {
	table              string
	decisions          []string
	masked, suppressed int
}

// observeRender captures one render's outcome.
func observeRender(enf *enforce.Enforced, err error) renderedTriple {
	if err != nil {
		return renderedTriple{table: "ERR: " + err.Error()}
	}
	r := renderedTriple{table: enf.Table.String(), masked: enf.MaskedCells, suppressed: enf.SuppressedRows}
	for _, dec := range enf.Decisions {
		r.decisions = append(r.decisions,
			fmt.Sprintf("%v|%s|%s|%s", dec.Outcome, dec.Rule, dec.Subject, dec.Detail))
	}
	return r
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

// TestSegmentModeEquivalence is the storage-mode analogue: the complete
// scenario with every ETL staging table spilled to on-disk columnar
// segments (tiny partitions, so reports cross many partition boundaries)
// must be byte-identical — tables, decisions, counters, audit kinds — to
// the fully in-memory run. The in-memory run is the semantic oracle for
// the out-of-core storage layer.
func TestSegmentModeEquivalence(t *testing.T) {
	spilled := func(e *Engine) {
		s := e.SetSegmentStore(t.TempDir())
		s.SetPartitionRows(16)
		e.SetSpillThreshold(1) // spill every staging table
	}
	compareRuns(t, "in-memory", "segment", runScenario(t, nil), runScenario(t, spilled))
}
