package core

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"plabi/internal/audit"
	"plabi/internal/enforce"
	"plabi/internal/fault"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// refused is the scenario's refusal: patient-activity is not aggregated and
// the hospital's PLA puts a min-3 threshold on its prescriptions.
var refused = report.Consumer{Name: "rob", Role: "analyst", Purpose: "reimbursement"}

// refusalEngine builds the healthcare engine at 3 000 prescriptions under
// the fault injector fi (nil for none), its staging tables spilled to
// segments when spill is set.
func refusalEngine(t *testing.T, spill bool, fi *fault.Injector) *Engine {
	t.Helper()
	wcfg := workload.DefaultConfig(7)
	wcfg.Prescriptions = 3000
	cfg := Config{Faults: fi}
	if spill {
		r := fastRetry()
		cfg.Retry = &r
	}
	e, _, err := buildScenario(wcfg, cfg, func(e *Engine) {
		if spill {
			e.SetSegmentStore(t.TempDir())
			e.SetSpillThreshold(500)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// trail is what a render left in the audit log, without the fields that
// number the run (sequence, span id).
func trail(e *Engine, from int) []audit.Event {
	evs := append([]audit.Event(nil), e.Audit.Events()[from:]...)
	for i := range evs {
		evs[i].Seq, evs[i].Trace = 0, ""
	}
	return evs
}

// TestRefusalDoesNotDependOnReadableData: the refusal is decided from the
// definition and the PLAs, so it is the same refusal — decisions and audit
// trail — on an engine whose segments cannot be read, it reads none of
// them, and the allowed report beside it still fails closed.
func TestRefusalDoesNotDependOnReadableData(t *testing.T) {
	intact := refusalEngine(t, true, nil)
	before := intact.Audit.Len()
	want, err := intact.Render("patient-activity", refused)
	if err != nil {
		t.Fatal(err)
	}
	if len(enforce.Blocked(want.Decisions)) == 0 {
		t.Fatalf("fixture refuses nothing: %v", want.Decisions)
	}
	wantTrail := trail(intact, before)
	if len(wantTrail) != 1+len(want.Decisions) {
		t.Fatalf("intact refusal left %d events for %d decisions", len(wantTrail), len(want.Decisions))
	}

	fi := fault.NewInjector(1)
	e := refusalEngine(t, true, fi)
	if tab, _ := e.Table("rx_wide"); !segmentBacked(tab) || tab.NumRows() == 0 {
		t.Fatal("rx_wide is not segment-backed; the read fault pins nothing")
	}
	// Every partition read fails for good, before anything was materialized.
	fi.Enable(fault.SiteSegmentRead, fault.SiteConfig{ErrorRate: 1})
	m := e.Obs()
	reads := m.Counter("segment.read.partitions").Value()
	execs := m.Histogram("enforce.exec.duration").Snapshot().Count
	before = e.Audit.Len()

	enf, err := e.Render("patient-activity", refused)
	if err != nil {
		t.Fatalf("refusal over unreadable data is an operational error: %v", err)
	}
	if got, want := enforce.Blocked(enf.Decisions), enforce.Blocked(want.Decisions); !reflect.DeepEqual(got, want) {
		t.Errorf("blocking decisions = %v, intact engine's %v", got, want)
	}
	if enf.Table.NumRows() != 0 || enf.Table.Schema.String() != want.Table.Schema.String() {
		t.Errorf("refused table = %d rows %s, intact engine's %s", enf.Table.NumRows(), enf.Table.Schema, want.Table.Schema)
	}
	if got := trail(e, before); !reflect.DeepEqual(got, wantTrail) {
		t.Errorf("audit trail = %+v\nintact engine's %+v", got, wantTrail)
	}
	if got := m.Counter("segment.read.partitions").Value(); got != reads {
		t.Errorf("refusal read %d partitions", got-reads)
	}
	if got := fi.Counts()[fault.SiteSegmentRead]; got != 0 {
		t.Errorf("refusal reached the segment read site %d times", got)
	}
	if got := m.Histogram("enforce.exec.duration").Snapshot().Count; got != execs {
		t.Errorf("refusal observed enforce.exec.duration %d times", got-execs)
	}

	// The allowed report needs the rows and still fails closed without them.
	before = e.Audit.Len()
	if enf, err := e.Render("drug-consumption", refused); err == nil {
		t.Fatalf("allowed render over unreadable segments delivered %d rows", enf.Table.NumRows())
	} else if !strings.Contains(err.Error(), fault.SiteSegmentRead) {
		t.Errorf("allowed render failed with %v, want the read error", err)
	}
	if got := e.Audit.Len(); got != before {
		t.Errorf("failed render left %d audit events", got-before)
	}
}

// TestReportHeadersAreExecutedHeaders: for every report of the scenario the
// header a refusal would return is the executed one, in memory and spilled.
func TestReportHeadersAreExecutedHeaders(t *testing.T) {
	for _, spill := range []bool{false, true} {
		e := refusalEngine(t, spill, nil)
		for _, d := range StandardReports() {
			sel, err := d.Parse()
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Catalog.Exec(sel)
			if err != nil {
				t.Fatal(err)
			}
			want := res.Shell()
			got, err := e.Catalog.Snapshot().Header(sel)
			if err != nil {
				t.Fatalf("spill=%v %s: Header: %v", spill, d.ID, err)
			}
			if got.NumRows() != 0 || got.Name != want.Name || got.Base != want.Base ||
				got.Schema.String() != want.Schema.String() || !reflect.DeepEqual(got.ColOrigin, want.ColOrigin) {
				t.Errorf("spill=%v %s: Header = %s %s %v, executed %s %s %v", spill, d.ID,
					got.Name, got.Schema, got.ColOrigin, want.Name, want.Schema, want.ColOrigin)
			}
		}
	}
}

var runNumbering = regexp.MustCompile(`"seq":\d+,|,"trace":"[^"]*"`)

// TestRefusalTrailPinned: a refusal returns the same table, decisions and
// audit events on the first (cold plan) and the second (cached plan)
// render, and the lines it writes to the audit sink are these, to the byte.
func TestRefusalTrailPinned(t *testing.T) {
	const wantLines = `{"kind":"render","actor":"rob","object":"patient-activity","detail":"role=analyst purpose=reimbursement rows=0 masked=0 suppressed=0"}
{"kind":"violation","actor":"rob","object":"patient-activity","detail":"aggregation-threshold: report is not aggregated but a min-3 threshold applies","outcome":"block","plas":["hospital-prescriptions"]}
`
	type pass struct {
		table     string
		decisions []enforce.Decision
		events    []audit.Event
	}
	var runs [2]pass
	var sink bytes.Buffer
	e := refusalEngine(t, false, nil)
	e.Audit.SetSink(&sink)
	for p := range runs {
		before := e.Audit.Len()
		sink.Reset()
		enf, err := e.Render("patient-activity", refused)
		if err != nil {
			t.Fatal(err)
		}
		if enf.Table.NumRows() != 0 || enf.CacheHit != (p == 1) {
			t.Errorf("pass %d: %d rows, plan hit %v", p, enf.Table.NumRows(), enf.CacheHit)
		}
		runs[p] = pass{enf.Table.Schema.String() + enf.Table.String(), enf.Decisions, trail(e, before)}
		if got := runNumbering.ReplaceAllString(sink.String(), ""); got != wantLines {
			t.Errorf("pass %d: audit sink lines\n%swant\n%s", p, got, wantLines)
		}
	}
	if got := e.Obs().Counter("enforce.static_blocks").Value(); got != 2 {
		t.Errorf("enforce.static_blocks = %d, want 2", got)
	}
	if !reflect.DeepEqual(runs[1], runs[0]) {
		t.Errorf("second refusal differs from the first:\n%+v\n%+v", runs[1], runs[0])
	}
}
