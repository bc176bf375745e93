package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plabi/internal/audit"
	"plabi/internal/etl"
	"plabi/internal/fault"
	"plabi/internal/relation"
	"plabi/internal/report"
)

// downWriter refuses every write — a dead audit sink.
type downWriter struct{ writes int }

func (w *downWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("sink down")
}

func fastRetry() fault.RetryPolicy {
	return fault.RetryPolicy{MaxAttempts: 3, Base: time.Microsecond, Max: 10 * time.Microsecond, Multiplier: 2}
}

func TestRenderFailClosedBlocksWhenAuditDown(t *testing.T) {
	r := fastRetry()
	e := buildConcurrencyEngine(t, Config{Retry: &r})
	w := &downWriter{}
	e.Audit.SetSink(w)

	c := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	_, err := e.Render("drug-consumption", c)
	if !errors.Is(err, audit.ErrAuditUnavailable) {
		t.Fatalf("render over a dead sink must block on ErrAuditUnavailable, got %v", err)
	}
	if w.writes == 0 {
		t.Fatal("sink never consulted")
	}
	snap := e.MetricsSnapshot()
	if snap.Counters["render.audit_blocked"] == 0 {
		t.Fatalf("render.audit_blocked not counted: %v", snap.Counters)
	}
	if snap.Counters["retry.exhausted"] == 0 {
		t.Fatalf("retry budget exhaustion not counted: %v", snap.Counters)
	}

	// Recovery: the sink comes back, and the same render serves again.
	e.Audit.SetSink(nil)
	if _, err := e.Render("drug-consumption", c); err != nil {
		t.Fatalf("render after sink recovery: %v", err)
	}
}

// TestRefusedRenderStopsAtFirstUnauditedEvent: a render is refused at the
// first of its events the sink does not take. The render event goes first,
// so a dead sink sees exactly the retry policy's attempts at it and none
// at the render's decisions.
func TestRefusedRenderStopsAtFirstUnauditedEvent(t *testing.T) {
	r := fastRetry()
	e := buildConcurrencyEngine(t, Config{Retry: &r})
	c := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	enf, err := e.Render("drug-consumption", c)
	if err != nil {
		t.Fatal(err)
	}
	if len(enf.Decisions) == 0 {
		t.Fatal("the report carries no decision; the test needs one")
	}
	w := &downWriter{}
	e.Audit.SetSink(w)
	if _, err := e.Render("drug-consumption", c); !errors.Is(err, audit.ErrAuditUnavailable) {
		t.Fatalf("render over a dead sink: want ErrAuditUnavailable, got %v", err)
	}
	if w.writes != r.MaxAttempts {
		t.Fatalf("sink writes = %d, want the render event's %d attempts", w.writes, r.MaxAttempts)
	}
	if got := e.MetricsSnapshot().Counters["audit.sink_drops"]; got != 1 {
		t.Fatalf("audit.sink_drops = %d, want 1", got)
	}
}

// unreadableBaseEngine builds the smallest deployment whose intensional
// condition is decided by reading a segment-backed base table: base
// prescriptions(patient, drug, disease) spilled two rows per partition,
// rx_wide a filter step over it, and a report releasing patient and drug
// under `allow attribute patient ... when disease <> 'HIV'`, on an engine
// under the fault injector fi (nil for none). It returns the engine, the
// segment directory and the masked-cell count of the intact render.
func unreadableBaseEngine(t *testing.T, fi *fault.Injector) (e *Engine, dir string, masked int) {
	t.Helper()
	rx := relation.NewBase("prescriptions", relation.NewSchema(
		relation.Col("patient", relation.TString), relation.Col("drug", relation.TString), relation.Col("disease", relation.TString)))
	for i, disease := range []string{"HIV", "asthma", "flu", "HIV", "diabetes", "HIV", "flu"} {
		name := fmt.Sprintf("patient-%d", i)
		if disease == "HIV" {
			name = fmt.Sprintf("hiv-patient-%d", i)
		}
		_ = rx.AppendVals(relation.Str(name), relation.Str("drug"), relation.Str(disease))
	}
	r := fastRetry()
	e = New(Config{Faults: fi, Retry: &r})
	dir = t.TempDir()
	e.SetSegmentStore(dir).SetPartitionRows(2)
	e.SetSpillThreshold(1)
	e.AddSource(etl.NewSource("hospital", "hospital", rx))
	if err := e.AddPLAs(`pla "rx" { owner "hospital"; level source; scope "prescriptions";
		allow attribute drug;
		allow attribute patient to roles analyst when disease <> 'HIV'; }`); err != nil {
		t.Fatal(err)
	}
	src, _ := e.Source("hospital")
	p := &etl.Pipeline{Name: "p", Steps: []etl.Step{
		etl.NewExtract("ext", src, "prescriptions", ""),
		etl.NewFilter("wide", "prescriptions", "rx_wide", relation.IsNotNull(relation.ColRefExpr("patient"))),
	}}
	if _, err := e.RunETL(p, false); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineReport(&report.Definition{ID: "rx-list", Query: "SELECT patient, drug FROM rx_wide"}); err != nil {
		t.Fatal(err)
	}
	enf, err := e.Render("rx-list", report.Consumer{Name: "ana", Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.MaskedCells != 3 || strings.Contains(enf.Table.String(), "hiv-patient") {
		t.Fatalf("intact render: masked=%d\n%s", enf.MaskedCells, enf.Table)
	}
	return e, dir, enf.MaskedCells
}

// requireNoRelease renders again after the base table became unreadable:
// the render may fail, but a render that succeeds must mask at least what
// the intact one masked and release no HIV patient.
func requireNoRelease(t *testing.T, e *Engine, intactMasked int) {
	t.Helper()
	enf, err := e.Render("rx-list", report.Consumer{Name: "ana", Role: "analyst"})
	if err != nil {
		return
	}
	if enf.MaskedCells < intactMasked || strings.Contains(enf.Table.String(), "hiv-patient") {
		t.Fatalf("unreadable base cells failed open: masked=%d (intact %d)\n%s", enf.MaskedCells, intactMasked, enf.Table)
	}
}

// TestConditionFailsClosedOnUnreadableBase pins that an intensional
// condition whose supporting base cell cannot be read never passes: once
// with the base table's partition files gone, once with every segment
// read failing permanently at the fault site (rx_wide itself stays
// readable from its materialization cache).
func TestConditionFailsClosedOnUnreadableBase(t *testing.T) {
	t.Run("files removed", func(t *testing.T) {
		e, dir, masked := unreadableBaseEngine(t, nil)
		parts, err := filepath.Glob(filepath.Join(dir, "prescriptions-*", "*"))
		if err != nil || len(parts) == 0 {
			t.Fatalf("no prescriptions partitions under %s (%v)", dir, err)
		}
		for _, p := range parts {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		requireNoRelease(t, e, masked)
	})
	t.Run("injected read fault", func(t *testing.T) {
		fi := fault.NewInjector(1)
		e, _, masked := unreadableBaseEngine(t, fi)
		fi.Enable(fault.SiteSegmentRead, fault.SiteConfig{ErrorRate: 1})
		requireNoRelease(t, e, masked)
	})
}
