package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"plabi/internal/audit"
	"plabi/internal/fault"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// buildConcurrencyEngine assembles the healthcare scenario at a small
// size on an engine built from cfg, suitable for hammering from many
// goroutines under -race.
func buildConcurrencyEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	wcfg := workload.DefaultConfig(7)
	wcfg.Prescriptions = 600
	wcfg.Patients = 60
	e, _, err := buildScenario(wcfg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConcurrentRenderWithPolicyChurn drives every engine surface at
// once: M goroutines render the full report portfolio while other
// goroutines add PLAs and re-derive meta-reports. Requirements: no data
// race (-race), no error, no torn audit entries (sequence numbers must be
// unique and contiguous), and every render outcome must be one of the
// states valid before or after the policy change — never a mixture.
func TestConcurrentRenderWithPolicyChurn(t *testing.T) {
	defer fault.CheckLeaks(t)()
	e := buildConcurrencyEngine(t, Config{})
	defer verifyResident(t, e)
	defs := e.Reports.All()
	consumers := []report.Consumer{
		{Name: "a1", Role: "analyst", Purpose: "quality"},
		{Name: "a2", Role: "auditor", Purpose: "quality"},
		{Name: "a3", Role: "analyst", Purpose: "reimbursement"},
	}

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds+4)

	// Render workers.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := consumers[w%len(consumers)]
			for r := 0; r < rounds; r++ {
				for _, d := range defs {
					enf, err := e.RenderContext(context.Background(), d.ID, c)
					if err != nil {
						errs <- err
						return
					}
					// Every row of a rendered (non-blocked) table must carry
					// its lineage — a torn row/lineage pair would indicate an
					// unsynchronized mutation mid-render.
					for i := range enf.Table.Rows {
						if n := len(enf.Table.RowLineage(i)); n == 0 {
							errs <- errMismatch(d.ID, i, n)
							return
						}
					}
				}
			}
		}(w)
	}
	// Policy churn: new PLAs arriving mid-flight (new ids each time so
	// registration never conflicts).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			dsl := `pla "churn-` + string(rune('a'+i)) + `" {
				owner "hospital"; level warehouse; scope "rx_wide";
				allow attribute drug; }`
			if err := e.AddPLAs(dsl); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Meta-report re-derivation invalidates the extra-scope config.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := e.DeriveMetaReports(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// No torn audit entries: sequence numbers are exactly 0..N-1 with no
	// duplicates or holes, and every event still round-trips as one JSONL
	// line.
	events := e.Audit.Events()
	seen := make([]bool, len(events))
	for _, ev := range events {
		if ev.Seq < 0 || ev.Seq >= len(events) || seen[ev.Seq] {
			t.Fatalf("torn audit log: bad/duplicate seq %d of %d", ev.Seq, len(events))
		}
		seen[ev.Seq] = true
	}
	renders := len(e.Audit.ByKind("render"))
	if want := workers * rounds * len(defs); renders != want {
		t.Errorf("renders audited = %d, want %d", renders, want)
	}

	// Outcomes stabilize once the churn stops: two quiesced renders of the
	// same report agree exactly.
	for _, d := range defs {
		a, err := e.Render(d.ID, consumers[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Render(d.ID, consumers[0])
		if err != nil {
			t.Fatal(err)
		}
		if a.Table.NumRows() != b.Table.NumRows() || a.MaskedCells != b.MaskedCells ||
			a.SuppressedRows != b.SuppressedRows || len(a.Decisions) != len(b.Decisions) {
			t.Errorf("%s: unstable quiesced outcome: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", d.ID,
				a.Table.NumRows(), a.MaskedCells, a.SuppressedRows, len(a.Decisions),
				b.Table.NumRows(), b.MaskedCells, b.SuppressedRows, len(b.Decisions))
		}
	}
}

func errMismatch(id string, row, refs int) error {
	return fmt.Errorf("torn table in %s: row %d has %d lineage refs", id, row, refs)
}

func auditEvent(kind string) audit.Event { return audit.Event{Kind: kind} }

// TestCacheInvalidationOnAddPLAs is the regression test for the decision
// cache: a cached render must stop being served the moment the policy set
// changes, and the new decisions must reflect the new PLAs.
func TestCacheInvalidationOnAddPLAs(t *testing.T) {
	e := buildConcurrencyEngine(t, Config{})
	c := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}

	// Warm the cache, then confirm a hit.
	if _, err := e.Render("drug-consumption", c); err != nil {
		t.Fatal(err)
	}
	enf, err := e.Render("drug-consumption", c)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.CacheHit {
		t.Fatal("second render of identical (report, role, purpose) should hit the cache")
	}
	statsBefore := e.CacheStats()
	if statsBefore.Hits == 0 {
		t.Fatalf("cache hits = 0 after repeated render: %+v", statsBefore)
	}

	// A new report-level PLA forbidding the drug attribute must take
	// effect on the very next render.
	err = e.AddPLAs(`pla "revoke-drug" {
		owner "hospital"; level report; scope "drug-consumption";
		allow attribute consumption; }`)
	if err != nil {
		t.Fatal(err)
	}
	enf2, err := e.Render("drug-consumption", c)
	if err != nil {
		t.Fatal(err)
	}
	if enf2.CacheHit {
		t.Fatal("render after AddPLAs must rebuild the plan, not hit the cache")
	}
	stats := e.CacheStats()
	if stats.Invalidations == 0 {
		t.Errorf("expected at least one invalidation, got %+v", stats)
	}

	// And DeriveMetaReports invalidates as well (configuration
	// generation moves even when the assignment is equivalent).
	if _, err := e.Render("disease-by-year", c); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeriveMetaReports(); err != nil {
		t.Fatal(err)
	}
	enf3, err := e.Render("disease-by-year", c)
	if err != nil {
		t.Fatal(err)
	}
	if enf3.CacheHit {
		t.Fatal("render after DeriveMetaReports must rebuild the plan")
	}
}

// TestAuditSinkStreams verifies the streaming sink sees every event as
// valid JSONL in sequence order.
func TestAuditSinkStreams(t *testing.T) {
	e := New(Config{})
	var sb strings.Builder
	e.Audit.SetSink(&sb)
	_, _ = e.Audit.AppendChecked(context.Background(), auditEvent("a"))
	_, _ = e.Audit.AppendChecked(context.Background(), auditEvent("b"))
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"seq":0`) || !strings.Contains(lines[1], `"seq":1`) {
		t.Errorf("sink lines out of order: %q", lines)
	}
}
