package plabi

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"plabi/internal/etl"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

func quickEngine(t *testing.T) *Engine {
	t.Helper()
	e := Open()
	seedQuickScenario(t, e)
	return e
}

// seedQuickScenario loads the paper's literal prescriptions fixture, a
// source-level PLA and one report into an already-opened engine.
func seedQuickScenario(t *testing.T, e *Engine) {
	t.Helper()
	e.AddSource(NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	err := e.AddPLAs(`
pla "src" { owner "hospital"; level source; scope "prescriptions";
    allow attribute drug; allow attribute date;
    allow attribute patient when disease <> 'HIV'; }`)
	if err != nil {
		t.Fatal(err)
	}
	err = e.DefineReport(&ReportDefinition{ID: "rx-list", Title: "Rx",
		Query: "SELECT patient, drug, date FROM prescriptions ORDER BY date"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	var sink strings.Builder
	e := Open(WithAuditSink(&sink), WithCacheSize(64), WithWorkers(2))
	e.AddSource(NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	if err := e.AddPLAs(`pla "p" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }`); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineReport(&ReportDefinition{ID: "r", Query: "SELECT drug FROM prescriptions"}); err != nil {
		t.Fatal(err)
	}
	enf, err := e.Render(context.Background(), "r", Consumer{Name: "u", Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.Table.NumRows() == 0 {
		t.Fatal("no rows rendered")
	}
	if sink.Len() == 0 {
		t.Error("audit sink saw nothing")
	}
	if _, ok := e.Source("hospital"); !ok {
		t.Error("Source accessor failed")
	}
}

func TestTypedErrors(t *testing.T) {
	e := quickEngine(t)
	ctx := context.Background()

	if _, err := e.Render(ctx, "nope", Consumer{Role: "analyst"}); !errors.Is(err, ErrUnknownReport) {
		t.Errorf("Render unknown: %v, want ErrUnknownReport", err)
	}
	if _, err := e.CheckReportCompliance(ctx, "nope", Consumer{Role: "analyst"}); !errors.Is(err, ErrUnknownReport) {
		t.Errorf("CheckReportCompliance unknown: %v", err)
	}
	if err := e.DefineReport(&ReportDefinition{ID: "bad", Query: "SELECT x FROM missing"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Render(ctx, "bad", Consumer{Role: "analyst"}); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("Render over missing table: %v, want ErrUnknownTable", err)
	}
}

func TestRenderBlockedError(t *testing.T) {
	e := quickEngine(t)
	// A non-aggregated report under an aggregation threshold is statically
	// blocked.
	err := e.AddPLAs(`pla "thresh" { owner "hospital"; level report; scope "rx-list";
		aggregate min 3 by patient; }`)
	if err != nil {
		t.Fatal(err)
	}
	enf, err := e.Render(context.Background(), "rx-list", Consumer{Name: "u", Role: "analyst"})
	if err == nil {
		t.Fatal("blocked render returned nil error")
	}
	if !errors.Is(err, ErrPLAViolation) {
		t.Errorf("blocked render error %v does not wrap ErrPLAViolation", err)
	}
	var be *BlockedError
	if !errors.As(err, &be) || len(be.Decisions) == 0 {
		t.Fatalf("blocked render error %v does not expose decisions", err)
	}
	if enf == nil || enf.Table.NumRows() != 0 {
		t.Error("blocked render should still return the empty enforced table")
	}
}

func TestETLViolationWrapsSentinel(t *testing.T) {
	e, err := OpenHealthcare(HealthcareConfig{Prescriptions: 300})
	if err != nil {
		t.Fatal(err)
	}
	hosp, _ := e.Source("hospital")
	fam, _ := e.Source("familydoctors")
	p := &Pipeline{Name: "forbidden", Steps: []Step{
		etl.NewExtract("x1", hosp, "prescriptions", ""),
		etl.NewExtract("x2", fam, "familydoctor", ""),
		etl.NewJoin("bad-join", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "fd_joined"),
	}}
	_, err = e.RunETL(context.Background(), p, false)
	if err == nil {
		t.Fatal("forbidden join did not error")
	}
	if !errors.Is(err, ErrPLAViolation) {
		t.Errorf("ETL violation %v does not wrap ErrPLAViolation", err)
	}
	var be *BlockedError
	if !errors.As(err, &be) {
		t.Errorf("ETL violation %v does not carry a *BlockedError", err)
	}
}

func TestContextCancellation(t *testing.T) {
	e := quickEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Render(ctx, "rx-list", Consumer{Role: "analyst"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled render: %v, want context.Canceled", err)
	}
	if _, err := e.CheckReportCompliance(ctx, "rx-list", Consumer{Role: "analyst"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled compliance check: %v", err)
	}
}

func TestConcurrentPublicRenders(t *testing.T) {
	e, err := OpenHealthcare(HealthcareConfig{Prescriptions: 500})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				_, err := e.Render(context.Background(), "drug-consumption",
					Consumer{Name: "u", Role: "analyst", Purpose: "quality"})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stats := e.CacheStats(); stats.Hits == 0 {
		t.Errorf("concurrent renders produced no cache hits: %+v", stats)
	}
}
