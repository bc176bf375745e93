package enforce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"plabi/internal/fault"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// bulkEnforcer builds an enforcer over a synthetic table large enough to
// take the chunked worker-pool path (n >= minParallelRows with workers > 1).
func bulkEnforcer(t *testing.T, rows int, cfg Config) (*ReportEnforcer, *report.Definition) {
	t.Helper()
	bulk := relation.NewBase("bulk", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("drug", relation.TString),
	))
	for i := 0; i < rows; i++ {
		bulk.AppendVals(
			relation.Str(fmt.Sprintf("patient-%d", i)),
			relation.Str(fmt.Sprintf("D%d", i%7)),
		)
	}
	cat := sql.NewCatalog()
	cat.Register(bulk)
	reg := registryWith(t, `
pla "r" { owner "hospital"; level report; scope "bulk-report";
    deny attribute patient to roles analyst;
}
pla "s" { owner "hospital"; level source; scope "bulk"; allow attribute *; }
`)
	e := NewReportEnforcer(reg, cat, cfg)
	def := &report.Definition{ID: "bulk-report",
		Query: "SELECT patient, drug FROM bulk"}
	return e, def
}

func consumer() report.Consumer {
	return report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
}

func TestRenderWorkerPanicIsolated(t *testing.T) {
	defer fault.CheckLeaks(t)()
	fi := fault.NewInjector(4)
	e, def := bulkEnforcer(t, 8*minParallelRows, Config{Workers: 4, Faults: fi})
	baseline, err := e.Render(def, consumer())
	if err != nil {
		t.Fatal(err)
	}
	fi.Enable(fault.SiteRenderWorker, fault.SiteConfig{PanicRate: 1, Times: 1})

	_, err = e.Render(def, consumer())
	var ie *fault.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want InternalError from panicking worker, got %v", err)
	}
	if ie.Site != fault.SiteRenderWorker || len(ie.Stack) == 0 {
		t.Fatalf("InternalError = %+v", ie)
	}

	// The Times cap is spent; the next render must succeed and be
	// byte-identical to the no-fault baseline.
	again, err := e.Render(def, consumer())
	if err != nil {
		t.Fatalf("re-render after isolated panic: %v", err)
	}
	if again.Table.String() != baseline.Table.String() {
		t.Fatal("post-panic render diverges from baseline")
	}
	if again.MaskedCells != baseline.MaskedCells {
		t.Fatalf("masked = %d, want %d", again.MaskedCells, baseline.MaskedCells)
	}
}

func TestRenderWorkerInjectedErrorFailsRender(t *testing.T) {
	defer fault.CheckLeaks(t)()
	fi := fault.NewInjector(4)
	fi.Enable(fault.SiteRenderWorker, fault.SiteConfig{ErrorRate: 1, Transient: true, Times: 1})
	e, def := bulkEnforcer(t, 8*minParallelRows, Config{Workers: 4, Faults: fi})
	if _, err := e.Render(def, consumer()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected worker error, got %v", err)
	}
	if _, err := e.Render(def, consumer()); err != nil {
		t.Fatalf("render after fault budget spent: %v", err)
	}
}

// renderTrippingCtx reports Canceled after n Err calls, landing the
// cancellation inside a worker's row loop deterministically.
type renderTrippingCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *renderTrippingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func (c *renderTrippingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func TestRenderCancelledMidChunk(t *testing.T) {
	defer fault.CheckLeaks(t)()
	e, def := bulkEnforcer(t, 8*minParallelRows, Config{Workers: 4})
	// Budget: the RenderContext entry check plus the first few chunk-top
	// checks pass; with 2048 rows and in-chunk polling every
	// cancelCheckRows rows the trip can only land inside a row loop.
	ctx := &renderTrippingCtx{Context: context.Background(), left: 4}
	if _, err := e.RenderContext(ctx, def, consumer()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled from inside a chunk, got %v", err)
	}
}
