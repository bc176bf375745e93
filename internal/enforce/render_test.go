package enforce

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"plabi/internal/fault"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// mixedEnforcer builds an enforcer over a synthetic non-aggregated table
// whose report exercises every per-row branch at once: an intensional
// condition on patient (every 5th row is HIV), a source row filter
// (drug D3 suppressed) and a denied column (doctor). extraPLAs are added
// to the registry.
func mixedEnforcer(t *testing.T, rows int, extraPLAs string, cfg Config) (*ReportEnforcer, *report.Definition) {
	t.Helper()
	bulk := relation.NewBase("bulk", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("drug", relation.TString),
		relation.Col("disease", relation.TString),
		relation.Col("doctor", relation.TString),
		relation.Col("date", relation.TDate),
	))
	day := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		disease := "flu"
		if i%5 == 0 {
			disease = "HIV"
		}
		bulk.AppendVals(
			relation.Str(fmt.Sprintf("patient-%d", i)),
			relation.Str(fmt.Sprintf("D%d", i%7)),
			relation.Str(disease),
			relation.Str(fmt.Sprintf("doc-%d", i%11)),
			relation.Date(day.AddDate(0, 0, i%365)),
		)
	}
	cat := sql.NewCatalog()
	cat.Register(bulk)
	reg := registryWith(t, `
pla "r" { owner "hospital"; level report; scope "mixed";
    allow attribute patient to roles analyst when disease <> 'HIV';
    allow attribute drug to roles analyst;
    allow attribute date to roles analyst;
    deny attribute doctor to roles analyst;
}
pla "s" { owner "hospital"; level source; scope "bulk";
    allow attribute *;
    filter when drug <> 'D3';
}
`+extraPLAs)
	def := &report.Definition{ID: "mixed",
		Query: "SELECT patient, drug, doctor, date FROM bulk"}
	return NewReportEnforcer(reg, cat, cfg), def
}

// TestRenderWorkersAgree pins what the merged row loop must keep: the
// serial call over [0, n) and the pooled chunks produce the same table,
// lineage, decisions (order included) and counters.
func TestRenderWorkersAgree(t *testing.T) {
	e, def := mixedEnforcer(t, 1200, "", Config{Workers: 1})
	serial, err := e.Render(def, consumer())
	if err != nil {
		t.Fatal(err)
	}
	e, def = mixedEnforcer(t, 1200, "", Config{Workers: 4})
	pooled, err := e.Render(def, consumer())
	if err != nil {
		t.Fatal(err)
	}
	if serial.MaskedCells == 0 || serial.SuppressedRows == 0 {
		t.Fatalf("fixture exercises nothing: masked=%d suppressed=%d", serial.MaskedCells, serial.SuppressedRows)
	}
	var conditions, filters, denies int
	for _, d := range serial.Decisions {
		switch d.Rule {
		case "condition":
			conditions++
		case "row-filter":
			filters++
		case "access-deny":
			denies++
		}
	}
	if conditions == 0 || filters == 0 || denies != 1 {
		t.Fatalf("decisions: %d condition, %d row-filter, %d access-deny", conditions, filters, denies)
	}
	if serial.Table.String() != pooled.Table.String() {
		t.Error("tables differ between 1 and 4 workers")
	}
	if !reflect.DeepEqual(serial.Table.Schema, pooled.Table.Schema) {
		t.Errorf("schemas differ: %s vs %s", serial.Table.Schema, pooled.Table.Schema)
	}
	for i := range serial.Table.Rows {
		if !reflect.DeepEqual(serial.Table.RowLineage(i), pooled.Table.RowLineage(i)) {
			t.Errorf("lineage of row %d differs between 1 and 4 workers", i)
		}
	}
	if !reflect.DeepEqual(serial.Decisions, pooled.Decisions) {
		t.Error("decisions differ between 1 and 4 workers")
	}
	if serial.MaskedCells != pooled.MaskedCells || serial.SuppressedRows != pooled.SuppressedRows {
		t.Errorf("counters differ: masked %d/%d suppressed %d/%d",
			serial.MaskedCells, pooled.MaskedCells, serial.SuppressedRows, pooled.SuppressedRows)
	}
}

// TestRenderWorkerSiteHits counts consultations of the render.worker
// fault site: once for a render under minParallelRows or with one
// worker, once per chunk otherwise. Chaos replay schedules key on these
// call ordinals.
func TestRenderWorkerSiteHits(t *testing.T) {
	hits := func(rows, workers int) int {
		t.Helper()
		fi := fault.NewInjector(1)
		// A zero-length latency fire on every call records the call
		// without disturbing the render.
		fi.Enable(fault.SiteRenderWorker, fault.SiteConfig{LatencyRate: 1})
		e, def := bulkEnforcer(t, rows, Config{Workers: workers, Faults: fi})
		if _, err := e.Render(def, consumer()); err != nil {
			t.Fatal(err)
		}
		return fi.Counts()[fault.SiteRenderWorker]
	}
	if got := hits(minParallelRows-1, 4); got != 1 {
		t.Errorf("255 rows, 4 workers: %d hits, want 1", got)
	}
	if got := hits(8*minParallelRows, 1); got != 1 {
		t.Errorf("2048 rows, 1 worker: %d hits, want 1", got)
	}
	// 2048 rows over 4 workers: 16 chunks of 128 rows.
	if got := hits(8*minParallelRows, 4); got != 16 {
		t.Errorf("2048 rows, 4 workers: %d hits, want 16 (one per chunk)", got)
	}
}

// TestRenderedTableIsCallers: the table a render returns shares nothing
// mutable with the next render's — cells, schema and column origins can
// be overwritten freely.
func TestRenderedTableIsCallers(t *testing.T) {
	e, def := mixedEnforcer(t, 40, "", Config{})
	first, err := e.Render(def, consumer())
	if err != nil {
		t.Fatal(err)
	}
	want := first.Table.String()
	wantSchema := first.Table.Schema.String()
	wantOrigin := first.Table.ColumnOrigin(1).Normalize()[0]
	// Two rounds: each scribbles on the table the previous render returned.
	enf := first
	for round := 0; round < 2; round++ {
		enf.Table.Rows[0][1] = relation.Str("scribbled")
		enf.Table.Schema.Columns[1].Type = relation.TInt
		enf.Table.ColOrigin[1][0] = relation.ColRef{Table: "scribbled", Column: "scribbled"}
		if enf, err = e.Render(def, consumer()); err != nil {
			t.Fatal(err)
		}
		if got := enf.Table.String(); got != want {
			t.Fatalf("round %d: caller's writes reached the next render:\n%s", round, got)
		}
		if got := enf.Table.Schema.String(); got != wantSchema {
			t.Fatalf("round %d: schema %s, want %s", round, got, wantSchema)
		}
		if got := enf.Table.ColumnOrigin(1)[0]; got != wantOrigin {
			t.Fatalf("round %d: column origin %s, want %s", round, got, wantOrigin)
		}
	}
}

// TestBlockedRenderCopiesNoRow: a statically refused render returns the
// executed schema with zero rows without running the query, so what it
// allocates does not follow the table. Bytes, not objects: the vectorized
// kernel runs the whole query in a few dozen allocations.
func TestBlockedRenderCopiesNoRow(t *testing.T) {
	// refusalBytes is what 10 refused renders allocate over a table of rows
	// rows, on this goroutine alone.
	refusalBytes := func(rows int) uint64 {
		t.Helper()
		// A threshold over a non-aggregated report folds to a static block.
		e, def := mixedEnforcer(t, rows, `
pla "t" { owner "hospital"; level report; scope "mixed"; aggregate min 3 by patient; }
`, Config{})
		enf, err := e.Render(def, consumer())
		if err != nil {
			t.Fatal(err)
		}
		if len(Blocked(enf.Decisions)) == 0 {
			t.Fatalf("render not blocked: %v", enf.Decisions)
		}
		if enf.Table.NumRows() != 0 {
			t.Fatalf("blocked render carries %d rows", enf.Table.NumRows())
		}
		if got := enf.Table.Schema.String(); got != "(patient STRING, drug STRING, doctor STRING, date DATE)" {
			t.Fatalf("blocked render schema = %s", got)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if _, err := e.RenderContext(context.Background(), def, consumer()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := refusalBytes(100), refusalBytes(10000)
	t.Logf("10 refused renders: %d B over 100 rows, %d B over 10000", small, large)
	if large >= 64<<10 {
		t.Errorf("10 refused renders over 10000 rows allocate %d B; the query ran", large)
	}
	if large > 2*small {
		t.Errorf("refused renders allocate %d B over 10000 rows, %d B over 100: the cost follows the table", large, small)
	}
}

// TestConditionallyMaskedColumnTypedString: a column in which the render
// withheld at least one cell holds placeholders and is typed STRING,
// exactly as a denied column is; a render that withholds nothing in it
// keeps the executed type.
func TestConditionallyMaskedColumnTypedString(t *testing.T) {
	plas := `
pla "r" { owner "hospital"; level report; scope "rx-dates";
    allow attribute date to roles analyst when disease <> 'HIV';
    allow attribute drug to roles analyst;
}
pla "s" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
`
	e, _ := enforcerWith(t, plas)
	// DH is the HIV drug of the Fig. 4 fixture: its 20 dates are withheld.
	def := &report.Definition{ID: "rx-dates",
		Query: "SELECT date, drug FROM prescriptions WHERE drug IN ('DH','DM') ORDER BY drug"}
	for pass := 0; pass < 2; pass++ { // second pass renders from the cached plan
		enf, err := e.Render(def, report.Consumer{Role: "analyst"})
		if err != nil {
			t.Fatal(err)
		}
		if enf.MaskedCells != 20 {
			t.Fatalf("pass %d: masked = %d, want 20", pass, enf.MaskedCells)
		}
		if got := enf.Table.Schema.String(); got != "(date STRING, drug STRING)" {
			t.Errorf("pass %d: schema %s carries placeholders under a non-STRING column", pass, got)
		}
	}
	// No HIV row selected: nothing withheld, the column stays a DATE.
	clear := &report.Definition{ID: "rx-dates", Version: 1,
		Query: "SELECT date, drug FROM prescriptions WHERE drug = 'DM'"}
	enf, err := e.Render(clear, report.Consumer{Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	if got := enf.Table.Schema.String(); enf.MaskedCells != 0 || got != "(date DATE, drug STRING)" {
		t.Errorf("unmasked render: masked=%d schema %s", enf.MaskedCells, got)
	}
}

// TestPlanBuildFailsAsTheRenderWould: a definition the executor rejects —
// here a predicate column no FROM relation carries, which the executor
// only trips over once a row reaches it — has no plan: the static check
// and the render fail with the executor's error, whatever the table holds.
func TestPlanBuildFailsAsTheRenderWould(t *testing.T) {
	for _, rows := range []int{0, 10} {
		e, _ := mixedEnforcer(t, rows, "", Config{})
		def := &report.Definition{ID: "mixed", Query: "SELECT patient, drug FROM bulk WHERE nope = 1"}
		_, err := e.StaticCheck(def, "analyst", "quality")
		if err == nil || !strings.Contains(err.Error(), `unknown column "nope"`) {
			t.Errorf("%d rows: static check error = %v", rows, err)
		}
		if _, rerr := e.Render(def, consumer()); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%d rows: render error = %v, static check's %v", rows, rerr, err)
		}
		if _, _, cerr := e.CompositeFor(def); cerr == nil {
			t.Errorf("%d rows: CompositeFor profiled the definition", rows)
		}
	}
}

// TestRenderRefusesSchemaDrift: the column plans are classified over the
// plan's header. A result of any other schema — a drift the generations
// failed to capture, simulated here — fails the render closed; it is not
// enforced with plans made for other columns.
func TestRenderRefusesSchemaDrift(t *testing.T) {
	e, def := mixedEnforcer(t, 10, "", Config{})
	if _, err := e.Render(def, consumer()); err != nil {
		t.Fatal(err)
	}
	plan, hit, err := e.ProgramFor(def, "analyst", "quality")
	if err != nil || !hit {
		t.Fatalf("plan: hit=%v err=%v", hit, err)
	}
	// The plan forgets its denied column.
	plan.header.Schema.Columns = append(plan.header.Schema.Columns[:2], plan.header.Schema.Columns[3])
	plan.Columns = append(plan.Columns[:2], plan.Columns[3])
	enf, err := e.Render(def, consumer())
	if err == nil || !strings.Contains(err.Error(), "is not the plan's") {
		t.Fatalf("render over a drifted schema: %v, err = %v", enf, err)
	}
}
