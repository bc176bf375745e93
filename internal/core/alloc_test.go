package core

import (
	"runtime"
	"testing"
	"unsafe"

	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// TestGroupedRenderAllocationBudget: a render of the flagship report —
// GROUP BY drug over rx_wide, under a distinct-patients threshold —
// allocates well under what one RowRef per lineage ref of its groups would
// cost. Group lineage stays packed per base table from the GROUP BY to the
// delivered table, and the threshold counts it where it lies; a render that
// wrote the refs out again would spend about that much more. The renders run
// on one P, after warm-up renders have published the plan, the resident
// columns and the dictionaries.
func TestGroupedRenderAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := workload.DefaultConfig(5)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 20000, 2000, 100
	e, _, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyst := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	render := func() {
		enf, err := e.Render("drug-consumption", analyst)
		if err != nil || enf.Table.NumRows() == 0 {
			t.Fatalf("render: %v, %d rows", err, enf.Table.NumRows())
		}
	}
	for i := 0; i < 3; i++ {
		render()
	}
	def, _ := e.Reports.Get("drug-consumption")
	sel, err := def.Parse()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := e.Catalog.Exec(sel)
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for i := 0; i < raw.NumRows(); i++ {
		refs += len(raw.RowLineage(i))
	}

	const renders = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < renders; i++ {
		render()
	}
	runtime.ReadMemStats(&after)
	perRender := (after.TotalAlloc - before.TotalAlloc) / renders
	arena := uint64(refs) * uint64(unsafe.Sizeof(relation.RowRef{}))
	t.Logf("%d lineage refs in %d groups (%d bytes as RowRefs); a render allocates %d bytes", refs, raw.NumRows(), arena, perRender)
	if perRender > arena/2 {
		t.Errorf("a grouped render allocated %d bytes, more than half of the %d its %d lineage refs take as RowRefs", perRender, arena, refs)
	}
}
