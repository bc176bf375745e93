package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"plabi/internal/etl"
	"plabi/internal/fault"
	"plabi/internal/provenance"
	"plabi/internal/relation"
	"plabi/internal/relation/reltest"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

// verifyResident re-derives what renders have published for every
// registered table from the table itself: a write into a registered table
// fails the test here instead of reaching a report as a stale cell.
func verifyResident(t *testing.T, e *Engine) {
	t.Helper()
	for _, name := range e.Catalog.TableNames() {
		tb, _ := e.Catalog.Table(name)
		if err := reltest.VerifyResident(tb); err != nil {
			t.Error(err)
		}
	}
}

// TestRenderReadsTheRegisteredVersion: the stored vectors and lineage
// columns belong to one version of a table. A committed delta registers a
// new version, which the next render reads; a rolled-back delta registers
// nothing, and the render after it reads the version before.
func TestRenderReadsTheRegisteredVersion(t *testing.T) {
	cfg := workload.DefaultConfig(5)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 600, 80, 20
	fi := fault.NewInjector(5)
	e, _, err := buildScenario(cfg, Config{Faults: fi}, nil)
	if err != nil {
		t.Fatal(err)
	}
	analyst := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	consumption := func() map[string]int64 {
		enf, err := e.Render("drug-consumption", analyst)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, r := range enf.Table.Rows {
			out[r[0].S] = r[1].I
		}
		return out
	}
	before := consumption()
	var from, to string
	rx := sourceTable(t, e, "hospital", "prescriptions")
	drugCol := rx.Schema.Index("drug")
	from = rx.Row(0)[drugCol].S
	for drug := range before {
		if drug != from && (to == "" || drug < to) {
			to = drug
		}
	}
	if before[from] < 2 || to == "" {
		t.Fatalf("fixture: %q has %d prescriptions, other drug %q", from, before[from], to)
	}
	moveRow0 := func(drug string) etl.Batch {
		vals := sourceTable(t, e, "hospital", "prescriptions").Row(0).Clone()
		vals[drugCol] = relation.Str(drug)
		return etl.Batch{Deltas: []etl.Delta{{Source: "hospital", Table: "prescriptions",
			Updates: []etl.RowUpdate{{Row: 0, Vals: vals}}}}}
	}

	if _, err := e.ApplyDelta(context.Background(), moveRow0(to)); err != nil {
		t.Fatal(err)
	}
	after := consumption()
	if after[from] != before[from]-1 || after[to] != before[to]+1 {
		t.Errorf("after moving one prescription %s→%s: %s %d→%d, %s %d→%d", from, to,
			from, before[from], after[from], to, before[to], after[to])
	}

	fi.Enable(fault.SiteETLDelta, fault.SiteConfig{ErrorRate: 1, Times: 1})
	if _, err := e.ApplyDelta(context.Background(), moveRow0(from)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("delta under an injected fault: %v", err)
	}
	if again := consumption(); again[from] != after[from] || again[to] != after[to] {
		t.Errorf("after a rolled-back delta: %s %d, %s %d; want %d, %d", from, again[from], to, again[to], after[from], after[to])
	}
	verifyResident(t, e)
}

// TestRendersDuringDeltas: renders run while insert, update and delete
// deltas commit. An insert grows the arrays of the versions the renders may
// be reading and hands each new version of rx_wide the grouping by drug of
// the one before, extended; an update or a delete copies them and renumbers
// the lineage ordinals past a removed row. Under -race no render reads what
// a commit writes; every render succeeds and equals the serial render of
// one committed snapshot, decisions included; every insert's version of
// rx_wide has its grouping when the delta returns — the serial render after
// each commit builds the grouping an update or a delete dropped — and every
// version left behind passes VerifyResident. An update or a delete carries
// no grouping, which every other delta, committed while the renderers wait,
// shows: the render after it builds one.
func TestRendersDuringDeltas(t *testing.T) {
	cfg := workload.DefaultConfig(8)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 600, 80, 20
	e, ds, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyst := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	committed := map[string]bool{renderKey(e, "drug-consumption", analyst): true} // publishes the first version's columns
	done := make(chan struct{})
	var wg sync.WaitGroup
	var gate sync.RWMutex // held by the writer while renders must wait
	seen := make([]map[string]bool, 3)
	for w := range seen {
		seen[w] = map[string]bool{}
		wg.Add(1)
		go func(seen map[string]bool) {
			defer wg.Done()
			for {
				gate.RLock()
				seen[renderKey(e, "drug-consumption", analyst)] = true
				gate.RUnlock()
				select {
				case <-done:
					return
				default:
				}
			}
		}(seen[w])
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		d := etl.Delta{Source: "hospital", Table: "prescriptions"}
		n := sourceTable(t, e, "hospital", "prescriptions").NumRows()
		switch i % 5 {
		case 2:
			d.Updates = []etl.RowUpdate{{Row: rng.Intn(n), Vals: randRxRow(rng, ds, 10*i)}}
		case 4:
			d.Deletes = []int{rng.Intn(n)}
		default:
			for j := 0; j < 5; j++ {
				d.Inserts = append(d.Inserts, randRxRow(rng, ds, 10*i+j))
			}
		}
		gated := i%2 == 1
		if gated {
			gate.Lock()
		}
		_, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{d}})
		wide, _ := e.Catalog.Table("rx_wide")
		carried := publishedGrouping(wide, "drug") != 0
		if gated {
			gate.Unlock()
		}
		if err != nil {
			t.Fatal(err)
		}
		// With the renderers waiting, nothing but the commit can have
		// published a grouping on the new version.
		if insert := len(d.Inserts) > 0; insert && !carried || gated && !insert && carried {
			t.Fatalf("delta %d (insert %v): the new version of rx_wide carried a grouping by drug: %v", i, insert, carried)
		}
		committed[renderKey(e, "drug-consumption", analyst)] = true
		if publishedGrouping(wide, "drug") == 0 {
			t.Errorf("the render after delta %d published no grouping of rx_wide by drug", i)
		}
	}
	close(done)
	wg.Wait()
	for w := range seen {
		for key := range seen[w] {
			if !committed[key] {
				t.Errorf("renderer %d released a render no committed snapshot gives:\n%s", w, key)
			}
		}
	}
	verifyResident(t, e)
}

// TestConcurrentFirstRendersShareVectors: goroutines racing to be the first
// reader of a fresh engine's wide table all read one vector per column —
// the stored table's own; no reader builds one. Their grouped renders by
// drug race to build the version's grouping: one is published, and the
// renders after read it instead of building another.
func TestConcurrentFirstRendersShareVectors(t *testing.T) {
	e := buildConcurrencyEngine(t, Config{})
	wide, ok := e.Catalog.Table("rx_wide")
	if !ok {
		t.Fatal("no rx_wide")
	}
	analyst := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	const workers = 8
	seen := make([][]*relation.Vector, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, id := range []string{"drug-consumption", "age-profile"} {
				if _, err := e.Render(id, analyst); err != nil {
					t.Error(err)
					return
				}
			}
			b := relation.NewBatch(wide)
			for ci := 0; ci < wide.Schema.Len(); ci++ {
				v, err := b.Col(ci)
				if err != nil {
					t.Error(err)
					return
				}
				seen[w] = append(seen[w], v)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for ci := range seen[w] {
			if len(seen[0]) != len(seen[w]) || seen[w][ci] != seen[0][ci] {
				t.Fatalf("worker %d read its own vector of column %d", w, ci)
			}
		}
	}
	g := publishedGrouping(wide, "drug")
	if g == 0 {
		t.Fatal("the grouped renders published no grouping of rx_wide.drug")
	}
	for _, id := range []string{"drug-consumption", "age-profile"} {
		if _, err := e.Render(id, analyst); err != nil {
			t.Fatal(err)
		}
	}
	if again := publishedGrouping(wide, "drug"); again != g {
		t.Errorf("a render after the race published grouping %#x over %#x", again, g)
	}
	verifyResident(t, e)
}

// TestRebuildKeepsDictionary: the distinct-support dictionary belongs to a
// version of a base table. A RunETL over unchanged sources registers the
// same versions again, so the render after it reads the dictionary the
// render before published. A delta that updates and deletes patients
// carries it to the new version, which then counts what a dictionary built
// from that version counts.
func TestRebuildKeepsDictionary(t *testing.T) {
	cfg := workload.DefaultConfig(9)
	cfg.Prescriptions, cfg.Patients, cfg.LabResults = 600, 80, 20
	e, _, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyst := report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	dict := func() []int32 {
		rx, _ := e.Catalog.Table("prescriptions")
		codes, _, ok := rx.DistinctCodes(rx.Schema.Index("patient"))
		if !ok || len(codes) == 0 {
			t.Fatal("prescriptions.patient has no dictionary")
		}
		return codes
	}
	first := renderKey(e, "drug-consumption", analyst)
	before := dict()
	if _, err := e.RunETL(HealthcarePipeline(e), false); err != nil {
		t.Fatal(err)
	}
	if after := dict(); &after[0] != &before[0] {
		t.Error("a RunETL over unchanged sources rebuilt the prescriptions dictionary")
	}
	if again := renderKey(e, "drug-consumption", analyst); again != first {
		t.Errorf("render after the rebuild:\n%s\nbefore it:\n%s", again, first)
	}

	rx := sourceTable(t, e, "hospital", "prescriptions")
	pc := rx.Schema.Index("patient")
	stranger, known := rx.Row(1).Clone(), rx.Row(2).Clone()
	stranger[pc], known[pc] = relation.Str("Nobody Of Nowhere"), rx.Row(5)[pc]
	if _, err := e.ApplyDelta(context.Background(), etl.Batch{Deltas: []etl.Delta{{Source: "hospital", Table: "prescriptions",
		Updates: []etl.RowUpdate{{Row: 1, Vals: stranger}, {Row: 2, Vals: known}},
		Deletes: []int{0, 7, rx.NumRows() - 1}}}}); err != nil {
		t.Fatal(err)
	}
	snap := e.Catalog.Snapshot()
	next, _ := snap.Table("prescriptions")
	unfrozen := sql.NewCatalog()
	unfrozen.Register(next.Clone())
	live, fresh := provenance.Over(snap), provenance.Over(unfrozen)
	def, _ := e.Reports.Get("drug-consumption")
	sel, err := def.Parse()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := snap.Exec(sel)
	if err != nil || raw.NumRows() == 0 {
		t.Fatalf("raw drug-consumption: %v", err)
	}
	for i := 0; i < raw.NumRows(); i++ {
		rt, err := live.TraceRow(raw, i)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := live.DistinctSupport(rt, "prescriptions", "patient"), fresh.DistinctSupport(rt, "prescriptions", "patient"); got != want {
			t.Errorf("group %d: %d distinct patients, a fresh dictionary %d", i, got, want)
		}
	}
	verifyResident(t, e)
}
