package sql

import (
	"reflect"
	"testing"

	"plabi/internal/obs"
	"plabi/internal/relation"
)

// checkHeaderIsExecuted asserts Header(sel) is Exec(sel).Shell(): the name,
// the schema with its types, the column origins and the base flag the
// executor produced over the data, and no rows.
func checkHeaderIsExecuted(t *testing.T, c *Catalog, q string) {
	t.Helper()
	sel, err := ParseSelect(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	res, err := c.Exec(sel)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	want := res.Shell()
	got, err := c.Snapshot().Header(sel)
	if err != nil {
		t.Fatalf("Header(%q): %v", q, err)
	}
	if got.NumRows() != 0 {
		t.Errorf("Header(%q) carries %d rows", q, got.NumRows())
	}
	if got.Name != want.Name || got.Base != want.Base {
		t.Errorf("Header(%q) = %q base=%v, executed %q base=%v", q, got.Name, got.Base, want.Name, want.Base)
	}
	if g, w := got.Schema.String(), want.Schema.String(); g != w {
		t.Errorf("Header(%q) schema = %s, executed %s", q, g, w)
	}
	if !reflect.DeepEqual(got.ColOrigin, want.ColOrigin) {
		t.Errorf("Header(%q) origins = %v, executed %v", q, got.ColOrigin, want.ColOrigin)
	}

	// The profile carries the header of its own executor pass: the one plan
	// builds take instead of running Header again.
	prof, err := ProfileQuery(c, sel)
	if err != nil {
		t.Fatalf("ProfileQuery(%q): %v", q, err)
	}
	ph := prof.Header
	if ph.NumRows() != 0 || ph.Name != got.Name || ph.Base != got.Base {
		t.Errorf("profile header of %q = %q base=%v with %d rows, Header's %q base=%v", q, ph.Name, ph.Base, ph.NumRows(), got.Name, got.Base)
	}
	if g, w := ph.Schema.String(), got.Schema.String(); g != w {
		t.Errorf("profile header of %q schema = %s, Header's %s", q, g, w)
	}
	for ci := range got.Schema.Columns {
		if g, w := ph.ColumnOrigin(ci), got.ColumnOrigin(ci); !reflect.DeepEqual(g, w) {
			t.Errorf("profile header of %q column %d origins = %v, Header's %v", q, ci, g, w)
		}
	}
}

// TestHeaderIsExecutedHeader: the shapes where a second type inferencer
// would drift from the executor.
func TestHeaderIsExecutedHeader(t *testing.T) {
	c := testCatalog()
	for _, v := range []string{
		"CREATE VIEW hiv AS SELECT patient, drug, date FROM prescriptions WHERE disease = 'HIV'",
		"CREATE VIEW hivcost AS SELECT h.patient, h.drug, d.cost FROM hiv h JOIN drugcost d ON h.drug = d.drug",
		"CREATE VIEW total AS SELECT COUNT(*) AS n, SUM(cost) AS spend FROM drugcost",
	} {
		if _, err := c.Run(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		// Join with a WHERE conjunct pushed below it on each side.
		"SELECT p.patient, d.cost, d.cost * 2 AS dbl FROM prescriptions p JOIN drugcost d ON p.drug = d.drug WHERE d.cost > 20 AND p.disease = 'HIV'",
		"SELECT p.patient, d.cost FROM prescriptions p LEFT JOIN drugcost d ON p.drug = d.drug WHERE d.cost > 20",
		"SELECT * FROM prescriptions p JOIN drugcost d ON p.drug = d.drug",
		// Computed group key (_gk0) and computed aggregate argument.
		"SELECT YEAR(date) AS y, COUNT(*) AS n, AVG(cost) AS mean, SUM(cost * 2) AS dbl FROM prescriptions p JOIN drugcost d ON p.drug = d.drug GROUP BY YEAR(date) HAVING n > 0",
		// Aggregates with no GROUP BY: one row over empty input, none here.
		"SELECT COUNT(*) AS n, MIN(date) AS first, MAX(cost) AS top, COUNT(DISTINCT patient) AS patients FROM prescriptions p JOIN drugcost d ON p.drug = d.drug",
		"SELECT n, spend FROM total",
		// SELECT * through a view over a view.
		"SELECT * FROM hivcost",
		"SELECT * FROM hivcost x JOIN hiv y ON x.patient = y.patient",
		"SELECT DISTINCT drug FROM prescriptions ORDER BY drug DESC LIMIT 2",
		"SELECT patient, date FROM prescriptions ORDER BY date LIMIT 0",
	} {
		checkHeaderIsExecuted(t, c, q)
	}
}

// TestHeaderFailsWhereExecFails: a definition error is the executor's, so
// Header reports it in Exec's words. (An unknown column inside a predicate
// is not one: relation raises it evaluating a row, so Exec over an empty
// table passes it too.)
func TestHeaderFailsWhereExecFails(t *testing.T) {
	c := testCatalog()
	for _, v := range []string{
		"CREATE VIEW a AS SELECT * FROM b",
		"CREATE VIEW b AS SELECT * FROM a",
		"CREATE VIEW broken AS SELECT nope FROM prescriptions",
	} {
		if _, err := c.Run(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT x FROM nowhere",
		"SELECT p.patient FROM prescriptions p JOIN nowhere n ON p.drug = n.drug",
		"SELECT nope FROM prescriptions",
		"SELECT patient FROM prescriptions ORDER BY nope",
		"SELECT patient, COUNT(*) AS n FROM prescriptions GROUP BY drug",
		"SELECT patient || drug AS k, COUNT(*) AS n FROM prescriptions GROUP BY drug",
		"SELECT * FROM a",
		"SELECT patient FROM broken",
	} {
		sel, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		_, execErr := c.Exec(sel)
		if execErr == nil {
			t.Fatalf("Exec(%q) succeeded; the case pins nothing", q)
		}
		_, err = c.Snapshot().Header(sel)
		if err == nil || err.Error() != execErr.Error() {
			t.Errorf("Header(%q) error = %v, Exec's is %v", q, err, execErr)
		}
	}
}

// TestHeaderReadsNoPartition: over a segment-backed table the header is
// answered from the schema — no partition read, no materialization cached.
func TestHeaderReadsNoPartition(t *testing.T) {
	c := testCatalog()
	p, _ := c.Table("prescriptions")
	m := obs.New()
	store := relation.NewSegmentStore(t.TempDir())
	store.SetPartitionRows(2)
	store.SetMetrics(m)
	spilled, err := store.Spill(p)
	if err != nil {
		t.Fatal(err)
	}
	c.Register(spilled)
	const q = "SELECT patient, COUNT(*) AS n FROM prescriptions WHERE disease = 'HIV' GROUP BY patient ORDER BY patient"
	sel, err := ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Snapshot().Header(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Schema.String(); got != "(patient STRING, n INT)" {
		t.Errorf("header schema = %s", got)
	}
	if got := m.Counter("segment.read.partitions").Value(); got != 0 {
		t.Errorf("Header read %d partitions", got)
	}
	checkHeaderIsExecuted(t, c, q)
	if got := m.Counter("segment.read.partitions").Value(); got == 0 {
		t.Error("Exec over the spilled table read no partition; the counter pins nothing")
	}
}
