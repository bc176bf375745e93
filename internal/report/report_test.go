package report

import (
	"strings"
	"testing"

	"plabi/internal/sql"
	"plabi/internal/workload"
)

func catalog() *sql.Catalog {
	c := sql.NewCatalog()
	c.Register(workload.PrescriptionsFixture())
	c.Register(workload.DrugCostFixture())
	return c
}

func drugConsumption() *Definition {
	return &Definition{
		ID:      "drug-consumption",
		Title:   "Drug consumption",
		Query:   "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug ORDER BY drug",
		Roles:   []string{"analyst"},
		Purpose: "quality",
	}
}

func TestCreateAndRender(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(drugConsumption()); err != nil {
		t.Fatal(err)
	}
	d, ok := r.Get("drug-consumption")
	if !ok || d.Version != 1 {
		t.Fatalf("get = %v %v", d, ok)
	}
	res, err := d.Render(catalog())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 || res.Name != "drug-consumption" {
		t.Errorf("res = %v", res)
	}
	out := FormatTable(d.Title, res)
	if !strings.Contains(out, "Drug consumption") || !strings.Contains(out, "DR") {
		t.Errorf("formatted = %s", out)
	}
}

func TestCreateValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(&Definition{ID: "", Query: "SELECT 1 FROM t"}); err == nil {
		t.Error("empty id must fail")
	}
	if err := r.Create(&Definition{ID: "x", Query: "NOT SQL"}); err == nil {
		t.Error("bad query must fail")
	}
	if err := r.Create(drugConsumption()); err != nil {
		t.Fatal(err)
	}
	if err := r.Create(drugConsumption()); err == nil {
		t.Error("duplicate must fail")
	}
}

func TestAddRemoveColumn(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(drugConsumption()); err != nil {
		t.Fatal(err)
	}
	if err := r.AddColumn("drug-consumption", "COUNT(DISTINCT patient)", "patients"); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Get("drug-consumption")
	if d.Version != 2 || !strings.Contains(d.Query, "patients") {
		t.Errorf("after add: v%d %q", d.Version, d.Query)
	}
	res, err := d.Render(catalog())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schema.HasColumn("patients") {
		t.Errorf("schema = %s", res.Schema)
	}
	if err := r.RemoveColumn("drug-consumption", "patients"); err != nil {
		t.Fatal(err)
	}
	d, _ = r.Get("drug-consumption")
	if d.Version != 3 || strings.Contains(d.Query, "patients") {
		t.Errorf("after remove: %q", d.Query)
	}
	if err := r.RemoveColumn("drug-consumption", "ghost"); err == nil {
		t.Error("removing unknown column must fail")
	}
}

func TestRemoveLastColumnFails(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(&Definition{ID: "one", Query: "SELECT drug FROM prescriptions"}); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveColumn("one", "drug"); err == nil {
		t.Error("must not remove last column")
	}
}

func TestRemoveColumnDropsOrderBy(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(&Definition{ID: "x",
		Query: "SELECT drug, disease FROM prescriptions ORDER BY disease"}); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveColumn("x", "disease"); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Get("x")
	if strings.Contains(strings.ToUpper(d.Query), "ORDER BY") {
		t.Errorf("ORDER BY not dropped: %q", d.Query)
	}
	if _, err := d.Render(catalog()); err != nil {
		t.Errorf("mutated query does not run: %v", err)
	}
}

func TestSetFilter(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(drugConsumption()); err != nil {
		t.Fatal(err)
	}
	if err := r.SetFilter("drug-consumption", "disease = 'asthma'"); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Get("drug-consumption")
	res, err := d.Render(catalog())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Get(0, "drug").S != "DR" {
		t.Errorf("filtered = %v", res)
	}
	if err := r.SetFilter("drug-consumption", ""); err != nil {
		t.Fatal(err)
	}
	d, _ = r.Get("drug-consumption")
	if strings.Contains(strings.ToUpper(d.Query), "WHERE") {
		t.Errorf("filter not cleared: %q", d.Query)
	}
	if err := r.SetFilter("drug-consumption", "((("); err == nil {
		t.Error("bad filter must fail")
	}
}

func TestSetGrouping(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(&Definition{ID: "g",
		Query: "SELECT disease, COUNT(*) AS n FROM prescriptions GROUP BY disease"}); err != nil {
		t.Fatal(err)
	}
	// Regroup by drug: must also adjust the select list first.
	if err := r.RemoveColumn("g", "disease"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddColumn("g", "drug", ""); err != nil {
		t.Fatal(err)
	}
	if err := r.SetGrouping("g", []string{"drug"}); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Get("g")
	res, err := d.Render(catalog())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Errorf("groups = %d (%q)", res.NumRows(), d.Query)
	}
}

func TestEventsLog(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(drugConsumption()); err != nil {
		t.Fatal(err)
	}
	if err := r.AddColumn("drug-consumption", "COUNT(DISTINCT patient)", "p"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("drug-consumption"); err != nil {
		t.Fatal(err)
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d", len(ev))
	}
	kinds := []EventKind{EvCreate, EvAddColumn, EvDelete}
	for i, k := range kinds {
		if ev[i].Kind != k || ev[i].Seq != i {
			t.Errorf("event %d = %v", i, ev[i])
		}
	}
	if EvChangeFilter.String() != "change-filter" {
		t.Errorf("kind name = %s", EvChangeFilter)
	}
}

func TestDeleteUnknown(t *testing.T) {
	r := NewRegistry()
	if err := r.Delete("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestAll(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"b", "a", "c"} {
		if err := r.Create(&Definition{ID: id, Query: "SELECT drug FROM prescriptions"}); err != nil {
			t.Fatal(err)
		}
	}
	all := r.All()
	if len(all) != 3 || all[0].ID != "a" || all[2].ID != "c" {
		t.Errorf("all = %v", all)
	}
}

func TestMutationKeepsQueriesRunnable(t *testing.T) {
	// Every mutation must leave a parseable, executable query behind.
	r := NewRegistry()
	if err := r.Create(&Definition{ID: "m",
		Query: "SELECT drug, COUNT(*) AS n FROM prescriptions WHERE disease <> 'HIV' GROUP BY drug HAVING n >= 1 ORDER BY n DESC LIMIT 10"}); err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return r.AddColumn("m", "MIN(date)", "first_seen") },
		func() error { return r.SetFilter("m", "disease = 'asthma'") },
		func() error { return r.RemoveColumn("m", "first_seen") },
		func() error { return r.SetGrouping("m", []string{"drug"}) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		d, _ := r.Get("m")
		if _, err := d.Render(catalog()); err != nil {
			t.Fatalf("step %d left broken query %q: %v", i, d.Query, err)
		}
	}
	d, _ := r.Get("m")
	if d.Version != 5 {
		t.Errorf("version = %d", d.Version)
	}
}
