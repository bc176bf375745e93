package audit

import (
	"bytes"
	"strings"
	"testing"

	"plabi/internal/enforce"
	"plabi/internal/policy"
	"plabi/internal/provenance"
	"plabi/internal/relation"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

func TestLogAppendAndQuery(t *testing.T) {
	l := NewLog()
	l.Append(Event{Kind: "extract", Object: "prescriptions"})
	l.Append(Event{Kind: "render", Actor: "analyst", Object: "drug-consumption"})
	l.Decision("analyst", "drug-consumption", enforce.Decision{
		Outcome: enforce.Mask, Rule: "access-deny", Subject: "patient",
	})
	l.Decision("analyst", "joined", enforce.Decision{
		Outcome: enforce.Block, Rule: "join-permission", Subject: "a JOIN b",
	})
	if l.Len() != 4 {
		t.Fatalf("len = %d", l.Len())
	}
	ev := l.Events()
	for i, e := range ev {
		if e.Seq != i {
			t.Errorf("seq %d = %d", i, e.Seq)
		}
	}
	if got := l.Violations(); len(got) != 1 || got[0].Outcome != "block" {
		t.Errorf("violations = %v", got)
	}
	if got := l.ByKind("render"); len(got) != 1 {
		t.Errorf("renders = %v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := NewLog()
	l.Append(Event{Kind: "extract", Object: "prescriptions", Detail: "5 rows"})
	l.Decision("ana", "rep", enforce.Decision{
		Outcome: enforce.Mask, Rule: "condition", Subject: "cell",
		Evidence: []string{"prescriptions#0 fails (disease <> 'HIV')"},
	})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("len = %d", got.Len())
	}
	ev := got.Events()
	if ev[0].Object != "prescriptions" || !strings.Contains(ev[1].Detail, "HIV") {
		t.Errorf("events = %v", ev)
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Error("expected parse error")
	}
	l, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || l.Len() != 0 {
		t.Errorf("blank input: %v %d", err, l.Len())
	}
}

func TestResolveDispute(t *testing.T) {
	// Build a tiny render: drug consumption over the paper fixture.
	pres := workload.PrescriptionsFixture()
	cat := sql.NewCatalog()
	cat.Register(pres)
	grouped, err := relation.GroupBy(pres, []string{"drug"}, []relation.AggSpec{{Kind: relation.AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	grouped.Name = "drug-consumption"

	g := provenance.NewGraph()
	g.AddStep("extract", []string{"hospital.prescriptions"}, "prescriptions", "", 5, 5)
	g.AddStep("aggregate", []string{"prescriptions"}, "drug-consumption", "", 5, 4)

	reg := policy.NewRegistry()
	pla, err := policy.ParseOne(`pla "hospital-prescriptions" {
		owner "hospital"; level source; scope "prescriptions"; allow attribute drug;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(pla); err != nil {
		t.Fatal(err)
	}

	a := &Auditor{Registry: reg, Catalog: cat, Graph: g}
	// Find the DR row (count 2).
	drRow := -1
	for i := range grouped.NumRows() {
		if grouped.Get(i, "drug").S == "DR" {
			drRow = i
		}
	}
	d, err := a.ResolveDispute(grouped, drRow, "n")
	if err != nil {
		t.Fatal(err)
	}
	if d.Value.I != 2 {
		t.Errorf("value = %v", d.Value)
	}
	if len(d.PLAs["prescriptions"]) != 1 || d.PLAs["prescriptions"][0] != "hospital-prescriptions" {
		t.Errorf("plas = %v", d.PLAs)
	}
	if len(d.Transformations) != 2 {
		t.Errorf("transformations = %v", d.Transformations)
	}
	s := d.String()
	if !strings.Contains(s, "drug-consumption") || !strings.Contains(s, "hospital-prescriptions") {
		t.Errorf("dispute string = %s", s)
	}
	// Unknown column errors.
	if _, err := a.ResolveDispute(grouped, 0, "ghost"); err == nil {
		t.Error("expected error")
	}
}

// TestDisputeReportListsTablesSorted: the governing PLAs print one line
// per table in table order, so the same dispute always prints the same
// text (it ranged over the map, in an order that changed from call to
// call).
func TestDisputeReportListsTablesSorted(t *testing.T) {
	d := &DisputeReport{Report: "r", Column: "c", PLAs: map[string][]string{
		"residents":     {"pla-m"},
		"drugcost":      {"pla-a", "pla-b"},
		"prescriptions": {"pla-h"},
		"familydoctor":  {"pla-f"},
		"labresults":    {"pla-l"},
	}}
	want := "  governing PLAs:\n" +
		"    drugcost: pla-a, pla-b\n" +
		"    familydoctor: pla-f\n" +
		"    labresults: pla-l\n" +
		"    prescriptions: pla-h\n" +
		"    residents: pla-m\n"
	for range 20 {
		if got := d.String(); !strings.HasSuffix(got, want) {
			t.Fatalf("String() =\n%s\nwant it to end with\n%s", got, want)
		}
	}
}
