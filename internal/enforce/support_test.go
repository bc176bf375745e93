package enforce

import (
	"strings"
	"testing"

	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// TestBylessThresholdCountsOneTable: a threshold without `by` counts the
// rows of the one base table that gives a group the most, never a row's
// join partners. A group built from one visit joined to its drug and its
// ward has one row of support, not three.
func TestBylessThresholdCountsOneTable(t *testing.T) {
	str := relation.Str
	visits := relation.NewBase("visits", relation.NewSchema(
		relation.Col("id", relation.TInt), relation.Col("drug", relation.TString), relation.Col("ward", relation.TString)))
	for i, v := range [][2]string{{"DA", "w1"}, {"DA", "w2"}, {"DA", "w1"}, {"DB", "w2"}} {
		visits.AppendVals(relation.Int(int64(i)), str(v[0]), str(v[1]))
	}
	drugs := relation.NewBase("drugs", relation.NewSchema(relation.Col("drug", relation.TString), relation.Col("class", relation.TString)))
	drugs.AppendVals(str("DA"), str("common"))
	drugs.AppendVals(str("DB"), str("rare"))
	wards := relation.NewBase("wards", relation.NewSchema(relation.Col("ward", relation.TString), relation.Col("floor", relation.TInt)))
	wards.AppendVals(str("w1"), relation.Int(1))
	wards.AppendVals(str("w2"), relation.Int(2))
	cat := sql.NewCatalog()
	cat.Register(visits, drugs, wards)
	reg := registryWith(t, `
pla "by-class" { owner "clinic"; level report; scope "by-class";
    allow attribute class to roles analyst;
    aggregate min 2;
}
pla "visits" { owner "clinic"; level source; scope "visits"; allow attribute *; }
pla "drugs" { owner "agency"; level source; scope "drugs"; allow attribute *; }
pla "wards" { owner "clinic"; level source; scope "wards"; allow attribute *; }
`)
	e := NewReportEnforcer(reg, cat, Config{})
	def := &report.Definition{ID: "by-class", Query: "SELECT d.class, COUNT(*) AS n FROM visits v " +
		"JOIN drugs d ON v.drug = d.drug JOIN wards w ON v.ward = w.ward GROUP BY d.class ORDER BY class"}
	enf, err := e.Render(def, report.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatal(err)
	}
	if enf.SuppressedRows != 1 || enf.Table.NumRows() != 1 || enf.Table.Get(0, "class").S != "common" {
		t.Fatalf("suppressed %d, released:\n%s\nwant the rare class (one visit) suppressed", enf.SuppressedRows, enf.Table)
	}
	var detail string
	for _, d := range enf.Decisions {
		if d.Rule == "aggregation-threshold" {
			detail = d.Detail + " " + strings.Join(d.Evidence, " ")
		}
	}
	if want := `support 1 < min 2 (by "") drugs#1 visits#3 wards#1`; detail != want {
		t.Errorf("threshold decision %q, want %q", detail, want)
	}
}
