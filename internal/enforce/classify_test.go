package enforce_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"plabi/internal/core"
	"plabi/internal/enforce"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

// baseReports read the source tables directly; the scenario's own
// portfolio reads the rx_wide staging table, a registered derived table
// with qualified column names.
var baseReports = []*report.Definition{
	{ID: "rx-lines", Purpose: "quality",
		Query: "SELECT patient, doctor, drug, date FROM prescriptions ORDER BY patient"},
	{ID: "rx-by-disease", Purpose: "quality",
		Query: "SELECT disease, COUNT(*) AS n FROM prescriptions GROUP BY disease"},
	{ID: "resident-ages", Purpose: "quality",
		Query: "SELECT patient, age, zip FROM residents"},
}

// TestOneClassificationThreeReaders: for every (report, role) of the
// healthcare scenario — bare and under every internal/diff corpus bundle —
// the readers of the program's one column classification agree. The
// static check's mask decisions are the masked columns' decisions, in
// order; the columns classified over the program's header are the ones the
// executed result's own schema and origins classify to; and the query
// profile — what lint, diff and containment read — resolves every
// non-aggregate output column to the origins the executed result carries.
// pladiff's validator stays the independent oracle of the classification
// itself.
func TestOneClassificationThreeReaders(t *testing.T) {
	bundles, err := filepath.Glob(filepath.Join("..", "diff", "testdata", "*.pla"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no corpus bundles: %v", err)
	}
	var columns, masked, conditional, otherOrigins int
	for _, bundle := range append([]string{""}, bundles...) {
		cfg := workload.DefaultConfig(1)
		cfg.Prescriptions = 60
		cfg.Patients = 20
		e, _, err := core.BuildHealthcareEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bundle != "" {
			src, err := os.ReadFile(bundle)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddPLAs(string(src)); err != nil {
				t.Fatalf("layer %s: %v", bundle, err)
			}
		}
		cat := e.Enforcer().Catalog
		for _, def := range append(e.Reports.All(), baseReports...) {
			prof, err := sql.ProfileSQL(cat, def.Query)
			if err != nil {
				t.Fatalf("%s %s: %v", bundle, def.ID, err)
			}
			raw, err := cat.Query(def.Query)
			if err != nil {
				t.Fatalf("%s %s: %v", bundle, def.ID, err)
			}
			for _, role := range []string{"analyst", "auditor", ""} {
				prog, executed, err := e.Enforcer().ClassificationReaders(def, role, def.Purpose)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", bundle, def.ID, role, err)
				}
				if len(prog.Columns) != len(executed) {
					t.Fatalf("%s %s/%s: program classifies %d columns, the executed schema has %d",
						bundle, def.ID, role, len(prog.Columns), len(executed))
				}
				var fromStatic, fromColumns []enforce.Decision
				for _, d := range prog.Static {
					if d.Outcome == enforce.Mask {
						fromStatic = append(fromStatic, d)
					}
				}
				for ci, c := range prog.Columns {
					columns++
					if c.Masked {
						fromColumns = append(fromColumns, c.Decision)
						masked++
					}
					if len(c.Conditions) > 0 {
						conditional++
					}
					if !c.Aggregate && !reflect.DeepEqual(prof.OutputNames[c.Name], raw.ColumnOrigin(ci)) {
						otherOrigins++
						t.Errorf("%s %s: column %s profiles to %v, executes to %v", bundle, def.ID,
							c.Name, prof.OutputNames[c.Name], raw.ColumnOrigin(ci))
					}
					if !reflect.DeepEqual(c, executed[ci]) {
						t.Errorf("%s %s/%s: header column %+v, executed column %+v", bundle, def.ID, role, c, executed[ci])
					}
				}
				if !reflect.DeepEqual(fromStatic, fromColumns) {
					t.Errorf("%s %s/%s: static masks %+v, column masks %+v", bundle, def.ID, role, fromStatic, fromColumns)
				}
			}
		}
		e.Close()
	}
	t.Logf("%d columns classified (%d masked, %d conditional), %d from differing origins",
		columns, masked, conditional, otherOrigins)
	if masked == 0 || conditional == 0 {
		t.Fatalf("the columns exercise %d masks and %d conditions", masked, conditional)
	}
}
