package enforce_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"plabi/internal/compile"
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
// the readers of the plan's one column classification agree. The static
// check's mask decisions and the program's column plans name the same
// masked columns, rules and PLAs; the column plans classified over the
// plan's header are the ones the executed result's own schema and origins
// classify to; and the query profile — what lint, diff and containment
// read — resolves every non-aggregate output column to the origins the
// executed result carries. pladiff's validator stays the independent
// oracle of the classification itself.
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
				static, cols, err := e.Enforcer().ClassificationReaders(def, role, def.Purpose)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", bundle, def.ID, role, err)
				}
				var fromStatic, fromProgram []compile.ColumnPlan
				for _, d := range static {
					if d.Outcome == enforce.Mask {
						fromStatic = append(fromStatic, compile.ColumnPlan{Name: d.Subject, Masked: true, Rule: d.Rule, PLAs: d.PLAs})
					}
				}
				for ci, c := range cols {
					columns++
					if c.Program.Masked {
						fromProgram = append(fromProgram, c.Program)
					}
					if !c.Program.Aggregate && !reflect.DeepEqual(prof.OutputNames[c.Program.Name], raw.ColumnOrigin(ci)) {
						otherOrigins++
						t.Errorf("%s %s: column %s profiles to %v, executes to %v", bundle, def.ID,
							c.Program.Name, prof.OutputNames[c.Program.Name], raw.ColumnOrigin(ci))
					}
					if !reflect.DeepEqual(c.Program, c.Runtime) {
						t.Errorf("%s %s/%s: program column %+v, runtime column plan %+v", bundle, def.ID, role, c.Program, c.Runtime)
					}
					if c.Runtime.Masked {
						masked++
					}
					if len(c.Runtime.Conditions) > 0 {
						conditional++
					}
				}
				if !reflect.DeepEqual(fromStatic, fromProgram) {
					t.Errorf("%s %s/%s: static masks %+v, program masks %+v", bundle, def.ID, role, fromStatic, fromProgram)
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
