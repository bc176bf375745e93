package lint_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plabi/internal/core"
	"plabi/internal/etl"
	"plabi/internal/lint"
	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// parseTestdata parses one corpus file with its repo-relative name so
// positions in golden files are stable.
func parseTestdata(t *testing.T, name string) []*policy.PLA {
	t.Helper()
	path := filepath.Join("testdata", name)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plas, err := policy.ParseFileNamed(path, string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return plas
}

// fixtureCatalog registers the workload fixture tables every
// catalog-based corpus case runs against.
func fixtureCatalog() *sql.Catalog {
	cat := sql.NewCatalog()
	for _, tb := range []*relation.Table{
		workload.PrescriptionsFixture(),
		workload.DrugCostFixture(),
		workload.FamilyDoctorFixture(),
	} {
		cat.Register(tb)
	}
	return cat
}

func fixturePipeline() *etl.Pipeline {
	hosp := etl.NewSource("hospital", "hospital", workload.PrescriptionsFixture())
	fam := etl.NewSource("familydoctors", "familydoctors", workload.FamilyDoctorFixture())
	return &etl.Pipeline{Name: "fixture", Steps: []etl.Step{
		etl.NewExtract("ext-prescriptions", hosp, "prescriptions", ""),
		etl.NewExtract("ext-familydoctor", fam, "familydoctor", ""),
		etl.NewJoin("join-fd", "prescriptions", "familydoctor",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "rx_fd"),
	}}
}

// corpusPass builds the pass for one corpus file: the parsed PLAs plus
// exactly the engine state the target analyzer needs.
func corpusPass(t *testing.T, name string) *lint.Pass {
	t.Helper()
	p := &lint.Pass{PLAs: parseTestdata(t, name)}
	switch strings.TrimSuffix(name, ".pla") {
	case "pl001", "pl002":
		// Agreement-only analyses: no engine state at all.
	case "pl003", "pl007":
		p.Catalog = fixtureCatalog()
	case "pl004":
		p.Catalog = fixtureCatalog()
		p.Reports = []*report.Definition{{
			ID: "rx-list", Title: "Prescription list",
			Query:   "SELECT patient, drug FROM prescriptions",
			Roles:   []string{"analyst"},
			Purpose: "quality",
		}}
	case "pl005":
		p.Catalog = fixtureCatalog()
		p.Reports = []*report.Definition{{
			ID: "drug-consumption", Title: "Drug consumption",
			Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug",
		}}
		p.Assign = map[string]string{"drug-consumption": "meta-1"}
	case "pl006":
		p.Catalog = fixtureCatalog()
		p.Pipelines = []*etl.Pipeline{fixturePipeline()}
	default:
		t.Fatalf("no pass fixture for %s", name)
	}
	return p
}

var corpus = []string{
	"pl001.pla", "pl002.pla", "pl003.pla", "pl004.pla",
	"pl005.pla", "pl006.pla", "pl007.pla",
}

// TestGoldenCorpus proves each analyzer detects its finding class, with
// byte-identical output across independent runs.
func TestGoldenCorpus(t *testing.T) {
	for _, name := range corpus {
		t.Run(name, func(t *testing.T) {
			code := strings.ToUpper(strings.TrimSuffix(name, ".pla"))
			var runs [2]string
			for i := range runs {
				fs := lint.Run(corpusPass(t, name))
				var b bytes.Buffer
				if err := lint.WriteText(&b, fs); err != nil {
					t.Fatal(err)
				}
				runs[i] = b.String()
				if i == 0 {
					hit := false
					for _, f := range fs {
						if f.Code == code {
							hit = true
							break
						}
					}
					if !hit {
						t.Errorf("no %s finding emitted:\n%s", code, b.String())
					}
				}
			}
			if runs[0] != runs[1] {
				t.Fatalf("non-deterministic output:\n--- run 1 ---\n%s--- run 2 ---\n%s", runs[0], runs[1])
			}
			goldenPath := filepath.Join("testdata", strings.TrimSuffix(name, ".pla")+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(runs[0]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if runs[0] != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, runs[0], want)
			}
		})
	}
}

// TestGoldenJSON pins the machine-readable output format.
func TestGoldenJSON(t *testing.T) {
	fs := lint.Run(corpusPass(t, "pl001.pla"))
	var b bytes.Buffer
	if err := lint.WriteJSON(&b, fs); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "pl001.json.golden")
	if *update {
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("JSON output differs:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestWriteJSONEmpty: a clean run must still emit a JSON array.
func TestWriteJSONEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := lint.WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Errorf("empty findings = %q, want []", b.String())
	}
}

// TestApplyFixesDeadRules: applying the suggested fixes removes the dead
// rules and the re-lint comes back clean.
func TestApplyFixesDeadRules(t *testing.T) {
	plas := parseTestdata(t, "pl001.pla")
	fs := lint.Run(&lint.Pass{PLAs: plas})
	fixes := lint.Fixes(fs)
	if len(fixes) != 2 {
		t.Fatalf("fixes = %d, want 2 (%v)", len(fixes), fs)
	}
	if n := lint.ApplyFixes(plas, fixes); n != 2 {
		t.Fatalf("applied = %d, want 2", n)
	}
	if len(plas[0].Access) != 2 {
		t.Errorf("access rules after fix = %d, want 2", len(plas[0].Access))
	}
	if fs := lint.Run(&lint.Pass{PLAs: plas}); len(fs) != 0 {
		t.Errorf("findings after fix: %v", fs)
	}
	// The fixed agreement re-prints as valid DSL.
	if _, err := policy.ParseFile(lint.FormatPLAs(plas)); err != nil {
		t.Errorf("fixed output does not re-parse: %v", err)
	}
}

// TestApplyFixesThresholds: raising the looser thresholds to the source
// minimum clears every PL005 finding.
func TestApplyFixesThresholds(t *testing.T) {
	p := corpusPass(t, "pl005.pla")
	fs := lint.Run(p)
	if n := lint.ApplyFixes(p.PLAs, lint.Fixes(fs)); n == 0 {
		t.Fatal("no threshold fixes applied")
	}
	after := lint.Run(&lint.Pass{
		PLAs: p.PLAs, Catalog: p.Catalog, Reports: p.Reports, Assign: p.Assign,
	})
	for _, f := range after {
		if f.Code == "PL005" {
			t.Errorf("PL005 finding survived fixing: %s", f)
		}
	}
}

// TestShippedPoliciesClean: every PLA document shipped in the repo lints
// clean on its own.
func TestShippedPoliciesClean(t *testing.T) {
	paths := []string{
		"../../docs/sample.pla",
		"../../examples/quickstart/policy.pla",
		"../../examples/anonymization/policy.pla",
		"../../examples/audit/policy.pla",
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		plas, err := policy.ParseFileNamed(path, string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if fs := lint.Run(&lint.Pass{PLAs: plas}); len(fs) != 0 {
			var b bytes.Buffer
			_ = lint.WriteText(&b, fs)
			t.Errorf("%s has findings:\n%s", path, b.String())
		}
	}
}

// TestCheckQuery: the ad-hoc static check behind `plalint -query` reports
// a blocking decision as an error finding positioned at the agreement, a
// masking one as info, and a compliant query as nothing at all.
func TestCheckQuery(t *testing.T) {
	src, err := os.ReadFile("../../docs/sample.pla")
	if err != nil {
		t.Fatal(err)
	}
	plas, err := policy.ParseFileNamed("sample.pla", string(src))
	if err != nil {
		t.Fatal(err)
	}
	cat := sql.NewCatalog()
	cat.Register(relation.NewBase("prescriptions", relation.NewSchema(
		relation.Col("patient", relation.TString), relation.Col("drug", relation.TString), relation.Col("disease", relation.TString))))
	check := func(query string) []lint.Finding {
		fs, err := lint.CheckQuery(&lint.Pass{PLAs: plas, Catalog: cat}, &report.Definition{ID: "q", Query: query}, "analyst", "quality")
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fs := check("SELECT patient, disease FROM prescriptions")
	if sev, _ := lint.MaxSeverity(fs); len(fs) != 2 || sev != lint.SevError {
		t.Fatalf("raw patient list: %v", fs)
	}
	for _, f := range fs {
		if f.Code != "PL004" || (f.Severity == lint.SevError) != strings.Contains(f.Message, "block") {
			t.Errorf("unexpected finding %v", f)
		}
		if f.Severity == lint.SevError && (f.Pos.File != "sample.pla" || len(f.PLAs) == 0) {
			t.Errorf("blocking finding not attributed: %+v", f)
		}
	}
	if fs := check("SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug"); len(fs) != 0 {
		t.Errorf("aggregated drug counts must be statically compliant: %v", fs)
	}
}

// TestHealthcareEngineLint: the full scenario deployment carries no
// error-severity findings, and the intentionally non-aggregated
// patient-activity report is flagged as always blocked.
func TestHealthcareEngineLint(t *testing.T) {
	cfg := workload.DefaultConfig(1)
	cfg.Prescriptions = 200
	cfg.Patients = 20
	e, _, err := core.BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := e.Lint()
	if max, ok := lint.MaxSeverity(fs); ok && max >= lint.SevError {
		var b bytes.Buffer
		_ = lint.WriteText(&b, lint.Filter(fs, lint.SevError))
		t.Errorf("scenario has error findings:\n%s", b.String())
	}
	found := false
	for _, f := range fs {
		if f.Code == "PL004" && strings.Contains(f.Message, "patient-activity") {
			found = true
		}
	}
	if !found {
		t.Errorf("always-blocked patient-activity report not flagged; findings: %v", fs)
	}
	// Linting is observable.
	snap := e.Obs().Snapshot()
	if snap.Counters["lint.runs"] == 0 {
		t.Error("lint.runs counter not incremented")
	}
}

// TestSeverityFilterAndMax covers the gating helpers the CLI exits on.
func TestSeverityFilterAndMax(t *testing.T) {
	fs := lint.Run(corpusPass(t, "pl001.pla"))
	warnUp := lint.Filter(fs, lint.SevWarning)
	for _, f := range warnUp {
		if f.Severity < lint.SevWarning {
			t.Errorf("filter leaked %s", f)
		}
	}
	if len(warnUp) == 0 || len(warnUp) == len(fs) {
		t.Errorf("filter should drop the info finding: %d of %d kept", len(warnUp), len(fs))
	}
	if _, ok := lint.MaxSeverity(nil); ok {
		t.Error("MaxSeverity(nil) reported ok")
	}
	if s, err := lint.ParseSeverity("error"); err != nil || s != lint.SevError {
		t.Errorf("ParseSeverity(error) = %v, %v", s, err)
	}
	if _, err := lint.ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity(fatal) should fail")
	}
}

// TestAnalyzerRegistry: all seven analyzers are registered under their
// documented codes, sorted.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"PL001", "PL002", "PL003", "PL004", "PL005", "PL006", "PL007"}
	as := lint.Analyzers()
	if len(as) != len(want) {
		t.Fatalf("analyzers = %d, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Code() != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Code(), want[i])
		}
		if a.Name() == "" || a.Doc() == "" {
			t.Errorf("analyzer %s missing name or doc", a.Code())
		}
	}
}

// TestSchemaDriftThroughView: a view's columns are its executed header's —
// a SELECT * view carries every column of what it selects from — and a
// report whose query the executor rejects is not profiled, so the
// report-scoped drift check says nothing about it rather than something
// wrong.
func TestSchemaDriftThroughView(t *testing.T) {
	cat := fixtureCatalog()
	if _, err := cat.Run("CREATE VIEW rx AS SELECT * FROM prescriptions"); err != nil {
		t.Fatal(err)
	}
	plas, err := policy.ParseFileNamed("view.pla", `
pla "on-view" { owner "hospital"; level warehouse; scope "rx";
    allow attribute drug;
    allow attribute druggg;
}
pla "on-broken" { owner "hospital"; level report; scope "broken";
    allow attribute anything;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	fs := lint.Run(&lint.Pass{PLAs: plas, Catalog: cat, Reports: []*report.Definition{
		{ID: "broken", Query: "SELECT patient FROM rx WHERE nope = 1", Roles: []string{"analyst"}},
	}})
	var drift []string
	for _, f := range fs {
		if f.Code == "PL003" {
			drift = append(drift, f.Subject)
		}
	}
	if len(drift) != 1 || drift[0] != "on-view/druggg" {
		t.Errorf("PL003 subjects = %v, want [on-view/druggg]; findings: %v", drift, fs)
	}
}
