package diff

// White-box PD000 coverage: Validate can only report divergences when
// the compiler actually mis-translates, so these tests build a real
// triple, verify it validates clean, then tamper with copies of the
// compiled program field by field and assert each tampering is caught.

import (
	"strings"
	"testing"

	"plabi/internal/enforce"
	"plabi/internal/policy"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

// tamperState is a minimal one-source deployment: an aggregated report
// over the prescriptions fixture with an access rule, a condition, a
// threshold and a row filter in play.
func tamperState(t *testing.T) *State {
	t.Helper()
	plas, err := policy.ParseFile(`
pla "tamper-src" {
    owner "hospital"; level source; scope "prescriptions";
    allow attribute drug;
    allow attribute patient when disease <> 'HIV';
    aggregate min 3 by patient;
    filter when cost < 500;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	reg := policy.NewRegistry()
	for _, p := range plas {
		if err := reg.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	cat := sql.NewCatalog()
	cat.Register(workload.PrescriptionsFixture())
	return &State{
		Policies: reg,
		Catalog:  cat,
		Reports: []*report.Definition{{
			ID: "rx-agg", Title: "Aggregated prescriptions",
			Query:   "SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug",
			Roles:   []string{"analyst"},
			Purpose: "quality",
		}},
	}
}

// tamperValidator mirrors Validate's per-triple setup for the state's
// single report so tests can run the check methods against a tampered
// program copy.
func tamperValidator(t *testing.T, s *State, prog *enforce.Program) *validator {
	t.Helper()
	enf := s.newEnforcer()
	def := s.Reports[0]
	comp, prof, err := enf.CompositeFor(def)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := def.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if prog == nil {
		prog, _, err = enf.ProgramFor(def, "analyst", def.Purpose)
		if err != nil {
			t.Fatal(err)
		}
	}
	return &validator{
		t: triple{report: def.ID, role: "analyst", purpose: def.Purpose},
		s: s, comp: comp, prof: prof, sel: sel, prog: prog,
		role: "analyst", purpose: def.Purpose,
	}
}

// compiled returns the honestly compiled program for the state's report.
func compiled(t *testing.T, s *State) *enforce.Program {
	t.Helper()
	enf := s.newEnforcer()
	def := s.Reports[0]
	prog, _, err := enf.ProgramFor(def, "analyst", def.Purpose)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestValidateTamperedPrograms(t *testing.T) {
	s := tamperState(t)
	if imps := tamperValidator(t, s, nil).run(); len(imps) != 0 {
		t.Fatalf("honest program must validate clean, got %d impacts: %v", len(imps), imps)
	}
	honest := compiled(t, s)
	if len(honest.Thresholds) == 0 {
		t.Fatal("fixture bakes no thresholds; tampering tests are vacuous")
	}
	if len(honest.Filters) == 0 {
		t.Fatal("fixture binds no filters; tampering tests are vacuous")
	}

	cases := []struct {
		name    string
		tamper  func(p *enforce.Program)
		wantMsg string
	}{
		{"aggregated-flag", func(p *enforce.Program) {
			p.Aggregated = false
		}, "aggregated"},
		{"dropped-threshold", func(p *enforce.Program) {
			p.Thresholds = nil
		}, "bakes no threshold"},
		{"loosened-threshold", func(p *enforce.Program) {
			ths := append([]enforce.Threshold(nil), p.Thresholds...)
			ths[0].Min = 1
			p.Thresholds = ths
		}, "program bakes min 1"},
		{"dropped-filter", func(p *enforce.Program) {
			p.Filters = nil
		}, "program binds 0"},
		{"phantom-static-block", func(p *enforce.Program) {
			p.Static = append(append([]enforce.Decision(nil), p.Static...),
				enforce.Decision{Outcome: enforce.Block, Rule: "join-permission", Subject: "a JOIN b"})
		}, "the interpreter does not derive"},
		{"wrong-pla-set", func(p *enforce.Program) {
			p.PLAs = append([]string{"phantom"}, p.PLAs...)
		}, "interpreter composes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clone := *honest
			tc.tamper(&clone)
			imps := tamperValidator(t, s, &clone).run()
			if len(imps) == 0 {
				t.Fatalf("tampering %q went undetected", tc.name)
			}
			hit := false
			for _, im := range imps {
				if im.Code != CodeTranslation {
					t.Errorf("impact code %s, want %s", im.Code, CodeTranslation)
				}
				if strings.Contains(im.Message, tc.wantMsg) {
					hit = true
				}
			}
			if !hit {
				t.Errorf("no impact mentions %q; got %v", tc.wantMsg, imps)
			}
		})
	}
}

// TestValidateTamperedColumnPlan flips a released raw column to masked
// and vice versa on the column plans.
func TestValidateTamperedColumnPlan(t *testing.T) {
	s := tamperState(t)
	honest := compiled(t, s)
	raw := -1
	for i, cp := range honest.Columns {
		if !cp.Aggregate && !cp.Masked {
			raw = i
			break
		}
	}
	if raw < 0 {
		t.Fatal("fixture has no released raw column to tamper with")
	}
	clone := *honest
	cols := append([]enforce.ColumnPlan(nil), honest.Columns...)
	cols[raw].Masked = true
	cols[raw].Decision.Rule = "access-deny"
	clone.Columns = cols
	imps := tamperValidator(t, s, &clone).run()
	hit := false
	for _, im := range imps {
		if im.Code == CodeTranslation && strings.Contains(im.Message, "but the interpreter releases it") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("masked-column tampering undetected; got %v", imps)
	}
}
