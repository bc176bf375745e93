// Package elicit operationalizes the paper's Fig. 5 continuum: it
// measures, per PLA-attachment level (source, warehouse, meta-report,
// report), the cost of the initial requirements elicitation (how much
// schema the owner must understand, how many PLA atoms must be authored,
// how many of them are over-engineered) and the stability of the agreed
// requirements under a simulated report-evolution workload, using the
// real meta-report derivability checker to decide when a change escapes
// the already-approved scope.
package elicit

import (
	"fmt"
	"math/rand"

	"plabi/internal/metareport"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

// Scenario bundles the artifacts of one BI deployment at every level.
type Scenario struct {
	Cat *sql.Catalog
	// SourceTables are the original per-owner tables (full schemas,
	// including columns the BI application never loads).
	SourceTables []string
	// Warehouse is the name of the materialized wide warehouse table.
	Warehouse string
	// Reports is the evolving report portfolio.
	Reports *report.Registry
	// Metas is the current approved meta-report set; Assign maps report
	// ids to their covering meta-report.
	Metas  []*metareport.MetaReport
	Assign map[string]string
	// MetaOpts controls meta-report granularity (§5's design knob).
	MetaOpts metareport.Options

	// Column pools used by the evolution generator.
	coveredCols    []string // exposed by the current metas
	dwUnusedCols   []string // in the warehouse but not in any meta
	sourceOnlyCols []string // in a source but not loaded to the warehouse
	rng            *rand.Rand
	nextID         int
}

// reportTemplate instantiates one initial report over the warehouse.
type reportTemplate struct {
	id    string
	query string
}

// BuildHealthcareScenario constructs the standard evaluation scenario:
// the multi-source healthcare workload, a wide warehouse table loading a
// subset of the source columns, an initial portfolio of nReports reports
// drawn from rotating templates, and the derived meta-report set.
func BuildHealthcareScenario(seed int64, nReports int) (*Scenario, error) {
	ds, err := workload.Generate(workload.DefaultConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("elicit: generate workload: %w", err)
	}
	cat := sql.NewCatalog()
	cat.Register(ds.Prescriptions, ds.FamilyDoctor, ds.DrugCost, ds.LabResults, ds.Residents)

	// The warehouse loads prescriptions ⋈ drugcost ⋈ residents — a
	// subset of the source columns (rx_id, lab details, municipality
	// stay source-only).
	wideSQL := `SELECT p.patient AS patient, p.doctor AS doctor, p.drug AS drug,
		p.disease AS disease, p.date AS date, c.cost AS cost,
		r.age AS age, r.zip AS zip
		FROM prescriptions p
		JOIN drugcost c ON p.drug = c.drug
		JOIN residents r ON p.patient = r.patient`
	wide, err := cat.Query(wideSQL)
	if err != nil {
		return nil, fmt.Errorf("elicit: build warehouse: %w", err)
	}
	if wide, err = wide.Materialize(); err != nil {
		return nil, fmt.Errorf("elicit: build warehouse: %w", err)
	}
	dwh := relation.NewBase("dwh", wide.Schema.Clone())
	dwh.Rows = wide.Rows
	cat.Register(dwh)

	s := &Scenario{
		Cat:          cat,
		SourceTables: []string{"prescriptions", "familydoctor", "drugcost", "labresults", "residents"},
		Warehouse:    "dwh",
		Reports:      report.NewRegistry(),
		rng:          rand.New(rand.NewSource(seed + 1)),
	}

	templates := []reportTemplate{
		{"drug-consumption", "SELECT drug, COUNT(*) AS consumption FROM dwh GROUP BY drug"},
		{"drug-spend", "SELECT drug, SUM(cost) AS spend FROM dwh GROUP BY drug"},
		{"disease-by-year", "SELECT disease, YEAR(date) AS yr, COUNT(*) AS n FROM dwh GROUP BY disease, YEAR(date)"},
		{"asthma-activity", "SELECT drug, COUNT(*) AS n FROM dwh WHERE disease = 'asthma' GROUP BY drug"},
		{"age-profile", "SELECT drug, AVG(age) AS avg_age FROM dwh GROUP BY drug"},
		{"cost-overview", "SELECT disease, SUM(cost) AS total FROM dwh GROUP BY disease"},
		{"monthly-volume", "SELECT MONTH(date) AS m, COUNT(*) AS n FROM dwh GROUP BY MONTH(date)"},
		{"doctor-activity", "SELECT doctor, COUNT(*) AS n FROM dwh GROUP BY doctor"},
	}
	for i := 0; i < nReports; i++ {
		t := templates[i%len(templates)]
		id := t.id
		if i >= len(templates) {
			id = fmt.Sprintf("%s-%d", t.id, i/len(templates))
		}
		if err := s.Reports.Create(&report.Definition{ID: id, Title: id, Query: t.query}); err != nil {
			return nil, err
		}
	}
	if err := s.rederiveMetas(); err != nil {
		return nil, err
	}
	s.rebuildPools()
	return s, nil
}

// rederiveMetas recomputes the meta-report set from the current portfolio
// — the action taken when a meta-level re-elicitation happens.
func (s *Scenario) rederiveMetas() error {
	metas, assign, err := metareport.DeriveWith(s.Cat, s.Reports.All(), s.MetaOpts)
	if err != nil {
		return fmt.Errorf("elicit: derive metas: %w", err)
	}
	for _, m := range metas {
		m.Approved = true
	}
	s.Metas = metas
	s.Assign = assign
	return nil
}

// rebuildPools recomputes the generator's column pools.
func (s *Scenario) rebuildPools() {
	metaCols := map[string]bool{}
	for _, m := range s.Metas {
		prof, err := sql.ProfileSQL(s.Cat, m.Query)
		if err != nil {
			continue
		}
		for name := range prof.OutputNames {
			metaCols[name] = true
		}
	}
	dwh, _ := s.Cat.Table(s.Warehouse)
	dwhCols := map[string]bool{}
	s.coveredCols = nil
	s.dwUnusedCols = nil
	for _, c := range dwh.Schema.ColumnNames() {
		dwhCols[c] = true
		if metaCols[c] {
			s.coveredCols = append(s.coveredCols, c)
		} else {
			s.dwUnusedCols = append(s.dwUnusedCols, c)
		}
	}
	s.sourceOnlyCols = nil
	for _, tn := range s.SourceTables {
		t, ok := s.Cat.Table(tn)
		if !ok {
			continue
		}
		for _, c := range t.Schema.ColumnNames() {
			if !dwhCols[c] {
				s.sourceOnlyCols = append(s.sourceOnlyCols, tn+"."+c)
			}
		}
	}
}

// UsedColumns returns the set of warehouse columns any current report
// reads (outputs or filters) — the denominator of the over-engineering
// metric.
func (s *Scenario) UsedColumns() (map[string]bool, error) {
	used := map[string]bool{}
	for _, d := range s.Reports.All() {
		prof, err := sql.ProfileSQL(s.Cat, d.Query)
		if err != nil {
			return nil, err
		}
		for _, c := range prof.OutputCols {
			used[c.Column] = true
		}
		for _, c := range prof.Conjuncts {
			used[c.Col.Column] = true
		}
		for _, c := range prof.GroupKeys {
			used[c.Column] = true
		}
	}
	return used, nil
}

// Rederive recomputes the approved meta-report set under the current
// MetaOpts and refreshes the generator pools — call after changing the
// granularity options.
func (s *Scenario) Rederive() error {
	if err := s.rederiveMetas(); err != nil {
		return err
	}
	s.rebuildPools()
	return nil
}
