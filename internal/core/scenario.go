package core

import (
	"fmt"

	"plabi/internal/etl"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// ScenarioPLAs is the PLA document of the standard healthcare scenario
// (Fig. 1): one agreement per source owner plus report-level agreements,
// exercising every annotation kind of §5.
const ScenarioPLAs = `
# Hospital: prescriptions are the most sensitive source.
pla "hospital-prescriptions" {
    owner "hospital"; level source; scope "prescriptions";
    purpose "reimbursement", "quality";
    allow attribute drug;
    allow attribute disease to roles auditor;
    allow attribute date;
    allow attribute patient to roles analyst when disease <> 'HIV';
    allow attribute doctor to roles auditor;
    aggregate min 3 by patient;
    forbid join with familydoctor;
    allow join with drugcost;
    allow join with residents;
    forbid integration for municipality;
    allow integration for familydoctors;
    retain 730 days;
}

# Health agency: drug costs are public within the consortium.
pla "agency-drugcost" {
    owner "healthagency"; level source; scope "drugcost";
    allow attribute *;
}

# Municipality: resident demographics may be used, but only k-anonymized.
pla "municipality-residents" {
    owner "municipality"; level source; scope "residents";
    allow attribute age; allow attribute zip; allow attribute municipality;
    allow attribute patient to roles analyst;
    release kanonymity 5 quasi age, zip;
    allow join with prescriptions;
    allow join with drugcost;
    allow integration for familydoctors;
}

# Family doctors: assignments may be cleaned with others' data but the
# doctor-patient link must not reach analysts.
pla "familydoctors-assignments" {
    owner "familydoctors"; level source; scope "familydoctor";
    allow attribute patient to roles auditor;
    allow attribute doctor to roles auditor;
    forbid join with prescriptions;
}

# Report-level agreement for the flagship drug-consumption report.
pla "report-drug-consumption" {
    owner "hospital"; level report; scope "drug-consumption";
    allow attribute drug;
    aggregate min 3 by patient;
}
`

// BuildHealthcareEngine assembles the full Fig. 1 deployment over the
// synthetic workload on a default engine (see LoadHealthcareScenario).
func BuildHealthcareEngine(cfg workload.Config) (*Engine, *workload.Dataset, error) {
	return BuildHealthcareEngineWith(cfg, nil)
}

// BuildHealthcareEngineWith is BuildHealthcareEngine with a hook that
// attaches storage to the default engine (an audit sink, a segment
// store) before the scenario ETL runs.
func BuildHealthcareEngineWith(cfg workload.Config, configure func(*Engine)) (*Engine, *workload.Dataset, error) {
	e := New(Config{})
	if configure != nil {
		configure(e)
	}
	ds, err := LoadHealthcareScenario(e, cfg)
	if err != nil {
		return nil, nil, err
	}
	return e, ds, nil
}

// LoadHealthcareScenario loads the full Fig. 1 deployment over the
// synthetic workload onto e: sources registered, PLAs attached, guarded
// ETL run (extraction, cleansing, entity resolution, permitted joins),
// and the standard report portfolio defined. The engine's configuration
// (fault injection, retry policies, metrics) covers the load itself.
func LoadHealthcareScenario(e *Engine, cfg workload.Config) (*workload.Dataset, error) {
	ds, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	e.AddSource(etl.NewSource("hospital", "hospital", ds.Prescriptions))
	e.AddSource(etl.NewSource("familydoctors", "familydoctors", ds.FamilyDoctor))
	e.AddSource(etl.NewSource("healthagency", "healthagency", ds.DrugCost))
	e.AddSource(etl.NewSource("laboratory", "laboratory", ds.LabResults))
	e.AddSource(etl.NewSource("municipality", "municipality", ds.Residents))

	if err := e.AddPLAs(ScenarioPLAs); err != nil {
		return nil, err
	}

	p := HealthcarePipeline(e)
	if _, err := e.RunETL(p, false); err != nil {
		return nil, fmt.Errorf("core: scenario ETL: %w", err)
	}

	for _, d := range StandardReports() {
		if err := e.DefineReport(d); err != nil {
			return nil, err
		}
	}
	if _, err := e.DeriveMetaReports(); err != nil {
		return nil, err
	}
	return ds, nil
}

// HealthcarePipeline builds the scenario's guarded ETL pipeline: extract
// all sources, cleanse names, resolve family-doctor patients against the
// municipality registry (permitted integration), and join prescriptions
// with costs and demographics (permitted joins) into the wide staging
// table "rx_wide" the warehouse reports run on.
func HealthcarePipeline(e *Engine) *etl.Pipeline {
	hosp, _ := e.Source("hospital")
	fam, _ := e.Source("familydoctors")
	agency, _ := e.Source("healthagency")
	muni, _ := e.Source("municipality")
	return &etl.Pipeline{Name: "healthcare", Steps: []etl.Step{
		etl.NewExtract("ext-prescriptions", hosp, "prescriptions", ""),
		etl.NewExtract("ext-familydoctor", fam, "familydoctor", ""),
		etl.NewExtract("ext-drugcost", agency, "drugcost", ""),
		etl.NewExtract("ext-residents", muni, "residents", ""),
		etl.NewCleanse("cleanse-fd", "familydoctor", "familydoctor_clean", "patient"),
		etl.NewEntityResolution("resolve-fd", "familydoctor_clean", "patient",
			"residents", "patient", "familydoctors", 0.88, "familydoctor_resolved"),
		etl.NewJoin("join-costs", "prescriptions", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")),
			relation.InnerJoin, "rx_cost"),
		etl.NewJoin("join-residents", "rx_cost", "residents",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "rx_wide"),
	}}
}

// StandardReports is the scenario's initial report portfolio.
func StandardReports() []*report.Definition {
	return []*report.Definition{
		{ID: "drug-consumption", Title: "Drug consumption",
			Query:   "SELECT drug, COUNT(*) AS consumption FROM rx_wide GROUP BY drug ORDER BY drug",
			Roles:   []string{"analyst"},
			Purpose: "quality"},
		{ID: "drug-spend", Title: "Drug spend",
			Query:   "SELECT drug, SUM(cost) AS spend FROM rx_wide GROUP BY drug ORDER BY spend DESC",
			Roles:   []string{"analyst"},
			Purpose: "reimbursement"},
		{ID: "disease-by-year", Title: "Disease incidence by year",
			Query:   "SELECT disease, YEAR(date) AS yr, COUNT(*) AS n FROM rx_wide GROUP BY disease, YEAR(date) ORDER BY disease, yr",
			Roles:   []string{"auditor"},
			Purpose: "quality"},
		{ID: "age-profile", Title: "Age profile per drug",
			Query:   "SELECT drug, AVG(age) AS avg_age, COUNT(*) AS n FROM rx_wide GROUP BY drug ORDER BY drug",
			Roles:   []string{"analyst"},
			Purpose: "quality"},
		{ID: "patient-activity", Title: "Per-patient prescription list",
			Query:   "SELECT patient, drug, date FROM rx_wide ORDER BY patient LIMIT 50",
			Roles:   []string{"analyst"},
			Purpose: "reimbursement"},
	}
}
