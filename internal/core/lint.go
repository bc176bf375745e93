package core

import (
	"plabi/internal/lint"
)

// Lint statically analyzes the whole deployment — agreements, catalog,
// reports, meta-report assignments and recorded ETL plans — reading no
// data row (a plan runs over zero rows, leaving its live state alone), and
// returns the findings in deterministic order. Metrics are emitted to the engine's observability registry
// under lint.*.
func (e *Engine) Lint() []lint.Finding {
	return lint.Run(&lint.Pass{
		Registry:  e.Policies,
		Catalog:   e.Catalog,
		Reports:   e.Reports.All(),
		Metas:     e.MetaReports(),
		Assign:    e.Assignments(),
		Pipelines: e.Pipelines(),
		Owners:    e.SourceOwners(),
		Metrics:   e.Obs(),
	})
}
