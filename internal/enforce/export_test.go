package enforce

import (
	"strings"

	"plabi/internal/report"
)

// ClassificationReaders exposes, to the external tests, the program for
// (def, role, purpose) beside its output columns classified a second way:
// from the executed result's own schema and column origins rather than
// from the program's header.
func (e *ReportEnforcer) ClassificationReaders(def *report.Definition, role, purpose string) (*Program, []ColumnPlan, error) {
	p, _, err := e.ProgramFor(def, role, purpose)
	if err != nil {
		return nil, nil, err
	}
	snap := e.Catalog.Snapshot()
	raw, err := snap.Exec(p.sel)
	if err != nil {
		return nil, nil, err
	}
	agg := aggregateColumns(p.sel)
	cols := make([]ColumnPlan, raw.Schema.Len())
	for ci, col := range raw.Schema.Columns {
		name := strings.ToLower(col.Name)
		cols[ci] = e.classifyColumn(snap, p, name, agg[name], raw.ColumnOrigin(ci), role, purpose)
	}
	return p, cols, nil
}

// SetAfterExec makes every render run f between its query and its row
// enforcement, until the returned func is called.
func SetAfterExec(f func()) (restore func()) {
	afterExec = f
	return func() { afterExec = nil }
}
