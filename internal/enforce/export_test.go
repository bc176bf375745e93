package enforce

import (
	"fmt"
	"strings"

	"plabi/internal/compile"
	"plabi/internal/report"
)

// ColumnReaders is one output column as two readers of the plan's column
// classification see it: the residual program's published column plan,
// and the column plan row enforcement runs, rendered in the program's
// vocabulary and re-derived here from the executed result's own schema
// and column origins rather than from the plan's header.
type ColumnReaders struct {
	Program, Runtime compile.ColumnPlan
}

// ClassificationReaders exposes, to the external tests, the readers of a
// plan's column classification: the static check's decisions (the third
// reader) and, per output column in header order, the program's and the
// runtime's view.
func (e *ReportEnforcer) ClassificationReaders(def *report.Definition, role, purpose string) ([]Decision, []ColumnReaders, error) {
	plan, _, err := e.planFor(def, role, purpose)
	if err != nil {
		return nil, nil, err
	}
	raw, err := e.Catalog.Exec(plan.sel)
	if err != nil {
		return nil, nil, err
	}
	if len(plan.cols) != raw.Schema.Len() || len(plan.prog.Columns) != raw.Schema.Len() {
		return nil, nil, fmt.Errorf("plan classifies %d columns, program publishes %d, the executed schema has %d",
			len(plan.cols), len(plan.prog.Columns), raw.Schema.Len())
	}
	cols := make([]ColumnReaders, raw.Schema.Len())
	for ci, col := range raw.Schema.Columns {
		name := strings.ToLower(col.Name)
		cols[ci] = ColumnReaders{
			Program: plan.prog.Columns[ci],
			Runtime: e.classifyColumn(plan, name, raw.ColumnOrigin(ci), role, purpose).published(name),
		}
	}
	return plan.static, cols, nil
}
