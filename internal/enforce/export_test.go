package enforce

import (
	"fmt"
	"reflect"
	"strings"

	"plabi/internal/compile"
	"plabi/internal/report"
)

// ColumnReaders is one output column as two readers of the plan's column
// classification see it — the residual program's published column plan
// and the runtime column plan bound to the executed schema (rendered in
// the program's vocabulary) — and whether the query profile and the
// executed result gave the classification the same column origins.
type ColumnReaders struct {
	Program, Runtime compile.ColumnPlan
	SameOrigins      bool
}

// ClassificationReaders exposes, to the external tests, the readers of a
// plan's column classification: the static check's decisions (the third
// reader) and, per output column in name order, the program's and the
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
	runtime := map[string]ColumnReaders{}
	for ci, cp := range e.buildColPlans(plan, raw, role, purpose) {
		name := strings.ToLower(raw.Schema.Columns[ci].Name)
		runtime[name] = ColumnReaders{Runtime: cp.published(name),
			SameOrigins: reflect.DeepEqual(plan.prof.OutputNames[name], raw.ColumnOrigin(ci))}
	}
	if len(runtime) != len(plan.prog.Columns) {
		return nil, nil, fmt.Errorf("program publishes %d columns, the executed schema has %d", len(plan.prog.Columns), len(runtime))
	}
	var cols []ColumnReaders
	for _, pc := range plan.prog.Columns {
		rc, ok := runtime[pc.Name]
		if !ok {
			return nil, nil, fmt.Errorf("program column %q is not in the executed schema", pc.Name)
		}
		rc.Program = pc
		cols = append(cols, rc)
	}
	return plan.static, cols, nil
}
