package etl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"plabi/internal/relation"
)

// fingerprint renders v field by field: a func, pointer, map or channel by
// its address (a func's is its code pointer; reflect.DeepEqual cannot
// compare non-nil funcs), everything else by value, so that two renderings
// differ exactly when some field of v, however deep in its own structs,
// slices and interfaces, holds something else.
func fingerprint(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Func, reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan:
		return fmt.Sprintf("%s@%x", v.Type(), v.Pointer())
	case reflect.Interface:
		if v.IsNil() {
			return "nil"
		}
		return fingerprint(v.Elem())
	case reflect.Struct:
		var b strings.Builder
		b.WriteString(v.Type().String() + "{")
		for i := range v.NumField() {
			fmt.Fprintf(&b, "%s:%s ", v.Type().Field(i).Name, fingerprint(v.Field(i)))
		}
		return b.String() + "}"
	case reflect.Slice, reflect.Array:
		var b strings.Builder
		if v.Kind() == reflect.Slice {
			fmt.Fprintf(&b, "@%x/%d/%d", v.Pointer(), v.Len(), v.Cap())
		}
		b.WriteString("[")
		for i := range v.Len() {
			b.WriteString(fingerprint(v.Index(i)) + " ")
		}
		return b.String() + "]"
	}
	return fmt.Sprint(v)
}

// TestStepsHoldNoState: every built-in step is a function of its context.
// No field of any of them — extract, cleanse, derive, project, filter,
// join, aggregate, entity resolution — changes when the pipeline runs,
// when it applies an append, an update and a delete, or when it runs over
// zero rows.
func TestStepsHoldNoState(t *testing.T) {
	hosp, fam, agency := sources()
	p := &Pipeline{Name: "stateless", Steps: []Step{
		NewExtract("ext-rx", hosp, "prescriptions", ""),
		NewExtract("ext-fd", fam, "familydoctor", ""),
		NewExtract("ext-cost", agency, "drugcost", ""),
		NewCleanse("cleanse", "prescriptions", "rx_clean", "patient"),
		NewDerive("derive", "rx_clean", "rx_drug", "drug2", relation.ColRefExpr("drug")),
		NewProject("project", "rx_drug", "rx_slim", "patient", "drug", "disease"),
		NewFilter("filter", "rx_slim", "rx_asthma", relation.ColEqStr("disease", "asthma")),
		NewJoin("join", "rx_slim", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")), relation.InnerJoin, "rx_cost"),
		NewAggregate("aggregate", "rx_cost", "by_drug", []string{"drug"}, []relation.AggSpec{{Kind: relation.AggCount, As: "n"}}),
		NewEntityResolution("resolve", "familydoctor", "patient", "rx_clean", "patient", "familydoctors", 0.85, "fd_resolved"),
	}}
	prints := func() []string {
		out := make([]string, len(p.Steps))
		for i, s := range p.Steps {
			out[i] = fingerprint(reflect.ValueOf(s).Elem())
		}
		return out
	}
	want := prints()
	same := func(after string) {
		t.Helper()
		for i, got := range prints() {
			if got != want[i] {
				t.Errorf("after %s, step %s changed:\nbefore %s\nafter  %s", after, p.Steps[i].Name(), want[i], got)
			}
		}
	}

	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	same("Run")
	rx, _ := hosp.Table("prescriptions")
	row := rx.Row(2).Clone()
	for _, d := range []struct {
		what string
		d    *Delta
	}{
		{"an append", &Delta{Table: "prescriptions", Inserts: []relation.Row{row, row}}},
		{"an update", &Delta{Table: "prescriptions", Updates: []RowUpdate{{Row: 2, Vals: row}}}},
		{"a delete", &Delta{Table: "prescriptions", Deletes: []int{1}}},
	} {
		if res := applyAndPropagate(t, p, c, hosp, d.d); res.StepsIncremental == 0 {
			t.Errorf("%s placed no step's edit: %+v", d.what, res)
		}
		same("ApplyDelta with " + d.what)
	}
	p.RunEmpty(nil, func(s Step, err error) {
		if err != nil {
			t.Errorf("step %s over zero rows: %v", s.Name(), err)
		}
	})
	same("RunEmpty")
}
