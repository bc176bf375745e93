package etl

import (
	"context"
	"fmt"
	"strings"

	"plabi/internal/fault"
	"plabi/internal/relation"
)

// cancelCheckRows is how often per-row loops poll for cancellation: a
// balance between responsiveness and per-row overhead.
const cancelCheckRows = 512

// baseStep carries the common step fields.
type baseStep struct {
	name string
}

// Name implements Step.
func (b baseStep) Name() string { return b.name }

// Extract copies a source table into the staging area. The staging table
// keeps the source table's identity, so lineage traced from reports lands
// on the original source rows.
type Extract struct {
	baseStep
	Source *Source
	Table  string
	As     string // staging name; defaults to the table name
}

// NewExtract builds an extraction step.
func NewExtract(name string, src *Source, table, as string) *Extract {
	if as == "" {
		as = table
	}
	return &Extract{baseStep: baseStep{name}, Source: src, Table: table, As: as}
}

// Op implements Step.
func (e *Extract) Op() string { return "extract" }

// Inputs implements Step.
func (e *Extract) Inputs() []string { return []string{e.Source.Name + "." + e.Table} }

// Output implements Step.
func (e *Extract) Output() string { return e.As }

// Run implements Step. Source access is the etl.extract fault site and
// is retried under the context's policy; a missing table is permanent
// and fails without consuming the retry budget.
func (e *Extract) Run(c *Context) error {
	var t *relation.Table
	err := fault.Retry(c.Ctx(), c.Retry, c.Metrics, func(ctx context.Context) error {
		if err := c.Faults.Hit(ctx, fault.SiteETLExtract); err != nil {
			return err
		}
		src, ok := e.Source.Table(e.Table)
		if !ok {
			return fault.Permanent(fmt.Errorf("source %q has no table %q", e.Source.Name, e.Table))
		}
		t = src
		return nil
	})
	if err != nil {
		return err
	}
	c.Put(e.As, t)
	return nil
}

// DeltaKind classifies how a Transform's function distributes over row
// deltas, which decides how much of it ApplyDelta can recompute
// incrementally.
type DeltaKind int

const (
	// DeltaOpaque (the default) promises nothing: any input change reruns
	// the whole step.
	DeltaOpaque DeltaKind = iota
	// DeltaRowWise marks a 1:1 per-row function (cleanse, derive,
	// project): output row i depends only on input row i, so changed rows
	// are recomputed in isolation and spliced into the previous output.
	DeltaRowWise
	// DeltaFilter marks a row-wise row-dropping function (filter):
	// appended input rows are filtered independently and concatenated
	// onto the previous output; updates or deletes rerun the step.
	DeltaFilter
)

// Transform applies an arbitrary relational function to one staging table.
// It is the generic building block for cleansing and standardization.
type Transform struct {
	baseStep
	OpName string
	Input  string
	Out    string
	// Kind declares how Fn distributes over deltas (DeltaOpaque unless
	// the constructor knows better).
	Kind DeltaKind
	// Fn receives the run's context so long row loops can honour
	// cancellation mid-table.
	Fn func(context.Context, *relation.Table) (*relation.Table, error)
}

// NewTransform builds a generic transformation step.
func NewTransform(name, op, input, output string, fn func(context.Context, *relation.Table) (*relation.Table, error)) *Transform {
	return &Transform{baseStep: baseStep{name}, OpName: op, Input: input, Out: output, Fn: fn}
}

// Op implements Step.
func (t *Transform) Op() string { return t.OpName }

// Inputs implements Step.
func (t *Transform) Inputs() []string { return []string{t.Input} }

// Output implements Step.
func (t *Transform) Output() string { return t.Out }

// Run implements Step.
func (t *Transform) Run(c *Context) error {
	in, err := c.Get(t.Input)
	if err != nil {
		return err
	}
	out, err := t.Fn(c.Ctx(), in)
	if err != nil {
		return err
	}
	c.Put(t.Out, out)
	return nil
}

// NewCleanse builds a transform that trims whitespace in the given string
// columns — the canonical data-quality step.
func NewCleanse(name, input, output string, cols ...string) *Transform {
	return newKindedTransform(name, "cleanse", input, output, DeltaRowWise, func(ctx context.Context, t *relation.Table) (*relation.Table, error) {
		out := t
		var err error
		for _, col := range cols {
			i := out.Schema.Index(col)
			if i < 0 {
				return nil, fmt.Errorf("cleanse: unknown column %q", col)
			}
			out, err = mapCol(ctx, out, i, func(v relation.Value) relation.Value {
				if v.Kind != relation.TString {
					return v
				}
				return relation.Str(strings.Join(strings.Fields(v.S), " "))
			})
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

// newKindedTransform is NewTransform plus a delta-kind declaration.
func newKindedTransform(name, op, input, output string, kind DeltaKind, fn func(context.Context, *relation.Table) (*relation.Table, error)) *Transform {
	t := NewTransform(name, op, input, output, fn)
	t.Kind = kind
	return t
}

// NewFilter builds a row-filtering step.
func NewFilter(name, input, output string, pred relation.Expr) *Transform {
	return newKindedTransform(name, "filter", input, output, DeltaFilter, func(_ context.Context, t *relation.Table) (*relation.Table, error) {
		return relation.Select(t, pred)
	})
}

// NewDerive builds a computed-column step.
func NewDerive(name, input, output, col string, e relation.Expr) *Transform {
	return newKindedTransform(name, "derive", input, output, DeltaRowWise, func(_ context.Context, t *relation.Table) (*relation.Table, error) {
		return relation.Extend(t, col, e)
	})
}

// NewProject builds a column-selection step.
func NewProject(name, input, output string, cols ...string) *Transform {
	return newKindedTransform(name, "project", input, output, DeltaRowWise, func(_ context.Context, t *relation.Table) (*relation.Table, error) {
		return relation.ProjectCols(t, cols...)
	})
}

// JoinStep joins two staging tables. Before running, the guard's
// CheckJoin is consulted with the *base tables* each side derives from —
// so a forbidden pair is caught even after intermediate transformations
// (Fig. 3b: the ETL annotation forbidding Prescriptions ⋈ Familydoctor).
type JoinStep struct {
	baseStep
	Left, Right string
	On          relation.Expr
	Kind        relation.JoinKind
	Out         string
}

// NewJoin builds a guarded join step.
func NewJoin(name, left, right string, on relation.Expr, kind relation.JoinKind, output string) *JoinStep {
	return &JoinStep{baseStep: baseStep{name}, Left: left, Right: right, On: on, Kind: kind, Out: output}
}

// Op implements Step.
func (j *JoinStep) Op() string { return "join" }

// Inputs implements Step.
func (j *JoinStep) Inputs() []string { return []string{j.Left, j.Right} }

// Output implements Step.
func (j *JoinStep) Output() string { return j.Out }

// Run implements Step.
func (j *JoinStep) Run(c *Context) error {
	out, err := j.join(c, nil)
	if err != nil {
		return err
	}
	c.Put(j.Out, out)
	return nil
}

// join is the step body: the join-permission check over the base tables
// of both sides, then the left rows at the indices in leftRows (nil = the
// whole left input — a full Run; the delta path passes the appended rows)
// joined with the right input.
func (j *JoinStep) join(c *Context, leftRows []int) (*relation.Table, error) {
	l, err := c.Get(j.Left)
	if err != nil {
		return nil, err
	}
	r, err := c.Get(j.Right)
	if err != nil {
		return nil, err
	}
	for _, lb := range baseTablesOf(l) {
		for _, rb := range baseTablesOf(r) {
			if lb == rb {
				continue
			}
			if err := c.Guard.CheckJoin(lb, rb); err != nil {
				return nil, &ViolationError{Step: j.name, Rule: "join-permission",
					Detail: fmt.Sprintf("%s join %s: %v", lb, rb, err), Cause: err}
			}
		}
	}
	if leftRows != nil {
		if l, err = relation.SliceRows(l, leftRows); err != nil {
			return nil, err
		}
	}
	out, err := relation.Join(relation.Rename(l, "l"), relation.Rename(r, "r"), j.On, j.Kind)
	if err != nil {
		return nil, err
	}
	if unq, uerr := out.Schema.Unqualify(); uerr == nil {
		out.Schema = unq
	}
	out.Name = j.Out
	return out, nil
}

// baseTablesOf returns the base tables a relation derives from; for base
// tables, the table itself.
func baseTablesOf(t *relation.Table) []string {
	if t.Base {
		return []string{strings.ToLower(t.Name)}
	}
	return t.BaseTables()
}

// AggregateStep groups a staging table.
type AggregateStep struct {
	baseStep
	Input string
	Out   string
	Keys  []string
	Aggs  []relation.AggSpec

	// state is the retained GroupBy accumulator the delta path extends
	// and re-emits from. Run drops it: after a full recompute the next
	// delta rebuilds the state from the refreshed input. Access is
	// serialized by the pipeline (one run or delta at a time).
	state *relation.GroupByState
}

// NewAggregate builds an aggregation step.
func NewAggregate(name, input, output string, keys []string, aggs []relation.AggSpec) *AggregateStep {
	return &AggregateStep{baseStep: baseStep{name}, Input: input, Out: output, Keys: keys, Aggs: aggs}
}

// Op implements Step.
func (a *AggregateStep) Op() string { return "aggregate" }

// Inputs implements Step.
func (a *AggregateStep) Inputs() []string { return []string{a.Input} }

// Output implements Step.
func (a *AggregateStep) Output() string { return a.Out }

// Run implements Step.
func (a *AggregateStep) Run(c *Context) error {
	a.state = nil
	in, err := c.Get(a.Input)
	if err != nil {
		return err
	}
	out, err := relation.GroupBy(in, a.Keys, a.Aggs)
	if err != nil {
		return err
	}
	out.Name = a.Out
	c.Put(a.Out, out)
	return nil
}

// mapCol rewrites one column of a table, preserving lineage and origins.
// The row loop polls ctx so cancellation lands mid-step on large tables,
// not only at the next wave boundary.
func mapCol(ctx context.Context, t *relation.Table, ci int, fn func(relation.Value) relation.Value) (*relation.Table, error) {
	t, err := t.Materialize() // column rewrites read every row anyway
	if err != nil {
		return nil, err
	}
	out := &relation.Table{Name: t.Name, Schema: t.Schema.Clone()}
	out.ColOrigin = make([]relation.ColRefSet, t.Schema.Len())
	for c := range out.ColOrigin {
		out.ColOrigin[c] = t.ColumnOrigin(c)
	}
	for ri, r := range t.Rows {
		if ri%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		nr := r.Clone()
		nr[ci] = fn(r[ci])
		out.Rows = append(out.Rows, nr)
		out.Lineage = append(out.Lineage, t.RowLineage(ri))
	}
	return out, nil
}
