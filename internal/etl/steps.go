package etl

import (
	"context"
	"fmt"
	"sort"
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

// Delta implements Step for a step that places no change: it reruns.
func (baseStep) Delta(*Context, map[string]Change) (Change, bool, error) { return Change{}, true, nil }

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

// Run implements Step: it stages the source table. Source access is the
// etl.extract fault site and is retried under the context's policy; a
// missing table is permanent and fails without consuming the retry budget.
func (e *Extract) Run(c *Context) error {
	return fault.Retry(c.Ctx(), c.Retry, c.Metrics, func(ctx context.Context) error {
		if err := c.Faults.Hit(ctx, fault.SiteETLExtract); err != nil {
			return err
		}
		src, ok := e.Source.Table(e.Table)
		if !ok {
			return fault.Permanent(fmt.Errorf("source %q has no table %q", e.Source.Name, e.Table))
		}
		c.Put(e.As, src)
		return nil
	})
}

// Delta implements Step: the source map already holds the new table, so
// the staging alias is re-pointed at it and the source change passes
// through. Rows removed from anywhere but the end renumber the rows behind
// them, which everything derived from the table must follow.
func (e *Extract) Delta(c *Context, changes map[string]Change) (Change, bool, error) {
	src, ok := e.Source.Table(e.Table)
	if !ok {
		return Change{}, false, fmt.Errorf("source %q has no table %q", e.Source.Name, e.Table)
	}
	c.Put(e.As, src)
	ch := changes[strings.ToLower(e.Source.Name+"."+e.Table)]
	if len(ch.Removed) > 0 && ch.Removed[0] != src.NumRows()-ch.Appended {
		ch.Shift = map[string][]int{src.Name: ch.Removed}
	}
	return ch, false, nil
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
	// DeltaFilter marks a row-wise row-dropping function built by
	// NewFilter, which also reports the input ordinal of every row it
	// keeps: removed input rows drop their output row, updated and
	// appended ones are filtered alone and spliced, and only an update
	// that flips a row in or out of the output reruns the step.
	DeltaFilter
)

// fanout is what a step whose output is input-major — every input row
// yields a contiguous, possibly empty run of output rows, in input order:
// a filter, a join over its left side — keeps beside each version of its
// output, so that a later edit of the input can be placed in the output.
// fanout[k] is the ordinal of the input row output row k came from; it
// never decreases. Once kept it is never written: the next version's is a
// copy when the edit removes rows, and when it only appends, grows past the
// length this one reads.
type fanout []int32

// stageKeeping stages out as name and keeps state beside the version
// staging then holds (the segment-backed view when Put spilled out).
func stageKeeping(c *Context, name string, out *relation.Table, state any) {
	c.Put(name, out)
	if t, err := c.Get(name); err == nil {
		t.Keep(name, state)
	}
}

// span returns the output rows [lo, hi) of input row i.
func (f fanout) span(i int) (lo, hi int) {
	lo = sort.Search(len(f), func(k int) bool { return int(f[k]) >= i })
	hi = lo
	for hi < len(f) && int(f[hi]) == i {
		hi++
	}
	return lo, hi
}

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

	// keep is a DeltaFilter's Fn also reporting, per output row, the
	// ordinal of the input row it is.
	keep func(*relation.Table) (*relation.Table, []int32, error)
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

// Run implements Step: Fn over the input, or a filter's keep, whose
// ordinals it keeps beside the output.
func (t *Transform) Run(c *Context) error {
	in, err := c.Get(t.Input)
	if err != nil {
		return err
	}
	if t.keep != nil {
		out, ord, err := t.keep(in)
		if err == nil {
			stageKeeping(c, t.Out, out, fanout(ord))
		}
		return err
	}
	out, err := t.Fn(c.Ctx(), in)
	if err == nil {
		c.Put(t.Out, out)
	}
	return err
}

// Delta implements Step: a row-wise transform recomputes the updated and
// appended rows and splices them in, a filter places them by the ordinals
// it kept, and an opaque transform reruns.
func (t *Transform) Delta(c *Context, changes map[string]Change) (Change, bool, error) {
	ch := changes[strings.ToLower(t.Input)]
	in, err := c.Get(t.Input)
	if err != nil {
		return Change{}, false, err
	}
	switch {
	case t.Kind == DeltaRowWise:
		return oneToOneDelta(c, in, t.Out, ch, func(dirty []int) (*relation.Table, error) {
			sub, err := relation.SliceRows(in, dirty)
			if err != nil {
				return nil, err
			}
			return t.Fn(c.Ctx(), sub)
		})
	case t.Kind == DeltaFilter && t.keep != nil:
		return fanoutDelta(c, in, t.Out, ch, func(dirty []int) (*relation.Table, []int32, error) {
			sub, err := relation.SliceRows(in, dirty)
			if err != nil {
				return nil, nil, err
			}
			return t.keep(sub)
		})
	}
	return Change{}, true, nil
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
	t := newKindedTransform(name, "filter", input, output, DeltaFilter, func(_ context.Context, t *relation.Table) (*relation.Table, error) {
		return relation.Select(t, pred)
	})
	t.keep = func(t *relation.Table) (*relation.Table, []int32, error) {
		return relation.SelectOrdinals(t, pred)
	}
	return t
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
// CheckJoin is consulted with the *base tables* each side's rows derive
// from (Table.BaseTables) — so a forbidden pair is caught even after
// projections and filters (Fig. 3b: Prescriptions ⋈ Familydoctor).
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

// Run implements Step: the join, keeping its left ordinals beside the
// output.
func (j *JoinStep) Run(c *Context) error {
	out, ord, err := j.join(c, nil)
	if err == nil {
		stageKeeping(c, j.Out, out, fanout(ord))
	}
	return err
}

// Delta implements Step. Only an edit of the left side can be placed: the
// output is left-major, and a right row's matches are scattered all over
// it, so a right-side change reruns the join. The placed rows re-check the
// join permission — the PLAs may have moved since the full run.
func (j *JoinStep) Delta(c *Context, changes map[string]Change) (Change, bool, error) {
	lch := changes[strings.ToLower(j.Left)]
	if rch := changes[strings.ToLower(j.Right)]; !rch.Empty() || lch.Empty() {
		return Change{}, true, nil
	}
	l, err := c.Get(j.Left)
	if err != nil {
		return Change{}, false, err
	}
	return fanoutDelta(c, l, j.Out, lch, func(dirty []int) (*relation.Table, []int32, error) {
		return j.join(c, dirty)
	})
}

// join is the step: the join-permission check over the base tables
// of both sides, then the left rows at the indices in leftRows (nil = the
// whole left input — a full Run; the delta path passes the updated and
// appended rows) joined with the right input. Beside the output it
// returns, per output row, the ordinal of its left row among those joined.
func (j *JoinStep) join(c *Context, leftRows []int) (*relation.Table, []int32, error) {
	l, err := c.Get(j.Left)
	if err != nil {
		return nil, nil, err
	}
	r, err := c.Get(j.Right)
	if err != nil {
		return nil, nil, err
	}
	rbs := r.BaseTables()
	for _, lb := range l.BaseTables() {
		for _, rb := range rbs {
			if lb == rb {
				continue
			}
			if err := c.Guard.CheckJoin(lb, rb); err != nil {
				return nil, nil, &ViolationError{Step: j.name, Rule: "join-permission",
					Detail: fmt.Sprintf("%s join %s: %v", lb, rb, err), Cause: err}
			}
		}
	}
	if leftRows != nil {
		if l, err = relation.SliceRows(l, leftRows); err != nil {
			return nil, nil, err
		}
	}
	out, ord, err := relation.JoinOrdinals(relation.Rename(l, "l"), relation.Rename(r, "r"), j.On, j.Kind)
	if err != nil {
		return nil, nil, err
	}
	if unq, uerr := out.Schema.Unqualify(); uerr == nil {
		out.Schema = unq
	}
	out.Name = j.Out
	return out, ord, nil
}

// AggregateStep groups a staging table.
type AggregateStep struct {
	baseStep
	Input string
	Out   string
	Keys  []string
	Aggs  []relation.AggSpec
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

// Run implements Step: it groups the input. A first run keeps no
// accumulator (relation.GroupBy, which reuses a frozen input's grouping); a
// rebuild over an output staged before, as in a delta, keeps one beside the
// output for the next delta's appends.
func (a *AggregateStep) Run(c *Context) error {
	in, err := c.Get(a.Input)
	if err != nil {
		return err
	}
	if _, rebuild := c.rows(a.Out); !rebuild {
		out, err := relation.GroupBy(in, a.Keys, a.Aggs)
		if err == nil {
			out.Name = a.Out
			c.Put(a.Out, out)
		}
		return err
	}
	st, err := relation.NewGroupByState(in, a.Keys, a.Aggs)
	if err != nil {
		return err
	}
	return a.emit(c, st, in)
}

// Delta implements Step: an append-only input change feeds only the new
// rows to the accumulator kept beside the output; anything else, no
// accumulator (the output of a first run) or one a rolled-back delta fed
// (its source-row count is ahead of the input), reruns the step. The groups move anywhere: the output is Rebuilt.
func (a *AggregateStep) Delta(c *Context, changes map[string]Change) (Change, bool, error) {
	ch := changes[strings.ToLower(a.Input)]
	in, err := c.Get(a.Input)
	if err != nil {
		return Change{}, false, err
	}
	old, err := c.Get(a.Out)
	if err != nil {
		return Change{}, false, err
	}
	st, ok := old.Kept(a.Out).(*relation.GroupByState)
	if !ok || !ch.AppendOnly() || st.SourceRows() != in.NumRows()-ch.Appended {
		return Change{}, true, nil
	}
	feed, err := relation.SliceRows(in, appendSeq(nil, in.NumRows()-ch.Appended, in.NumRows()))
	if err != nil {
		return Change{}, false, err
	}
	return Change{Rebuilt: true}, false, a.emit(c, st, feed)
}

// emit feeds rows to st and stages its grouped output, keeping st beside it.
func (a *AggregateStep) emit(c *Context, st *relation.GroupByState, rows *relation.Table) error {
	if err := st.AddTable(rows); err != nil {
		return err
	}
	out := st.Result()
	out.Name = a.Out
	stageKeeping(c, a.Out, out, st)
	return nil
}

// mapCol rewrites one column of a table, preserving lineage and origins.
// The row loop polls ctx so cancellation lands mid-step on large tables,
// not only at the next wave boundary.
func mapCol(ctx context.Context, t *relation.Table, ci int, fn func(relation.Value) relation.Value) (*relation.Table, error) {
	return relation.MapColumn(t, ci, func(i int, v relation.Value) (relation.Value, error) {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return relation.Value{}, err
			}
		}
		return fn(v), nil
	})
}
