package etl

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"plabi/internal/fault"
	"plabi/internal/relation"
)

// This file implements incremental refresh: source deltas
// (insert/update/delete batches keyed per source table) propagated
// step-by-step through an already-run pipeline. Each step consumes the
// changes of its inputs and produces the change of its output —
// row-wise transforms splice recomputed rows, filters and left-append
// joins extend their previous output, aggregates re-emit from a
// retained GroupBy accumulator, and anything else reruns wholesale.
// The whole application is atomic against the staging area: any error
// (injected fault, violation, validation) restores the pre-delta
// staging map and leaves the previous outputs serving.

// RowUpdate replaces the values of one existing row.
type RowUpdate struct {
	// Row is the row index in the pre-delta version of the table.
	Row int
	// Vals is the full replacement row (source-table arity).
	Vals relation.Row
}

// Delta is one source-table change set: rows to append, rows to replace
// in place, and rows to delete (pre-delta indices).
type Delta struct {
	Source  string
	Table   string
	Inserts []relation.Row
	Updates []RowUpdate
	Deletes []int
}

// Batch groups the deltas applied and committed together.
type Batch struct {
	Deltas []Delta
}

// Change describes how one relation changed during a delta application.
// The zero Change means "no rows changed".
type Change struct {
	// Appended counts rows appended at the end of the table.
	Appended int
	// Updated lists row indices replaced in place (indices are stable:
	// they are valid in both the old and new version).
	Updated []int
	// Rebuilt marks a wholesale recompute — the positional mapping to
	// the previous version is unknown (deletes shift every later row's
	// index; opaque transforms promise nothing).
	Rebuilt bool
}

// AppendOnly reports whether the change only appended rows.
func (ch Change) AppendOnly() bool { return !ch.Rebuilt && len(ch.Updated) == 0 }

// Empty reports whether nothing changed.
func (ch Change) Empty() bool { return !ch.Rebuilt && ch.Appended == 0 && len(ch.Updated) == 0 }

// Merge combines two successive changes to the same relation into one
// conservative summary.
func (ch Change) Merge(next Change) Change {
	if ch.Rebuilt || next.Rebuilt {
		return Change{Rebuilt: true}
	}
	out := Change{Appended: ch.Appended + next.Appended}
	out.Updated = append(append([]int(nil), ch.Updated...), next.Updated...)
	return out
}

// Normalize sorts and dedups Updated and drops updates that land inside
// the appended window of a table with finalLen rows (the append
// recompute already covers them).
func (ch Change) Normalize(finalLen int) Change {
	if ch.Rebuilt || len(ch.Updated) == 0 {
		return ch
	}
	sort.Ints(ch.Updated)
	kept := ch.Updated[:0]
	prev := -1
	for _, ri := range ch.Updated {
		if ri == prev || ri >= finalLen-ch.Appended {
			continue
		}
		kept = append(kept, ri)
		prev = ri
	}
	ch.Updated = kept
	return ch
}

// Apply returns a new version of t with the delta applied, never
// mutating t (copy-on-write: concurrent readers keep the old version),
// plus the resulting Change. Updates and deletes address pre-delta row
// indices; inserts append. A delta with deletes reports Rebuilt, since
// deletions shift every later row index and positional lineage with it.
func (d *Delta) Apply(t *relation.Table) (*relation.Table, Change, error) {
	m, err := t.Materialize()
	if err != nil {
		return nil, Change{}, err
	}
	arity := t.Schema.Len()
	rows := append([]relation.Row(nil), m.Rows...)
	var ch Change
	for _, u := range d.Updates {
		if u.Row < 0 || u.Row >= len(rows) {
			return nil, Change{}, fmt.Errorf("etl: delta update row %d out of range [0,%d) in %q", u.Row, len(rows), t.Name)
		}
		if len(u.Vals) != arity {
			return nil, Change{}, fmt.Errorf("etl: delta update arity %d != %d in %q", len(u.Vals), arity, t.Name)
		}
		rows[u.Row] = u.Vals
		ch.Updated = append(ch.Updated, u.Row)
	}
	if len(d.Deletes) > 0 {
		del := append([]int(nil), d.Deletes...)
		sort.Sort(sort.Reverse(sort.IntSlice(del)))
		seen := false
		prev := 0
		for _, ri := range del {
			if seen && ri == prev {
				continue
			}
			seen, prev = true, ri
			if ri < 0 || ri >= len(rows) {
				return nil, Change{}, fmt.Errorf("etl: delta delete row %d out of range [0,%d) in %q", ri, len(rows), t.Name)
			}
			rows = append(rows[:ri], rows[ri+1:]...)
		}
		ch = Change{Rebuilt: true}
	}
	for _, r := range d.Inserts {
		if len(r) != arity {
			return nil, Change{}, fmt.Errorf("etl: delta insert arity %d != %d in %q", len(r), arity, t.Name)
		}
		rows = append(rows, r)
	}
	if !ch.Rebuilt {
		ch.Appended = len(d.Inserts)
		ch = ch.Normalize(len(rows))
	}
	out := &relation.Table{Name: t.Name, Schema: t.Schema, Base: t.Base, Rows: rows}
	return out, ch, nil
}

// DeltaResult reports one incremental refresh.
type DeltaResult struct {
	// StepsIncremental counts steps recomputed from their input deltas
	// only (splice, append, retained aggregate, extract re-point).
	StepsIncremental int
	// StepsRebuilt counts steps rerun wholesale.
	StepsRebuilt int
	// StepsUntouched counts steps whose inputs did not change.
	StepsUntouched int
	// Changed maps each changed staging relation (lower-cased name,
	// including the source-qualified inputs fed in) to its change.
	Changed map[string]Change
}

// ApplyDelta propagates per-relation source changes through the
// pipeline. changes is keyed by the extract input names
// ("source.table", lower-cased or not); the sources' tables must
// already hold their new versions. Steps whose inputs are untouched are
// skipped outright — their staging outputs, and any folded render built
// on them, stay valid.
//
// The application is atomic: on any error — injected fault at the
// etl.delta site, a violation surfaced by a guard re-check, a
// validation failure — the staging area is restored to its pre-delta
// state and the error returned. Callers then retry or fall back to a
// full run; the sources are theirs to roll back.
func (p *Pipeline) ApplyDelta(ctx context.Context, c *Context, changes map[string]Change) (DeltaResult, error) {
	res := DeltaResult{Changed: map[string]Change{}}
	for k, v := range changes {
		res.Changed[strings.ToLower(k)] = v
	}
	c.setCtx(ctx)
	defer c.setCtx(nil)
	start := time.Now()

	// Staging tables are copy-on-write, so a shallow map snapshot is a
	// full rollback point.
	c.mu.RLock()
	snap := make(map[string]*relation.Table, len(c.Staging))
	for k, v := range c.Staging {
		snap[k] = v
	}
	c.mu.RUnlock()
	rollback := func() {
		c.mu.Lock()
		c.Staging = snap
		c.mu.Unlock()
	}

	for _, s := range p.Steps {
		if err := ctx.Err(); err != nil {
			rollback()
			return res, err
		}
		relevant := false
		for _, in := range s.Inputs() {
			if ch, ok := res.Changed[strings.ToLower(in)]; ok && !ch.Empty() {
				relevant = true
				break
			}
		}
		if !relevant {
			res.StepsUntouched++
			continue
		}
		var (
			outCh       Change
			incremental bool
		)
		err := fault.Safely("etl.delta("+s.Name()+")", c.Metrics, func() error {
			if err := c.Faults.Hit(ctx, fault.SiteETLDelta); err != nil {
				return err
			}
			var serr error
			outCh, incremental, serr = p.stepDelta(ctx, c, s, res.Changed)
			return serr
		})
		if err != nil {
			rollback()
			return res, fmt.Errorf("etl: delta at step %q: %w", s.Name(), err)
		}
		if incremental {
			res.StepsIncremental++
			c.Metrics.Counter("etl.delta.incremental").Inc()
		} else {
			res.StepsRebuilt++
			c.Metrics.Counter("etl.delta.rebuilt").Inc()
		}
		key := strings.ToLower(s.Output())
		if prev, ok := res.Changed[key]; ok {
			outCh = prev.Merge(outCh)
		}
		res.Changed[key] = outCh
		rowsOut, _ := c.rows(s.Output())
		if c.Observe != nil {
			c.Observe(s.Name(), s.Op(), s.Output(), countRows(c, s.Inputs()), rowsOut, nil)
		}
		c.Graph.AddStep(s.Op(), s.Inputs(), s.Output(), s.Name()+" (delta)", countRows(c, s.Inputs()), rowsOut)
	}
	c.Metrics.Histogram("etl.delta.duration").Observe(time.Since(start))
	c.Metrics.Counter("etl.deltas").Inc()
	return res, nil
}

// stepDelta recomputes one step from its input changes. It returns the
// change of the step's output and whether the recompute was incremental
// (false = the step reran wholesale).
func (p *Pipeline) stepDelta(ctx context.Context, c *Context, s Step, changes map[string]Change) (Change, bool, error) {
	rerun := func() (Change, bool, error) {
		if err := s.Run(c); err != nil {
			return Change{}, false, err
		}
		return Change{Rebuilt: true}, false, nil
	}
	switch st := s.(type) {
	case *Extract:
		// The source map already holds the new table; re-point the
		// staging alias at it and pass the source change through.
		src, ok := st.Source.Table(st.Table)
		if !ok {
			return Change{}, false, fmt.Errorf("source %q has no table %q", st.Source.Name, st.Table)
		}
		c.Put(st.As, src)
		return changes[strings.ToLower(st.Source.Name+"."+st.Table)], true, nil
	case *Transform:
		return p.transformDelta(ctx, c, st, rerun, changes)
	case *JoinStep:
		return p.joinDelta(c, st, rerun, changes)
	case *EntityResolution:
		return p.erDelta(c, st, rerun, changes)
	case *AggregateStep:
		return p.aggDelta(c, st, changes)
	default:
		return rerun()
	}
}

// appendedIdx lists the indices of the appended window of t under ch.
func appendedIdx(t *relation.Table, ch Change) []int {
	n := t.NumRows()
	return seq(n-ch.Appended, n)
}

// seq returns [from, to).
func seq(from, to int) []int {
	idx := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		idx = append(idx, i)
	}
	return idx
}

// spliceOutputs applies a row-wise recompute to the previous output:
// subOut's first len(updated) rows replace the updated positions, the
// rest append.
func spliceOutputs(oldOut, subOut *relation.Table, updated []int) (*relation.Table, error) {
	out := oldOut
	if len(updated) > 0 {
		head, err := relation.SliceRows(subOut, seq(0, len(updated)))
		if err != nil {
			return nil, err
		}
		if out, err = relation.SpliceRows(out, updated, head); err != nil {
			return nil, err
		}
	}
	if subOut.NumRows() > len(updated) {
		tail, err := relation.SliceRows(subOut, seq(len(updated), subOut.NumRows()))
		if err != nil {
			return nil, err
		}
		var err2 error
		if out, err2 = relation.ConcatRows(out, tail); err2 != nil {
			return nil, err2
		}
	}
	return out, nil
}

func (p *Pipeline) transformDelta(ctx context.Context, c *Context, t *Transform, rerun func() (Change, bool, error), changes map[string]Change) (Change, bool, error) {
	ch := changes[strings.ToLower(t.Input)]
	oldOut, oerr := c.Get(t.Out)
	if oerr != nil || ch.Rebuilt || t.Kind == DeltaOpaque {
		return rerun()
	}
	in, err := c.Get(t.Input)
	if err != nil {
		return Change{}, false, err
	}
	switch t.Kind {
	case DeltaRowWise:
		dirty := append(append([]int(nil), ch.Updated...), appendedIdx(in, ch)...)
		sub, err := relation.SliceRows(in, dirty)
		if err != nil {
			return Change{}, false, err
		}
		subOut, err := t.Fn(ctx, sub)
		if err != nil {
			return Change{}, false, err
		}
		if subOut.NumRows() != len(dirty) {
			// Fn is not row-wise over this input after all.
			return rerun()
		}
		out, err := spliceOutputs(oldOut, subOut, ch.Updated)
		if err != nil {
			return Change{}, false, err
		}
		c.Put(t.Out, out)
		return Change{Appended: ch.Appended, Updated: append([]int(nil), ch.Updated...)}, true, nil
	case DeltaFilter:
		if len(ch.Updated) > 0 {
			return rerun()
		}
		sub, err := relation.SliceRows(in, appendedIdx(in, ch))
		if err != nil {
			return Change{}, false, err
		}
		subOut, err := t.Fn(ctx, sub)
		if err != nil {
			return Change{}, false, err
		}
		out, err := relation.ConcatRows(oldOut, subOut)
		if err != nil {
			return Change{}, false, err
		}
		c.Put(t.Out, out)
		return Change{Appended: subOut.NumRows()}, true, nil
	}
	return rerun()
}

// joinDelta handles the one join shape that distributes over deltas
// with positional stability: a pure append on the left with an
// untouched right side. Join output is left-major (for each left row in
// order, its matches in right order), so joining only the appended left
// rows and concatenating reproduces the full join byte-for-byte. The step
// body re-checks the join permission: the appended rows derive from the
// same base tables, but the PLAs may have moved since the full run.
func (p *Pipeline) joinDelta(c *Context, j *JoinStep, rerun func() (Change, bool, error), changes map[string]Change) (Change, bool, error) {
	lch, lok := changes[strings.ToLower(j.Left)]
	_, rok := changes[strings.ToLower(j.Right)]
	oldOut, oerr := c.Get(j.Out)
	if oerr != nil || rok || !lok || !lch.AppendOnly() {
		return rerun()
	}
	l, err := c.Get(j.Left)
	if err != nil {
		return Change{}, false, err
	}
	dout, err := j.join(c, appendedIdx(l, lch))
	if err != nil {
		return Change{}, false, err
	}
	out, err := relation.ConcatRows(oldOut, dout)
	if err != nil {
		return Change{}, false, err
	}
	c.Put(j.Out, out)
	return Change{Appended: dout.NumRows()}, true, nil
}

// erDelta re-resolves only the changed input rows against an unchanged
// canonical table (a canon change invalidates every match and reruns).
// Stats accumulate across incremental refreshes (a full rerun resets
// them).
func (p *Pipeline) erDelta(c *Context, e *EntityResolution, rerun func() (Change, bool, error), changes map[string]Change) (Change, bool, error) {
	ich, iok := changes[strings.ToLower(e.Input)]
	_, cok := changes[strings.ToLower(e.Canon)]
	oldOut, oerr := c.Get(e.Out)
	if oerr != nil || cok || !iok || ich.Rebuilt {
		return rerun()
	}
	in, err := c.Get(e.Input)
	if err != nil {
		return Change{}, false, err
	}
	subOut, err := e.resolve(c, append(append([]int(nil), ich.Updated...), appendedIdx(in, ich)...))
	if err != nil {
		return Change{}, false, err
	}
	out, err := spliceOutputs(oldOut, subOut, ich.Updated)
	if err != nil {
		return Change{}, false, err
	}
	out.Name = e.Out
	c.Put(e.Out, out)
	return Change{Appended: ich.Appended, Updated: append([]int(nil), ich.Updated...)}, true, nil
}

// aggDelta re-emits the grouped output from the retained accumulator.
// An append-only input change feeds only the new rows; anything else —
// including a state left behind by a rolled-back delta, detected by the
// source-row count — rebuilds the state from the full input. Either way
// the grouped output can change in arbitrary positions, so downstream
// consumers see Rebuilt.
func (p *Pipeline) aggDelta(c *Context, a *AggregateStep, changes map[string]Change) (Change, bool, error) {
	ch := changes[strings.ToLower(a.Input)]
	in, err := c.Get(a.Input)
	if err != nil {
		return Change{}, false, err
	}
	st, feed := a.state, in
	incremental := ch.AppendOnly() && st != nil && st.SourceRows() == in.NumRows()-ch.Appended
	if incremental {
		feed, err = relation.SliceRows(in, appendedIdx(in, ch))
	} else {
		st, err = relation.NewGroupByState(in, a.Keys, a.Aggs)
	}
	if err != nil {
		return Change{}, false, err
	}
	if err := st.AddTable(feed); err != nil {
		return Change{}, false, err
	}
	a.state = st
	out := st.Result()
	out.Name = a.Out
	c.Put(a.Out, out)
	return Change{Rebuilt: true}, incremental, nil
}
