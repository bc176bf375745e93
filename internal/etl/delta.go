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
// step-by-step through an already-run pipeline. A Change is an edit
// script — rows removed, rows replaced, rows appended, base rows the
// lineage must be renumbered past — and each step turns the edit of its
// input into the edit of its output and applies it to the output it
// already has (relation.ApplyEdit): row-wise transforms and entity
// resolution pass the script through one to one, recomputing only the
// replaced and appended rows; filters and joins, which retain the input
// ordinal of every output row, place it in their output and re-probe the
// same rows. What a step cannot place — an opaque transform, a changed
// right or canon side, an update that changes how many rows an input row
// yields, an aggregate over anything but an append — reruns that one step
// and hands Rebuilt downstream. Row indices stay dense throughout, so the
// refreshed state is byte-identical, values and lineage, to a full run
// over the edited sources.
//
// The whole application is atomic against the staging area: any error
// (injected fault, violation, validation) restores the pre-delta staging
// map and leaves the previous outputs serving.

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

// Change describes how one relation changed during a delta application:
// the edit script from its previous version to its new one, or Rebuilt
// when there is none. The zero Change means "nothing changed".
type Change struct {
	// Edit is the script: Removed and Updated index the previous version
	// (sorted, distinct, disjoint), Appended counts the new rows at the
	// end, Shift lists per base table the rows a derived relation's
	// lineage was renumbered past. All of it is unset when Rebuilt.
	relation.Edit
	// Rebuilt marks a wholesale recompute: nothing relates the new
	// version's rows to the previous one's (an opaque transform, a changed
	// right or canon side, an update that changed an input row's fan-out,
	// two changes that do not compose, a pipeline rebuilt from a dropped
	// context).
	Rebuilt bool
}

// AppendOnly reports whether the change only appended rows.
func (ch Change) AppendOnly() bool {
	return !ch.Rebuilt && len(ch.Updated) == 0 && len(ch.Removed) == 0 && len(ch.Shift) == 0
}

// Empty reports whether nothing changed.
func (ch Change) Empty() bool { return !ch.Rebuilt && ch.Edit.Empty() }

// Merge composes two successive changes of the same relation, which has
// finalLen rows after both, into the one change that leads from before ch
// to after next. next's indices address the version ch produced, so they
// are mapped back through ch's removals; a row ch appended and next
// removed was never there, one next updated is still just appended.
// Changes that carry a lineage shift, or whose counts cannot both be
// right, do not compose and merge to Rebuilt.
func (ch Change) Merge(next Change, finalLen int) Change {
	mid := finalLen - next.Appended + len(next.Removed) // rows between the two
	kept := mid - ch.Appended                           // of which older than ch
	if ch.Rebuilt || next.Rebuilt || len(ch.Shift) > 0 || len(next.Shift) > 0 || kept < 0 {
		return Change{Rebuilt: true}
	}
	// back maps the indices below kept to the version before ch and counts
	// the others, which name rows ch appended.
	back := func(idx []int) (old []int, fresh int) {
		gone := 0
		for _, i := range idx {
			if i >= kept {
				fresh++
				continue
			}
			i += gone
			for gone < len(ch.Removed) && ch.Removed[gone] <= i {
				gone++
				i++
			}
			old = append(old, i)
		}
		return old, fresh
	}
	removed, cancelled := back(next.Removed)
	updated, _ := back(next.Updated)
	var out Change
	out.Removed = sortedDistinct(append(removed, ch.Removed...))
	out.Updated = without(sortedDistinct(append(updated, ch.Updated...)), out.Removed)
	out.Appended = ch.Appended - cancelled + next.Appended
	return out
}

// sortedDistinct sorts idx in place and drops repeats.
func sortedDistinct(idx []int) []int {
	sort.Ints(idx)
	out := idx[:0]
	for i, v := range idx {
		if i == 0 || v != idx[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// without drops from the sorted a, in place, what the sorted b holds.
func without(a, b []int) []int {
	out := a[:0]
	for _, v := range a {
		for len(b) > 0 && b[0] < v {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != v {
			out = append(out, v)
		}
	}
	return out
}

// Apply returns a new version of t with the delta applied, plus the
// resulting Change. It is relation.ApplyEdit's copy-on-write (concurrent
// readers keep the old version, an insert-only delta may grow it in place)
// with the Change as the edit. Updates and deletes address pre-delta row
// indices, however often: the last update of a row wins, a delete wins
// over any update, a repeated delete is one delete. Inserts append, out
// of a delete's reach. Deleted rows are compacted away in one pass, so
// the rows behind them move down and a base table's lineage with them.
func (d *Delta) Apply(t *relation.Table) (*relation.Table, Change, error) {
	arity, n := t.Schema.Len(), t.NumRows()
	var ch Change
	last := make(map[int]relation.Row, len(d.Updates))
	for _, u := range d.Updates {
		if u.Row < 0 || u.Row >= n {
			return nil, Change{}, fmt.Errorf("etl: delta update row %d out of range [0,%d) in %q", u.Row, n, t.Name)
		}
		if len(u.Vals) != arity {
			return nil, Change{}, fmt.Errorf("etl: delta update arity %d != %d in %q", len(u.Vals), arity, t.Name)
		}
		last[u.Row] = u.Vals
		ch.Updated = append(ch.Updated, u.Row)
	}
	for _, ri := range d.Deletes {
		if ri < 0 || ri >= n {
			return nil, Change{}, fmt.Errorf("etl: delta delete row %d out of range [0,%d) in %q", ri, n, t.Name)
		}
	}
	ch.Removed = sortedDistinct(append([]int(nil), d.Deletes...))
	ch.Updated = without(sortedDistinct(ch.Updated), ch.Removed)
	repl := make([]relation.Row, 0, len(ch.Updated)+len(d.Inserts))
	for _, ri := range ch.Updated {
		repl = append(repl, last[ri])
	}
	for _, r := range d.Inserts {
		if len(r) != arity {
			return nil, Change{}, fmt.Errorf("etl: delta insert arity %d != %d in %q", len(r), arity, t.Name)
		}
		repl = append(repl, r)
	}
	ch.Appended = len(d.Inserts)
	out, err := relation.ApplyEdit(t, ch.Edit, &relation.Table{Name: t.Name, Schema: t.Schema, Base: true, Rows: repl})
	if err != nil {
		return nil, Change{}, err
	}
	return out, ch, nil
}

// DeltaResult reports one incremental refresh.
type DeltaResult struct {
	// StepsIncremental counts steps that applied their input's edit to the
	// output they had (one-to-one or placed by ordinals, retained
	// aggregate, extract re-point).
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
// skipped outright — their staging outputs stay valid.
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
		res.Changed[strings.ToLower(s.Output())] = outCh
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
	if _, clobbered := changes[strings.ToLower(s.Output())]; clobbered {
		// An earlier step of this delta wrote the same relation: the
		// version this step produced last time is gone.
		return rerun()
	}
	switch st := s.(type) {
	case *Extract:
		// The source map already holds the new table; re-point the
		// staging alias at it and pass the source change through. Rows
		// removed from anywhere but the end renumber the rows behind them,
		// which everything derived from the table must follow.
		src, ok := st.Source.Table(st.Table)
		if !ok {
			return Change{}, false, fmt.Errorf("source %q has no table %q", st.Source.Name, st.Table)
		}
		c.Put(st.As, src)
		ch := changes[strings.ToLower(st.Source.Name+"."+st.Table)]
		if n := len(ch.Removed); n > 0 && ch.Removed[0] != src.NumRows()-ch.Appended {
			ch.Shift = map[string][]int{src.Name: ch.Removed}
		}
		return ch, true, nil
	case *Transform:
		ch := changes[strings.ToLower(st.Input)]
		in, err := c.Get(st.Input)
		if err != nil {
			return Change{}, false, err
		}
		switch {
		case st.Kind == DeltaRowWise:
			return oneToOneDelta(c, in, st.Out, ch, rerun, func(dirty []int) (*relation.Table, error) {
				sub, err := relation.SliceRows(in, dirty)
				if err != nil {
					return nil, err
				}
				return st.Fn(ctx, sub)
			})
		case st.Kind == DeltaFilter && st.keep != nil:
			return fanoutDelta(c, &st.kept, in, st.Out, ch, rerun, func(dirty []int) (*relation.Table, []int32, error) {
				sub, err := relation.SliceRows(in, dirty)
				if err != nil {
					return nil, nil, err
				}
				return st.keep(sub)
			})
		}
		return rerun()
	case *JoinStep:
		// Only an edit of the left side can be placed: output is
		// left-major, a right row's matches are scattered all over it.
		// The step body re-checks the join permission — the PLAs may have
		// moved since the full run.
		lch, lok := changes[strings.ToLower(st.Left)]
		if _, rok := changes[strings.ToLower(st.Right)]; rok || !lok {
			return rerun()
		}
		l, err := c.Get(st.Left)
		if err != nil {
			return Change{}, false, err
		}
		return fanoutDelta(c, &st.probed, l, st.Out, lch, rerun, func(dirty []int) (*relation.Table, []int32, error) {
			return st.join(c, dirty)
		})
	case *EntityResolution:
		// A canon change invalidates every match. Stats accumulate across
		// incremental refreshes (a full rerun resets them).
		ich, iok := changes[strings.ToLower(st.Input)]
		if _, cok := changes[strings.ToLower(st.Canon)]; cok || !iok {
			return rerun()
		}
		in, err := c.Get(st.Input)
		if err != nil {
			return Change{}, false, err
		}
		return oneToOneDelta(c, in, st.Out, ich, rerun, func(dirty []int) (*relation.Table, error) {
			return st.resolve(c, dirty)
		})
	case *AggregateStep:
		return p.aggDelta(c, st, changes)
	default:
		return rerun()
	}
}

// oneToOneDelta refreshes the output of a step that yields exactly one
// output row per input row, in input order: the edit of the input in is
// the edit of the output, with recompute supplying the step's rows for
// the input rows the edit brought (dirty, indices into in).
func oneToOneDelta(c *Context, in *relation.Table, out string, ch Change, rerun func() (Change, bool, error),
	recompute func(dirty []int) (*relation.Table, error)) (Change, bool, error) {
	old, err := c.Get(out)
	if err != nil || ch.Rebuilt || old.NumRows() != in.NumRows()-ch.Appended+len(ch.Removed) {
		return rerun()
	}
	dirty, err := ch.Dirty(in.NumRows())
	if err != nil {
		return Change{}, false, err
	}
	sub, err := recompute(dirty)
	if err != nil {
		return Change{}, false, err
	}
	if sub.NumRows() != len(dirty) {
		// The step is not one-to-one over this input after all.
		return rerun()
	}
	next, err := relation.ApplyEdit(old, ch.Edit, sub)
	if err != nil {
		return Change{}, false, err
	}
	c.Put(out, next)
	return ch, true, nil
}

// fanoutDelta refreshes the output of a step that retains its fanout f:
// the output rows of a removed input row are removed; an updated input
// row is probed again and its new rows replace its old ones, as long as
// there are as many (otherwise every later row would move: the step
// reruns); the rows of appended input rows are appended. probe runs the
// step over the rows of in at dirty and numbers its output by position in
// dirty. Joining or filtering only those rows reproduces the full step
// byte for byte because the output is input-major.
func fanoutDelta(c *Context, f *fanout, in *relation.Table, out string, ch Change, rerun func() (Change, bool, error),
	probe func(dirty []int) (*relation.Table, []int32, error)) (Change, bool, error) {
	old, err := c.Get(out)
	if err != nil || ch.Rebuilt || f.of != old || len(f.ord) != old.NumRows() {
		return rerun()
	}
	dirty, err := ch.Dirty(in.NumRows())
	if err != nil {
		return Change{}, false, err
	}
	sub, subOrd, err := probe(dirty)
	if err != nil {
		return Change{}, false, err
	}
	e := relation.Edit{Shift: ch.Shift}
	for _, i := range ch.Removed {
		lo, hi := f.span(i)
		e.Removed = appendSeq(e.Removed, lo, hi)
	}
	k := 0 // rows of sub placed so far
	for pos, i := range ch.Updated {
		lo, hi := f.span(i)
		from := k
		for k < len(subOrd) && int(subOrd[k]) == pos {
			k++
		}
		if k-from != hi-lo {
			return rerun()
		}
		e.Updated = appendSeq(e.Updated, lo, hi)
	}
	e.Appended = len(subOrd) - k
	next, err := relation.ApplyEdit(old, e, sub)
	if err != nil {
		return Change{}, false, err
	}
	// Bring the ordinals along, in place: a failure from here on leaves f
	// describing no table, and the rolled-back staging area reruns the step.
	f.of = nil
	ord := f.ord
	if len(ch.Removed) > 0 {
		w, _ := f.span(ch.Removed[0])
		gone := 0 // removed input rows before the one at hand
		for _, o := range ord[w:] {
			for gone < len(ch.Removed) && ch.Removed[gone] < int(o) {
				gone++
			}
			if gone < len(ch.Removed) && ch.Removed[gone] == int(o) {
				continue
			}
			ord[w] = o - int32(gone)
			w++
		}
		ord = ord[:w]
	}
	firstNew := in.NumRows() - ch.Appended - len(ch.Updated)
	for _, o := range subOrd[k:] {
		ord = append(ord, int32(firstNew)+o)
	}
	f.record(c, out, next, ord)
	return Change{Edit: e}, true, nil
}

// appendSeq appends from, from+1, … to-1 to idx.
func appendSeq(idx []int, from, to int) []int {
	for i := from; i < to; i++ {
		idx = append(idx, i)
	}
	return idx
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
		feed, err = relation.SliceRows(in, appendSeq(nil, in.NumRows()-ch.Appended, in.NumRows()))
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
