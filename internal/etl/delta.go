package etl

import (
	"context"
	"fmt"
	"sort"

	"plabi/internal/relation"
)

// This file implements incremental refresh: source deltas
// (insert/update/delete batches keyed per source table) propagated
// step-by-step through an already-run pipeline. A Change is an edit
// script — rows removed, rows replaced, rows appended, base rows the
// lineage must be renumbered past — and each step's delta rule
// (Step.Delta) turns the edit of its input into the edit of its output and
// applies it to the output it already has (relation.ApplyEdit): row-wise
// transforms and entity resolution pass the script through one to one,
// recomputing only the replaced and appended rows; filters and joins,
// which keep the input ordinal of every output row beside their output,
// place it there and re-probe the same rows. What a step cannot place — an
// opaque transform, a changed right or canon side, an update that changes
// how many rows an input row yields, an aggregate over anything but an
// append — reruns that one step and hands Rebuilt downstream. Row indices
// stay dense throughout, so the refreshed state is byte-identical, values
// and lineage, to a full run over the edited sources.
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
	// StepsIncremental counts steps whose delta rule placed their inputs'
	// changes in the output they had (one-to-one or by ordinals, a kept
	// aggregate accumulator, an extract re-point).
	StepsIncremental int
	// StepsRebuilt counts steps whose Run ran.
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
// already hold their new versions. Over a fresh Context (nothing staged)
// every step runs Run. Otherwise a step none of whose inputs changed is
// skipped: its staging output stays valid, and an output a
// continue-on-violation run blocked stays absent. A step with a changed
// input runs Run when its output is absent, an input was rebuilt or an
// earlier step overwrote its output, and its delta rule (Step.Delta)
// otherwise. A violation stops the delta, even over the context of a run
// that continued past violations.
//
// The application is atomic: on any error — injected fault at the
// etl.delta site, a violation surfaced by a guard re-check, a
// validation failure — the staging area is restored to its pre-delta
// state and the error returned. Callers then retry or apply the delta over
// a fresh Context; the sources are theirs to roll back.
func (p *Pipeline) ApplyDelta(ctx context.Context, c *Context, changes map[string]Change) (DeltaResult, error) {
	_, res, err := p.apply(ctx, c, changes, false, false)
	return res, err
}

// oneToOneDelta refreshes the output of a step that yields exactly one
// output row per input row, in input order: the edit of the input in is
// the edit of the output, with recompute supplying the step's rows for
// the input rows the edit brought (dirty, indices into in). It asks for a
// rerun when the output does not line up with the input.
func oneToOneDelta(c *Context, in *relation.Table, out string, ch Change,
	recompute func(dirty []int) (*relation.Table, error)) (Change, bool, error) {
	old, err := c.Get(out)
	if err != nil || old.NumRows() != in.NumRows()-ch.Appended+len(ch.Removed) {
		return Change{}, true, nil
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
		return Change{}, true, nil
	}
	next, err := relation.ApplyEdit(old, ch.Edit, sub)
	if err != nil {
		return Change{}, false, err
	}
	c.Put(out, next)
	return ch, false, nil
}

// fanoutDelta refreshes the output of a step that keeps its fanout beside
// its output: the output rows of a removed input row are removed; an
// updated input row is probed again and its new rows replace its old ones,
// as long as there are as many (otherwise every later row would move: the
// step asks for a rerun); the rows of appended input rows are appended.
// probe runs the step over the rows of in at dirty and numbers its output
// by position in dirty. Joining or filtering only those rows reproduces the
// full step byte for byte because the output is input-major.
func fanoutDelta(c *Context, in *relation.Table, out string, ch Change,
	probe func(dirty []int) (*relation.Table, []int32, error)) (Change, bool, error) {
	old, err := c.Get(out)
	if err != nil {
		return Change{}, true, nil
	}
	f, ok := old.Kept(out).(fanout)
	if !ok || len(f) != old.NumRows() {
		return Change{}, true, nil
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
			return Change{}, true, nil
		}
		e.Updated = appendSeq(e.Updated, lo, hi)
	}
	e.Appended = len(subOrd) - k
	next, err := relation.ApplyEdit(old, e, sub)
	if err != nil {
		return Change{}, false, err
	}
	// The next version's ordinals: f less the removed rows', renumbered — a
	// copy, so that old keeps f whatever becomes of this delta — and then
	// the appended rows'.
	ord := f
	if len(ch.Removed) > 0 {
		w, _ := f.span(ch.Removed[0])
		ord = make(fanout, w, len(f)-len(e.Removed)+e.Appended)
		copy(ord, f)
		gone := 0 // removed input rows before the one at hand
		for _, o := range f[w:] {
			for gone < len(ch.Removed) && ch.Removed[gone] < int(o) {
				gone++
			}
			if gone < len(ch.Removed) && ch.Removed[gone] == int(o) {
				continue
			}
			ord = append(ord, o-int32(gone))
		}
	}
	firstNew := in.NumRows() - ch.Appended - len(ch.Updated)
	for _, o := range subOrd[k:] {
		ord = append(ord, int32(firstNew)+o)
	}
	stageKeeping(c, out, next, ord)
	return Change{Edit: e}, false, nil
}

// appendSeq appends from, from+1, … to-1 to idx.
func appendSeq(idx []int, from, to int) []int {
	for i := from; i < to; i++ {
		idx = append(idx, i)
	}
	return idx
}
