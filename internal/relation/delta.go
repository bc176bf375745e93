package relation

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// This file holds the copy-on-write helpers the ETL delta propagation
// composes per-step outputs from: SliceRows cuts the changed rows out of a
// step's input, ApplyEdit applies the resulting edit script to the step's
// previous output. Neither ever changes what an input table reads —
// concurrent renders keep reading the old version while a delta is being
// applied; an append writes only past the end of the old version's arrays.

// SliceRows builds a derived in-memory table holding exactly t's rows at
// the given indices, in order, with their lineage and t's column origins:
// each column gathered at idx, so a stored t is never materialized.
// Operators applied to the slice (mapCol, Rename+Join) produce rows and
// provenance byte-identical to the same operator applied to the full table
// at those positions — the basis for row-wise delta splicing.
func SliceRows(t *Table, idx []int) (*Table, error) {
	n := t.NumRows()
	ord := make([]int32, len(idx))
	for k, ri := range idx {
		if ri < 0 || ri >= n {
			return nil, fmt.Errorf("relation: slice row %d out of range [0,%d)", ri, n)
		}
		ord[k] = int32(ri)
	}
	out := t.derived(t.Name)
	if t.vecs == nil && t.seg == nil { // edge form: transpose the slice alone
		rows := make([]Row, len(idx))
		for k, ri := range idx {
			rows[k] = t.Rows[ri]
		}
		vecs, _ := (&Table{Schema: t.Schema, Rows: rows}).vectors()
		out.stored(vecs, len(idx))
	} else {
		vecs, err := t.vectors()
		if err != nil {
			return nil, err
		}
		out.stored(gatherAll(vecs, ord), len(idx))
	}
	gatherLineage(out, t, ord)
	return out, nil
}

// Edit is an edit script from one version of a table to the next: which
// rows of the previous version are gone, which were replaced where they
// stand, how many rows the new version has past the end of the old one —
// and, for a derived table, which base rows its lineage can no longer
// name. Row indices are dense in every version, so a removal renumbers
// whatever follows it; every index in an Edit addresses the previous
// version. The zero Edit changes nothing.
type Edit struct {
	// Removed lists the dropped rows: sorted, distinct.
	Removed []int
	// Updated lists the rows replaced in place: sorted, distinct, disjoint
	// from Removed. Such a row sits at its index less the removals before
	// it in the new version.
	Updated []int
	// Appended counts the rows added at the end of the new version.
	Appended int
	// Shift names, per base table, the rows (sorted, distinct) that table
	// lost: a lineage ref b#q of a kept row becomes b#(q-k), k the number
	// of b's lost rows before q. Only a mid-table removal shifts anything;
	// a base table that lost its last rows renumbers nobody and is absent.
	Shift map[string][]int
}

// Empty reports whether the edit changes nothing, rows or lineage.
func (e Edit) Empty() bool {
	return e.Appended == 0 && e.onlyAppends()
}

// onlyAppends reports whether the edit leaves every row of the previous
// version, and its lineage, as it was.
func (e Edit) onlyAppends() bool {
	return len(e.Updated) == 0 && len(e.Removed) == 0 && len(e.Shift) == 0
}

// Dirty lists the rows of the new version (newLen rows) whose content the
// edit brings: the updated rows at their new positions, then the appended
// window. It rejects a script whose index lists are not sorted, distinct
// and disjoint.
func (e Edit) Dirty(newLen int) ([]int, error) {
	oldLen := newLen - e.Appended + len(e.Removed)
	if e.Appended < 0 || oldLen < len(e.Removed) {
		return nil, fmt.Errorf("relation: edit (+%d, -%d) does not lead to a table of %d rows", e.Appended, len(e.Removed), newLen)
	}
	for i, ri := range e.Removed {
		if ri < 0 || ri >= oldLen || (i > 0 && ri <= e.Removed[i-1]) {
			return nil, fmt.Errorf("relation: edit removes row %d of %d out of order or range", ri, oldLen)
		}
	}
	dirty := make([]int, 0, len(e.Updated)+e.Appended)
	gone := 0 // removed rows before the updated row at hand
	for i, ri := range e.Updated {
		for gone < len(e.Removed) && e.Removed[gone] < ri {
			gone++
		}
		if ri < 0 || ri >= oldLen || (i > 0 && ri <= e.Updated[i-1]) || (gone < len(e.Removed) && e.Removed[gone] == ri) {
			return nil, fmt.Errorf("relation: edit updates row %d of %d out of order or range, or removes it too", ri, oldLen)
		}
		dirty = append(dirty, ri-gone)
	}
	for ri := newLen - e.Appended; ri < newLen; ri++ {
		dirty = append(dirty, ri)
	}
	return dirty, nil
}

// ApplyEdit returns the version of old the edit leads to, stored, and
// copy-on-write: old's cells and lineage read the same afterwards. repl
// holds the new content in Dirty order — one row per updated row, then the
// appended rows — and may be nil when there is none. One pass per array
// drops the removed ranges from each column vector and lineage column, and
// the ordinals of kept rows are renumbered past the base rows e.Shift says
// their table lost (a kept row naming a lost row itself is an error: the
// caller's removals are incomplete); the dirty rows take repl's. A base
// table stays one: its rows are their own origin and renumber by position.
// The result is byte-identical, values and lineage, to recomputing the
// table from the edited inputs.
//
// The new version inherits what readers published on old (see carry). An edit that only appends, made to a version the edit path built,
// writes into the room it left behind old's arrays — old's readers never
// look past its length — as long as it is the first to claim that room;
// any other edit, and a second successor of one version, copies once into
// arrays with room to spare.
func ApplyEdit(old *Table, e Edit, repl *Table) (*Table, error) {
	ov, err := old.vectors()
	if err != nil {
		return nil, err
	}
	if repl == nil {
		repl = &Table{Schema: old.Schema, vecs: []*Vector{}}
	} else if !old.Schema.Equal(repl.Schema) {
		return nil, fmt.Errorf("relation: edit schema mismatch (%s vs %s)", old.Schema, repl.Schema)
	}
	if rn := repl.NumRows(); rn != len(e.Updated)+e.Appended {
		return nil, fmt.Errorf("relation: edit brings %d rows for %d updated and %d appended", rn, len(e.Updated), e.Appended)
	}
	n := old.NumRows() - len(e.Removed) + e.Appended
	dirty, err := e.Dirty(n)
	if err != nil {
		return nil, err
	}
	var rv []*Vector
	if len(dirty) > 0 {
		if rv, err = repl.vectors(); err != nil {
			return nil, err
		}
	}
	grow := e.onlyAppends() && old.claimTail()
	var out *Table
	if old.Base {
		out = &Table{Name: old.Name, Schema: old.Schema, Base: true}
	} else {
		out = old.derived(old.Name)
		if err := editLineage(out, old, repl, e, dirty, grow); err != nil {
			return nil, fmt.Errorf("relation: edit of %s: %w", old.Name, err)
		}
	}
	vecs := make([]*Vector, len(ov))
	for ci, v := range ov {
		var from *Vector
		if rv != nil {
			from = rv[ci]
		}
		vecs[ci] = editVector(v, e, n, dirty, from)
	}
	out.stored(vecs, n)
	out.tail = new(atomic.Bool)
	out.res = carry(old, out, e, dirty, grow)
	return out, nil
}

// editLineage gives out, the version of the derived table om that edit e
// leads to, its lineage: om's, edited like the rows, its kept rows'
// ordinals renumbered by e.Shift, and repl's for the dirty rows. Columns
// stay columns — each aligned by table with repl's, grown in place under
// grow — and lineage becomes packed when either side's is.
func editLineage(out, om, repl *Table, e Edit, dirty []int, grow bool) error {
	n := om.NumRows() - len(e.Removed) + e.Appended
	kept := n - e.Appended // the rows that hold om's lineage until the dirty ones take repl's
	if om.packed != nil || repl.packed != nil {
		var sc lineageScratch
		out.packed, out.from = editArray(packedRows(om), e, n, grow), mergeTables(om.lineageTables(), repl.lineageTables())
		rp := packedRows(repl)
		for ri, gl := range out.packed[:kept] {
			if !slices.ContainsFunc(gl, func(p LineagePart) bool { return len(e.Shift[p.Table]) > 0 }) {
				continue
			}
			for _, p := range gl {
				if err := sc.addShifted(p, e.Shift[p.Table], ri); err != nil {
					return err
				}
			}
			out.packed[ri] = sc.pack()
		}
		for i, ri := range dirty {
			out.packed[ri] = rp[i]
		}
		return nil
	}
	oc, rc := om.columns(), repl.columns()
	tables, oi, ri := alignTables(oc.tables, rc.tables)
	out.lin = lineageCols{tables: tables, cols: make([][]int32, len(tables))}
	for k, table := range tables {
		col := editArray(oc.column(oi[k], om.NumRows()), e, n, grow)
		if lost := e.Shift[table]; len(lost) > 0 {
			for r, ord := range col[:kept] {
				if int(ord) < lost[0] {
					continue
				}
				x, gone := slices.BinarySearch(lost, int(ord))
				if gone {
					return fmt.Errorf("row %d is kept but derives from the removed %s#%d", r, table, ord)
				}
				col[r] = ord - int32(x)
			}
		}
		from := rc.column(ri[k], repl.NumRows())
		for i, r := range dirty {
			col[r] = from[i]
		}
		out.lin.cols[k] = col
	}
	return nil
}

// addShifted gathers the rows of part p of row ri's lineage, renumbered
// past the rows lost (sorted) of its table.
func (sc *lineageScratch) addShifted(p LineagePart, lost []int, ri int) error {
	k := sc.bucket(p.Table)
	var err error
	p.Rows(func(r int) bool {
		x, gone := slices.BinarySearch(lost, r)
		if gone {
			err = fmt.Errorf("row %d is kept but derives from the removed %s#%d", ri, p.Table, r)
			return false
		}
		sc.rows[k] = append(sc.rows[k], r-x)
		return true
	})
	return err
}

// claimTail reports whether the caller may write past the end of t's
// lineage columns and dictionary codes: t is a version the edit path
// built, and no one has claimed the room behind it before. The claim is
// one-shot. A vector, which versions of several tables may share, has a
// claim of its own (editVector).
func (t *Table) claimTail() bool {
	return t.tail != nil && t.tail.CompareAndSwap(false, true)
}

// roomFor is the capacity the edit path gives an array of n elements it
// copies: room for the appends of the versions to come.
func roomFor(n int) int { return n + n/8 + 64 }

// editArray returns a, one array of a version, edited into n elements for
// the next: the removed elements dropped, the rest moved down, the tail up
// to n left for the caller to fill. When grow (the caller holds the claim
// on a's room and the edit only appends) and a has the room, the
// result is a itself, grown; otherwise a fresh array with roomFor(n).
func editArray[T any](a []T, e Edit, n int, grow bool) []T {
	if grow && n <= cap(a) {
		return a[:n]
	}
	out := make([]T, n, roomFor(n))
	w, from := 0, 0
	for _, ri := range e.Removed {
		w += copy(out[w:], a[from:ri])
		from = ri + 1
	}
	copy(out[w:], a[from:])
	return out
}

// JoinOrdinals is Join reporting, beside the joined rows, the ordinal in
// l of the left row each one extends. The output is left-major, so the
// ordinals never decrease and the rows of one left row are a contiguous
// run — what a join step retains to place a later edit of l in its
// output.
func JoinOrdinals(l, r *Table, pred Expr, kind JoinKind) (*Table, []int32, error) {
	return joinOrd(l, r, pred, kind, false)
}
