package relation

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// resident is the columnar form of one version of a table: what every
// render over that version would otherwise derive again from its rows. It
// hangs off the table it describes (Table.Freeze), is shared by the views
// that share the table's rows (Rename) and by no table that builds rows of
// its own, and is garbage with the version — so nothing ever invalidates
// it. Each part is built by the first reader that asks and
// published with an atomic pointer; a reader losing that race drops its
// copy and uses the published one. ApplyEdit hands the next version the
// published vectors and dictionaries, edited alike, and — when the edit only
// appends — the published groupings, extended by the appended rows (carry);
// a join index is never carried, nor a grouping across any other edit, and
// the next version's first reader builds its own.
type resident struct {
	// rows is the table's row count at Freeze. A table whose count has
	// moved since is read as if it had never been frozen.
	rows int
	// cols holds the typed vector of each column of an in-memory table; a
	// segment-backed table has none (its partitions decode per scan).
	cols []atomic.Pointer[Vector]
	// keys holds, per column of an in-memory table, the hash index the
	// single-key join builds over it as its right side.
	keys []atomic.Pointer[joinIndex]
	// dict holds each column's distinct-support dictionary (DistinctCodes).
	dict []atomic.Pointer[valueDict]
	// groups holds, per column of an in-memory table, the groups a
	// whole-table GroupBy by that column alone forms (grouping).
	groups []atomic.Pointer[grouping]
}

// valueDict is one column's DistinctCodes. Readers touch codes and card
// only; in, the value-to-code assignment (a code is an interner id less
// one), is append-only, written by the build and then only by the one
// successor that claims it (carry).
type valueDict struct {
	codes   []int32
	card    int
	in      *interner
	claimed atomic.Bool
}

// encode returns the code of v, assigning the next free one to a new value.
func (d *valueDict) encode(v Value) int32 { return int32(d.in.id(v)) - 1 }

// DistinctCodes returns column ci's distinct-support dictionary: rows share
// a code exactly when their values are equal under MapKey (NULL included),
// and card bounds every code. A frozen table builds it once per version, in
// first-seen order — by the interner's pass over its column vector, or a
// sequential ValueAt walk — and ApplyEdit carries it on. GroupBy reads its
// keys through it. ok is false when a cell cannot be read.
func (t *Table) DistinctCodes(ci int) (codes []int32, card int, ok bool) {
	r := t.frozen()
	if r != nil {
		if d := r.dict[ci].Load(); d != nil {
			return d.codes, d.card, true
		}
	}
	n := t.NumRows()
	d := &valueDict{codes: make([]int32, n), in: newInterner(min(n, 1024))}
	if t.seg == nil {
		ids := idBuf(n)
		d.in.vecIDs(t.column(ci), *ids)
		for ri, id := range *ids {
			d.codes[ri] = int32(id) - 1
		}
		idBufs.Put(ids)
	} else {
		for ri := range d.codes {
			v, err := t.ValueAt(ri, ci)
			if err != nil {
				return nil, 0, false
			}
			d.codes[ri] = d.encode(v)
		}
	}
	d.card = d.in.len()
	if r != nil && !r.dict[ci].CompareAndSwap(nil, d) {
		d = r.dict[ci].Load()
	}
	return d.codes, d.card, true
}

// joinIndex maps the MapKey of every non-null cell of one column to the
// rows holding it, ascending.
type joinIndex map[ValKey][]int32

func newJoinIndex(rows []Row, ci int) joinIndex {
	idx := make(joinIndex, len(rows))
	for j, r := range rows {
		if r[ci].IsNull() {
			continue
		}
		k := MapKey(r[ci])
		idx[k] = append(idx[k], int32(j))
	}
	return idx
}

// Freeze declares the table's rows and lineage final and lets readers keep
// their columnar form beside it. It is for whoever publishes a table to
// concurrent readers — sql.Catalog.Register and Refresh, and the provenance
// tracer's RegisterBase — and must be called before the table is shared.
// Append drops the form again; a write into a frozen table's rows is a bug
// VerifyResident finds. Lineage keeps the form it has.
func (t *Table) Freeze() {
	if t.res != nil && t.res.rows == t.NumRows() {
		return
	}
	t.res = newResident(t)
}

// newResident returns the empty resident form of t's current version.
func newResident(t *Table) *resident {
	r := &resident{rows: t.NumRows(), dict: make([]atomic.Pointer[valueDict], t.Schema.Len())}
	if t.seg == nil {
		r.cols = make([]atomic.Pointer[Vector], t.Schema.Len())
		r.keys = make([]atomic.Pointer[joinIndex], t.Schema.Len())
		r.groups = make([]atomic.Pointer[grouping], t.Schema.Len())
	}
	return r
}

// frozen returns the resident form if it still describes the table.
func (t *Table) frozen() *resident {
	if t.res == nil || t.res.rows != t.NumRows() {
		return nil
	}
	return t.res
}

// column returns column ci of an in-memory table as a vector: the resident
// one when the table is frozen, a fresh one otherwise.
func (t *Table) column(ci int) *Vector {
	r := t.frozen()
	if r == nil || ci >= len(r.cols) {
		return NewVector(t, ci)
	}
	if v := r.cols[ci].Load(); v != nil {
		return v
	}
	r.cols[ci].CompareAndSwap(nil, NewVector(t, ci))
	return r.cols[ci].Load()
}

// hashIndex returns the join index of column ci of an in-memory table: the
// resident one when the table is frozen, a fresh one otherwise. A version's
// index is built once and never patched; a new version builds its own.
func (t *Table) hashIndex(ci int) joinIndex {
	r := t.frozen()
	if r == nil || ci >= len(r.keys) {
		return newJoinIndex(t.Rows, ci)
	}
	if idx := r.keys[ci].Load(); idx != nil {
		return *idx
	}
	idx := newJoinIndex(t.Rows, ci)
	r.keys[ci].CompareAndSwap(nil, &idx)
	return *r.keys[ci].Load()
}

// carry returns the resident form of out, the version of old that edit e
// leads to (dirty: the rows it brought, final in out): each vector and
// dictionary readers published on old, edited the same way, and — when e
// only appends — each grouping, extended by the appended rows through the
// dictionary carried with it; and nothing else. A part not published, a
// join index, a dictionary an earlier successor claimed and a grouping
// whose dictionary did not come along stay for out's readers to build, as
// does a part whose edited form would differ from what they would build,
// and a grouping across an update, a removal or a Shift: a rewritten or
// removed row's group cannot give back its lineage without its member
// list. grow says the caller holds old's tail: arrays with room grow in
// place.
func carry(old, out *Table, e Edit, dirty []int, grow bool) *resident {
	r := old.frozen()
	if r == nil {
		return nil
	}
	nr := newResident(out)
	for ci := range r.cols {
		if v := r.cols[ci].Load(); v != nil {
			if w := editVector(v, out, ci, e, dirty, grow); w != nil {
				nr.cols[ci].Store(w)
			}
		}
	}
	for ci := range r.dict {
		if d := r.dict[ci].Load(); d != nil && d.claimed.CompareAndSwap(false, true) {
			if nd := editDict(d, out, ci, e, dirty, grow); nd != nil {
				nr.dict[ci].Store(nd)
			}
		}
	}
	if !e.onlyAppends() {
		return nr
	}
	for ci := range r.groups {
		if g, nd := r.groups[ci].Load(), nr.dict[ci].Load(); g != nil && nd != nil {
			nr.groups[ci].Store(extendGrouping(g, nd, out, ci, r.rows))
		}
	}
	return nr
}

// extendGrouping is g, column ci's grouping of the version an append came
// from, extended for out by its rows from on, whose codes d holds (carried
// from the dictionary g was built through). A row of a known group counts
// in it; a row of an unseen code opens a group at the end, which is where
// first sight puts it, since the appended rows follow every kept one. Only
// a group the append touched gets new lineage — its parts widened or merged
// with its new rows' refs (groupLineage.union) — and every other group, and
// every part the append names nothing of, stays shared. g is copied, never
// written: its readers see nothing move.
func extendGrouping(g *grouping, d *valueDict, out *Table, ci, from int) *grouping {
	ng := &grouping{byCode: make([]int32, d.card), keys: slices.Clone(g.keys),
		counts: slices.Clone(g.counts), lineage: slices.Clone(g.lineage)}
	for c := copy(ng.byCode, g.byCode); c < len(ng.byCode); c++ {
		ng.byCode[c] = -1
	}
	fresh := make([][]uint32, len(g.keys)) // per group, the appended rows it draws
	for ri := from; ri < len(out.Rows); ri++ {
		c := d.codes[ri]
		gi := ng.byCode[c]
		if gi < 0 {
			gi = int32(len(ng.keys))
			ng.byCode[c] = gi
			ng.keys, ng.counts, ng.lineage = append(ng.keys, out.Rows[ri][ci]), append(ng.counts, 0), append(ng.lineage, nil)
			fresh = append(fresh, nil)
		}
		ng.counts[gi]++
		fresh[gi] = append(fresh[gi], uint32(ri))
	}
	var sc lineageScratch
	for gi, rows := range fresh {
		if rows != nil {
			sc.addRows(out, 0, rows)
			ng.lineage[gi] = ng.lineage[gi].union(sc.pack())
		}
	}
	return ng
}

// editVector is v, column ci of the version an edit came from, spliced for
// out: typed arrays and null mask cut and grown with editArray, the dirty
// rows set from out.Rows. It is nil where NewVector(out, ci) would not be v's
// typed form: v generic, a dirty cell of another kind, no cell left that is
// not null.
func editVector(v *Vector, out *Table, ci int, e Edit, dirty []int, grow bool) *Vector {
	n := len(out.Rows)
	if v.V != nil || v.Kind == TNull || n == 0 {
		return nil
	}
	w := &Vector{Kind: v.Kind, n: n}
	if v.Null != nil {
		w.Null = editArray(v.Null, e, n, grow)
	}
	var set func(ri int, c Value)
	switch v.Kind {
	case TString:
		w.S = editArray(v.S, e, n, grow)
		set = func(ri int, c Value) { w.S[ri] = c.S }
	case TInt:
		w.I = editArray(v.I, e, n, grow)
		set = func(ri int, c Value) { w.I[ri] = c.I }
	case TFloat:
		w.F = editArray(v.F, e, n, grow)
		set = func(ri int, c Value) { w.F[ri] = c.F }
	case TBool:
		w.B = editArray(v.B, e, n, grow)
		set = func(ri int, c Value) { w.B[ri] = c.B }
	case TDate:
		w.T = editArray(v.T, e, n, grow)
		set = func(ri int, c Value) { w.T[ri] = c.T }
	}
	for _, ri := range dirty {
		c := out.Rows[ri][ci]
		if c.Kind != v.Kind && c.Kind != TNull {
			return nil
		}
		if c.Kind == TNull {
			if w.Null == nil {
				w.Null = make([]bool, n, roomFor(n))
			}
			c = Null() // a null cell holds the zero value, as NewVector leaves it
		}
		if w.Null != nil {
			w.Null[ri] = c.Kind == TNull
		}
		set(ri, c)
	}
	if w.Null != nil && (len(e.Removed) > 0 || len(e.Updated) > 0) {
		// Only a removal or an update can take away the last null, or the
		// last cell that is not.
		nulls := 0
		for _, null := range w.Null {
			if null {
				nulls++
			}
		}
		switch nulls {
		case n:
			return nil
		case 0:
			w.Null = nil
		}
	}
	return w
}

// editDict is d, column ci's dictionary of the version an edit came from,
// spliced for out like a vector, the dirty rows encoded against d's ids.
// A value that left the table keeps its code, so card only bounds the codes
// in use; once it outgrows the table twice over, out's readers build anew.
func editDict(d *valueDict, out *Table, ci int, e Edit, dirty []int, grow bool) *valueDict {
	n := len(out.Rows)
	nd := &valueDict{codes: editArray(d.codes, e, n, grow), in: d.in}
	for _, ri := range dirty {
		nd.codes[ri] = nd.encode(out.Rows[ri][ci])
	}
	if nd.card = nd.in.len(); nd.card > 2*n+64 {
		return nil
	}
	return nd
}

// VerifyResident re-derives whatever columnar form readers have published
// for t, or an edit carried to it — each column vector and join index from
// t.Rows, each dictionary from t's cells, each grouping from its cells and
// lineage — and reports the first cell where the published form differs:
// the trace of a write into a table after it was frozen, or of a carry that
// edited a part wrongly. Tests call it after runs, or rounds, that
// interleave renders with writes.
func VerifyResident(t *Table) error {
	r := t.frozen()
	if r == nil {
		return nil
	}
	for ci := range r.cols {
		v := r.cols[ci].Load()
		if v == nil {
			continue
		}
		if v.Len() != len(t.Rows) {
			return fmt.Errorf("relation: %s: resident vector of column %s has %d cells for %d rows", t.Name, t.Schema.Columns[ci].Name, v.Len(), len(t.Rows))
		}
		for ri, row := range t.Rows {
			if got, want := v.Value(ri), row[ci]; got.Kind != want.Kind || got.Key() != want.Key() {
				return fmt.Errorf("relation: %s: resident vector of column %s holds %v at row %d, the table %v",
					t.Name, t.Schema.Columns[ci].Name, got, ri, want)
			}
		}
	}
	for ci := range r.keys {
		got := r.keys[ci].Load()
		if got == nil {
			continue
		}
		want := newJoinIndex(t.Rows, ci)
		if len(*got) != len(want) {
			return fmt.Errorf("relation: %s: resident join index of column %s has %d keys, the table %d", t.Name, t.Schema.Columns[ci].Name, len(*got), len(want))
		}
		for k, rows := range want {
			if !slices.Equal((*got)[k], rows) {
				return fmt.Errorf("relation: %s: resident join index of column %s maps %v to rows %v, the table to %v",
					t.Name, t.Schema.Columns[ci].Name, k, (*got)[k], rows)
			}
		}
	}
	for ci := range r.dict {
		d := r.dict[ci].Load()
		if d == nil {
			continue
		}
		if len(d.codes) != r.rows {
			return fmt.Errorf("relation: %s: dictionary of column %s has %d codes for %d rows", t.Name, t.Schema.Columns[ci].Name, len(d.codes), r.rows)
		}
		keys, used := map[ValKey]int32{}, make([]bool, d.card)
		for ri, c := range d.codes {
			v, err := t.ValueAt(ri, ci)
			if err != nil {
				return err
			}
			had, ok := keys[MapKey(v)]
			if c < 0 || int(c) >= d.card || (ok && had != c) || (!ok && used[c]) {
				return fmt.Errorf("relation: %s: dictionary of column %s codes %v at row %d as %d (card %d), not one code per value",
					t.Name, t.Schema.Columns[ci].Name, v, ri, c, d.card)
			}
			keys[MapKey(v)], used[c] = c, true
		}
	}
	for ci := range r.groups {
		if g := r.groups[ci].Load(); g != nil {
			if err := verifyGrouping(t, ci, g); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyGrouping re-derives column ci's groups from t's cells and lineage —
// first-seen keys, member rows, packed lineage — and reports the first
// group or row where g, its published grouping, differs.
func verifyGrouping(t *Table, ci int, g *grouping) error {
	name := t.Schema.Columns[ci].Name
	d := t.res.dict[ci].Load()
	if d == nil || len(g.counts) != len(g.keys) || len(g.lineage) != len(g.keys) {
		return fmt.Errorf("relation: %s: grouping of column %s is malformed", t.Name, name)
	}
	byKey := map[ValKey]int32{}
	var members [][]uint32
	for ri, row := range t.Rows {
		v := row[ci]
		gi, ok := byKey[MapKey(v)]
		if !ok {
			gi = int32(len(members))
			if int(gi) >= len(g.keys) || g.keys[gi].Kind != v.Kind || g.keys[gi].Key() != v.Key() {
				return fmt.Errorf("relation: %s: grouping of column %s opens group %d at row %d, whose key is %v", t.Name, name, gi, ri, v)
			}
			byKey[MapKey(v)], members = gi, append(members, nil)
		}
		members[gi] = append(members[gi], uint32(ri))
		if c := d.codes[ri]; int(c) >= len(g.byCode) || g.byCode[c] != gi {
			return fmt.Errorf("relation: %s: grouping of column %s does not put row %d in group %d", t.Name, name, ri, gi)
		}
	}
	if len(members) != len(g.keys) {
		return fmt.Errorf("relation: %s: grouping of column %s has %d groups, the table %d", t.Name, name, len(g.keys), len(members))
	}
	var sc lineageScratch
	for gi, rows := range members {
		if int(g.counts[gi]) != len(rows) {
			return fmt.Errorf("relation: %s: grouping of column %s counts %d rows in group %d, the table %d", t.Name, name, g.counts[gi], gi, len(rows))
		}
		sc.addRows(t, 0, rows)
		if got, want := g.lineage[gi].appendTo(nil), sc.pack().appendTo(nil); !slices.Equal(got, want) {
			return fmt.Errorf("relation: %s: grouping of column %s holds other lineage in group %d: %d refs, its rows' %d",
				t.Name, name, gi, len(got), len(want))
		}
	}
	return nil
}
