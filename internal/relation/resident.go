package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// resident is the columnar form of one version of a table: what every
// render over that version would otherwise derive again from its rows and
// lineage sets. It hangs off the table it describes (Table.Freeze), is
// shared by the views that share the table's rows (Rename) and by no table
// that builds rows of its own, and is garbage with the version — so nothing
// ever invalidates it. Each part is built by the first reader that asks and
// published with an atomic pointer; a reader losing that race drops its
// copy and uses the published one. ApplyEdit hands the next version the
// published vectors, dictionaries and lineage columns, edited alike (carry).
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
	lin  atomic.Pointer[lineageCols]
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

// lineageCols is explicit row lineage by column: for each base table the
// lineage names, the ordinal of the one row of it that each row derives
// from, or -1. Only lineage in which no row has two refs into one base
// table and every ordinal fits an int32 has this form; for any other the
// resident caches notColumnar and readers keep to the lineage sets.
type lineageCols struct {
	tables []string // ascending
	cols   [][]int32
}

var notColumnar = &lineageCols{}

// Freeze declares the table's rows and lineage final and lets readers keep
// their columnar form beside it. It is for whoever publishes a table to
// concurrent readers — sql.Catalog.Register and Refresh, and the provenance
// tracer's RegisterBase — and must be called before the table is shared.
// Append drops the form again; a write into a frozen table's rows or
// lineage sets is a bug VerifyResident finds. Packed lineage is
// materialized into Lineage: a published table is never packed.
func (t *Table) Freeze() {
	if t.packed != nil {
		t.Lineage, t.packed = materialize(t.packed), nil
	}
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

// lineageColumns returns the table's explicit lineage by column, or nil
// when the table is not frozen, keeps its lineage implicit or has lineage
// without that form.
func (t *Table) lineageColumns() *lineageCols {
	r := t.frozen()
	if r == nil || t.Base || t.Lineage == nil || len(t.Lineage) != r.rows {
		return nil
	}
	lc := r.lin.Load()
	if lc == nil {
		r.lin.CompareAndSwap(nil, newLineageCols(t.Lineage))
		lc = r.lin.Load()
	}
	if lc == notColumnar {
		return nil
	}
	return lc
}

// newLineageCols transposes lin, or returns notColumnar.
func newLineageCols(lin []LineageSet) *lineageCols {
	lc := &lineageCols{}
	for ri, set := range lin {
		for k, ref := range set {
			if ref.Row < 0 || ref.Row > math.MaxInt32 {
				return notColumnar
			}
			// Sets are sorted by table and most rows name every table, so
			// the k-th ref is usually into the k-th table met.
			ti := k
			if ti >= len(lc.tables) || lc.tables[ti] != ref.Table {
				for ti = 0; ti < len(lc.tables) && lc.tables[ti] != ref.Table; ti++ {
				}
			}
			if ti == len(lc.tables) {
				col := make([]int32, len(lin))
				for i := range col {
					col[i] = -1
				}
				lc.tables, lc.cols = append(lc.tables, ref.Table), append(lc.cols, col)
			}
			if lc.cols[ti][ri] >= 0 {
				return notColumnar
			}
			lc.cols[ti][ri] = int32(ref.Row)
		}
	}
	if len(lc.tables) == 0 {
		return notColumnar
	}
	sort.Sort(lc)
	return lc
}

func (lc *lineageCols) Len() int           { return len(lc.tables) }
func (lc *lineageCols) Less(i, j int) bool { return lc.tables[i] < lc.tables[j] }
func (lc *lineageCols) Swap(i, j int) {
	lc.tables[i], lc.tables[j] = lc.tables[j], lc.tables[i]
	lc.cols[i], lc.cols[j] = lc.cols[j], lc.cols[i]
}

// carry returns the resident form of out, the version of old that edit e
// leads to (dirty: the rows it brought, final in out): each vector,
// dictionary and the lineage columns readers published on old, edited the
// same way, and nothing else — a part not published, a join index and a
// dictionary an earlier successor claimed stay for out's readers to build,
// as does a part whose edited form would differ from what they would build.
// grow says the caller holds old's tail: arrays with room grow in place.
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
	if lc := r.lin.Load(); lc != nil && lc != notColumnar && out.Lineage != nil {
		if nl := editLineageCols(lc, out, e, dirty, grow); nl != nil {
			nr.lin.Store(nl)
		}
	}
	return nr
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

// editLineageCols is lc, the lineage columns of the version an edit came
// from, spliced for out: each column cut and grown with editArray, the
// ordinals of kept rows renumbered past the rows e.Shift says their table
// lost, the dirty rows transposed from out.Lineage. It is nil where
// newLineageCols(out.Lineage) would list other tables: a dirty row naming a
// table lc does not, or one table twice, or a table no row names any more.
func editLineageCols(lc *lineageCols, out *Table, e Edit, dirty []int, grow bool) *lineageCols {
	n := len(out.Rows)
	nl := &lineageCols{tables: lc.tables, cols: make([][]int32, len(lc.cols))}
	for ti, col := range lc.cols {
		c := editArray(col, e, n, grow)
		if lost := e.Shift[lc.tables[ti]]; len(lost) > 0 {
			for ri, ord := range c {
				if int(ord) >= lost[0] {
					c[ri] = ord - int32(sort.SearchInts(lost, int(ord)))
				}
			}
		}
		nl.cols[ti] = c
	}
	for _, ri := range dirty {
		for _, c := range nl.cols {
			c[ri] = -1
		}
		for _, ref := range out.Lineage[ri] {
			ti, ok := slices.BinarySearch(nl.tables, ref.Table)
			if !ok || ref.Row < 0 || ref.Row > math.MaxInt32 || nl.cols[ti][ri] >= 0 {
				return nil
			}
			nl.cols[ti][ri] = int32(ref.Row)
		}
	}
	if len(e.Removed) > 0 || len(e.Updated) > 0 {
		for _, c := range nl.cols {
			if !slices.ContainsFunc(c, func(ord int32) bool { return ord >= 0 }) {
				return nil
			}
		}
	}
	return nl
}

// VerifyResident re-derives whatever columnar form readers have published
// for t, or an edit carried to it — each column vector and join index from
// t.Rows, each dictionary from t's cells, the lineage columns from
// t.Lineage — and reports the first cell
// where the published form differs: the trace of a write into a table after
// it was frozen, or of a carry that edited a part wrongly. Tests call it
// after runs, or rounds, that interleave renders with writes.
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
	got := r.lin.Load()
	if got == nil {
		return nil
	}
	lin := t.Lineage
	if lin == nil && t.seg == nil {
		lin = t.lineage() // a renamed view of a base table published them
	}
	want := newLineageCols(lin)
	if !slices.Equal(got.tables, want.tables) {
		return fmt.Errorf("relation: %s: resident lineage columns cover tables %v, the lineage %v", t.Name, got.tables, want.tables)
	}
	for ti, table := range want.tables {
		if len(got.cols[ti]) != len(want.cols[ti]) {
			return fmt.Errorf("relation: %s: resident lineage column %s has %d rows, the lineage %d", t.Name, table, len(got.cols[ti]), len(want.cols[ti]))
		}
		for ri, ord := range want.cols[ti] {
			if got.cols[ti][ri] != ord {
				return fmt.Errorf("relation: %s: resident lineage column %s holds %d at row %d, the lineage %d",
					t.Name, table, got.cols[ti][ri], ri, ord)
			}
		}
	}
	return nil
}
