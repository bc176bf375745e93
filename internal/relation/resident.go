package relation

import (
	"slices"
	"sync/atomic"
)

// resident is what readers derive from one version of a table and keep
// beside its cells: indexes, not a copy of them — the vectors are the
// version. It hangs off the table it describes (Table.Freeze), is shared by
// the views that share the table's vectors (Rename) and by no table that
// stores cells of its own, and is garbage with the version — so nothing
// ever invalidates it. Each part is built by the first reader that asks and
// published with an atomic pointer; a reader losing that race drops its
// copy and uses the published one. ApplyEdit hands the next version the
// published dictionaries, edited alike, and — when the edit only appends —
// the published groupings, extended by the appended rows (carry); a join
// index is never carried, nor a grouping across any other edit, and the
// next version's first reader builds its own.
type resident struct {
	// rows is the table's row count at Freeze. A table whose count has
	// moved since is read as if it had never been frozen.
	rows int
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
// sequential ValueAt walk over a segment-backed one — and ApplyEdit carries
// it on. GroupBy reads its keys through it. ok is false when a cell cannot
// be read.
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

// joinIndex maps every non-null cell of one column to the rows holding
// it, ascending: a string column's by the string itself, any other's by
// MapKey.
type joinIndex struct {
	str map[string][]int32
	key map[ValKey][]int32
}

func newJoinIndex(v *Vector) *joinIndex {
	if v.V == nil && v.Kind == TString {
		str := make(map[string][]int32, min(len(v.Dict), v.n))
		for j, c := range v.S {
			if v.Null == nil || !v.Null[j] {
				s := v.Dict[c]
				str[s] = append(str[s], int32(j))
			}
		}
		return &joinIndex{str: str}
	}
	key := make(map[ValKey][]int32, v.n)
	for j := 0; j < v.n; j++ {
		if c := v.Value(j); !c.IsNull() {
			k := MapKey(c)
			key[k] = append(key[k], int32(j))
		}
	}
	return &joinIndex{key: key}
}

// rows returns the rows whose cell equals cell i of v under MapKey.
func (ix *joinIndex) rows(v *Vector, i int) []int32 {
	if ix.str == nil {
		c := v.Value(i)
		if c.IsNull() {
			return nil
		}
		return ix.key[MapKey(c)]
	}
	switch {
	case v.V == nil && v.Kind == TString && (v.Null == nil || !v.Null[i]):
		return ix.str[v.Dict[v.S[i]]]
	case v.V != nil && v.V[i].Kind == TString:
		return ix.str[v.V[i].S]
	}
	return nil // MapKey sends strings nowhere else
}

// probe appends, per row i of the key vector v (row start+i of its table)
// and row j the index holds its key at, start+i to lo and j to ro — or,
// when left and no row does, start+i and -1.
func (ix *joinIndex) probe(v *Vector, start int, left bool, lo, ro []int32) ([]int32, []int32) {
	if ix.str != nil && v.V == nil && v.Kind == TString && v.Null == nil {
		// The common foreign key: no NULL, no MapKey, and — when the
		// dictionary is no larger than the column — one lookup per
		// distinct key.
		var byCode [][]int32
		var seen []bool
		if len(v.Dict) <= v.n {
			byCode, seen = make([][]int32, len(v.Dict)), make([]bool, len(v.Dict))
		}
		for i, c := range v.S {
			var js []int32
			switch {
			case byCode == nil:
				js = ix.str[v.Dict[c]]
			case seen[c]:
				js = byCode[c]
			default:
				js = ix.str[v.Dict[c]]
				byCode[c], seen[c] = js, true
			}
			for _, j := range js {
				lo, ro = append(lo, int32(start+i)), append(ro, j)
			}
			if len(js) == 0 && left {
				lo, ro = append(lo, int32(start+i)), append(ro, -1)
			}
		}
		return lo, ro
	}
	for i := 0; i < v.n; i++ {
		js := ix.rows(v, i)
		for _, j := range js {
			lo, ro = append(lo, int32(start+i)), append(ro, j)
		}
		if len(js) == 0 && left {
			lo, ro = append(lo, int32(start+i)), append(ro, -1)
		}
	}
	return lo, ro
}

// Freeze declares the table final and lets readers keep what they derive
// from it beside it. A table in edge form is transposed into its stored
// form here, once: its rows become vectors and Rows is nil afterwards. It
// is for whoever publishes a table to concurrent readers —
// sql.Catalog.Register and Refresh, which put it in the catalog's next
// snapshot — and must be called before the table is shared. Append drops
// what readers derived. Lineage keeps the form it has.
func (t *Table) Freeze() {
	if t.seg == nil && t.vecs == nil {
		vecs, _ := t.vectors() // an edge-form table's cannot fail
		t.stored(vecs, len(t.Rows))
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

// column returns column ci of an in-memory table as a vector: a stored
// table's own, an edge-form table's rows transposed.
func (t *Table) column(ci int) *Vector {
	if t.vecs != nil {
		return t.vecs[ci]
	}
	return transpose(t.Rows, ci)
}

// hashIndex returns the join index of column ci, whose vector is v: the
// resident one when the table is frozen and in memory, a fresh one
// otherwise. A version's index is built once and never patched; a new
// version builds its own.
func (t *Table) hashIndex(ci int, v *Vector) *joinIndex {
	r := t.frozen()
	if r == nil || ci >= len(r.keys) {
		return newJoinIndex(v)
	}
	if idx := r.keys[ci].Load(); idx != nil {
		return idx
	}
	r.keys[ci].CompareAndSwap(nil, newJoinIndex(v))
	return r.keys[ci].Load()
}

// carry returns the resident form of out, the version of old that edit e
// leads to (dirty: the rows it brought, final in out): each dictionary
// readers published on old, edited the same way, and — when e only appends
// — each grouping, extended by the appended rows through the dictionary
// carried with it; and nothing else. A part not published, a join index, a
// dictionary an earlier successor claimed and a grouping whose dictionary
// did not come along stay for out's readers to build, as does a grouping
// across an update, a removal or a Shift: a rewritten or removed row's
// group cannot give back its lineage without its member list. grow says
// the caller holds old's tail: arrays with room grow in place.
func carry(old, out *Table, e Edit, dirty []int, grow bool) *resident {
	r := old.frozen()
	if r == nil {
		return nil
	}
	nr := newResident(out)
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
	col := out.vecs[ci]
	for ri := from; ri < out.n; ri++ {
		c := d.codes[ri]
		gi := ng.byCode[c]
		if gi < 0 {
			gi = int32(len(ng.keys))
			ng.byCode[c] = gi
			ng.keys, ng.counts, ng.lineage = append(ng.keys, col.Value(ri)), append(ng.counts, 0), append(ng.lineage, nil)
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

// editDict is d, column ci's dictionary of the version an edit came from,
// spliced for out like a vector, the dirty rows encoded against d's ids.
// A value that left the table keeps its code, so card only bounds the codes
// in use; once it outgrows the table twice over, out's readers build anew.
func editDict(d *valueDict, out *Table, ci int, e Edit, dirty []int, grow bool) *valueDict {
	n := out.n
	nd := &valueDict{codes: editArray(d.codes, e, n, grow), in: d.in}
	for _, ri := range dirty {
		nd.codes[ri] = nd.encode(out.vecs[ci].Value(ri))
	}
	if nd.card = nd.in.len(); nd.card > 2*n+64 {
		return nil
	}
	return nd
}
