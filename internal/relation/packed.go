package relation

import (
	"math/bits"
	"slices"
	"strings"
)

// A grouped table keeps each row's lineage packed (GroupByState.Result):
// per base table, tables ascending by name, the distinct rows of it the
// group draws from — a bitset when they are dense, a sorted run otherwise.
// A threshold counts it as it is (LineageParts, CountCodes); RowLineage
// turns a row of it into a LineageSet only for whoever asks for the refs
// themselves (Explain, disputes, evidence). Select, Project, Extend, Sort,
// Limit and Batch.ToTable forward a row's lineage in the form they find it
// (AppendDerived); every other reader materializes, and Freeze does, so a
// published table is never packed.

// groupLineage is one row's packed lineage, its parts tables ascending. It
// is shared by every table the row is forwarded to and never written.
type groupLineage []LineagePart

// LineagePart is one base table's share of a row's lineage: Len distinct
// rows of Table. Its rows are held one of three ways: a bitset, a sorted
// run, or — for a row whose lineage is an explicit set — that set's run of
// refs into Table.
type LineagePart struct {
	Table string
	n     int
	base  int        // the row bit 0 of words stands for; a multiple of 64
	words []uint64   // a bitset over the rows, when they are dense
	rows  []int      // the rows themselves, ascending, otherwise
	refs  LineageSet // an explicit set's refs into Table
}

// Len returns the number of distinct rows in the part.
func (p LineagePart) Len() int { return p.n }

// Rows calls fn with each row of the part, ascending, until fn returns
// false; it reports whether fn never did.
func (p LineagePart) Rows(fn func(row int) bool) bool {
	for _, r := range p.rows {
		if !fn(r) {
			return false
		}
	}
	for _, ref := range p.refs {
		if !fn(ref.Row) {
			return false
		}
	}
	for wi, w := range p.words {
		for ; w != 0; w &= w - 1 {
			if !fn(p.base + wi<<6 + bits.TrailingZeros64(w)) {
				return false
			}
		}
	}
	return true
}

// CountCodes returns the number of distinct codes[r] over the part's rows
// r, skipping the rows codes does not cover. seen is a zeroed bitset over
// the codes, which it marks: what a threshold counting distinct values
// through a dictionary (Table.DistinctCodes) walks, with no call per row.
func (p LineagePart) CountCodes(codes []int32, seen []uint64) int {
	n := 0
	mark := func(r int) {
		if r < 0 || r >= len(codes) {
			return
		}
		if c := codes[r]; seen[c>>6]&(1<<(c&63)) == 0 {
			seen[c>>6] |= 1 << (c & 63)
			n++
		}
	}
	for _, r := range p.rows {
		mark(r)
	}
	for _, ref := range p.refs {
		mark(ref.Row)
	}
	for wi, w := range p.words {
		for ; w != 0; w &= w - 1 {
			mark(p.base + wi<<6 + bits.TrailingZeros64(w))
		}
	}
	return n
}

// LineageParts calls fn with each base table's share of row i's lineage,
// tables ascending, until fn returns false. A packed row is read as it is;
// any other row's lineage set is cut into its runs.
func (t *Table) LineageParts(i int, fn func(LineagePart) bool) {
	if t.packed != nil {
		for _, p := range t.packed[i] {
			if !fn(p) {
				return
			}
		}
		return
	}
	set := t.RowLineage(i)
	for lo, hi := 0, 0; lo < len(set); lo = hi {
		for hi = lo + 1; hi < len(set) && set[hi].Table == set[lo].Table; hi++ {
		}
		if !fn(LineagePart{Table: set[lo].Table, n: hi - lo, refs: set[lo:hi:hi]}) {
			return
		}
	}
}

// AppendDerived appends r to t as a row derived from row i of src alone:
// its lineage is that row's, forwarded in the form src holds it, so packed
// lineage stays packed. t must hold its lineage the way src does — a table
// built by AppendDerived from one source does.
func (t *Table) AppendDerived(r Row, src *Table, i int) {
	t.Rows = append(t.Rows, r)
	if src.packed != nil {
		t.packed = append(t.packed, src.packed[i])
		return
	}
	t.Lineage = append(t.Lineage, src.RowLineage(i))
}

// reserve readies t to take n rows forwarded from src by AppendDerived.
func (t *Table) reserve(src *Table, n int) {
	t.Rows = make([]Row, 0, n)
	if src.packed != nil {
		t.packed = make([]groupLineage, 0, n)
	} else {
		t.Lineage = make([]LineageSet, 0, n)
	}
}

// refs returns the number of refs the row's lineage holds.
func (gl groupLineage) refs() int {
	n := 0
	for _, p := range gl {
		n += p.n
	}
	return n
}

// appendTo appends the row's lineage set to dst: ascending (table, row), as
// the parts are.
func (gl groupLineage) appendTo(dst LineageSet) LineageSet {
	for _, p := range gl {
		p.Rows(func(r int) bool {
			dst = append(dst, RowRef{Table: p.Table, Row: r})
			return true
		})
	}
	return dst
}

// materialize returns the lineage sets of packed rows, carved out of one
// array; a row without refs has the nil set.
func materialize(rows []groupLineage) []LineageSet {
	n := 0
	for _, gl := range rows {
		n += gl.refs()
	}
	arena := make(LineageSet, 0, n)
	out := make([]LineageSet, len(rows))
	for i, gl := range rows {
		if m := gl.refs(); m > 0 {
			start := len(arena)
			arena = gl.appendTo(arena)
			out[i] = arena[start : start+m : start+m]
		}
	}
	return out
}

// lineageScratch is the working memory the settles of one Result share:
// per base table met so far, the rows the group at hand draws from it, in
// any order and with repeats.
type lineageScratch struct {
	tables []string
	rows   [][]int
	last   int   // the table met last: refs of one row come in table order
	order  []int // the tables the group draws from, by name
	words  []int // per table of order, the words of its bitset, or 0
	hint   int   // the room a new table's row list starts with
}

// bucket returns the index of table's row list, opening it on first sight.
func (sc *lineageScratch) bucket(table string) int {
	if sc.last < len(sc.tables) && sc.tables[sc.last] == table {
		return sc.last
	}
	sc.last = slices.Index(sc.tables, table)
	if sc.last < 0 {
		sc.last = len(sc.tables)
		sc.tables, sc.rows = append(sc.tables, table), append(sc.rows, make([]int, 0, sc.hint))
	}
	return sc.last
}

// add gathers the rows of part p.
func (sc *lineageScratch) add(p LineagePart) {
	k := sc.bucket(p.Table)
	p.Rows(func(r int) bool {
		sc.rows[k] = append(sc.rows[k], r)
		return true
	})
}

// pack turns the rows gathered for one group into its packed lineage and
// readies the scratch for the next group. A table's rows become a bitset
// when it takes no more words than there are rows, and a sorted,
// deduplicated run otherwise; the group's bitsets share one allocation and
// its runs another.
func (sc *lineageScratch) pack() groupLineage {
	sc.order = sc.order[:0]
	for k, rows := range sc.rows {
		if len(rows) > 0 {
			sc.order = append(sc.order, k)
		}
	}
	if len(sc.order) == 0 {
		return nil
	}
	slices.SortFunc(sc.order, func(a, b int) int { return strings.Compare(sc.tables[a], sc.tables[b]) })
	// Sizes first, so that the bitsets and the runs are allocated once.
	parts := make(groupLineage, len(sc.order))
	sc.words = sc.words[:0]
	nWords, nRows := 0, 0
	for j, k := range sc.order {
		rows := sc.rows[k]
		lo, hi := rows[0], rows[0]
		for _, r := range rows {
			lo, hi = min(lo, r), max(hi, r)
		}
		p := &parts[j]
		p.Table = sc.tables[k]
		if base := lo &^ 63; hi-base >= 0 && (hi-base)>>6 < len(rows) { // hi-base < 0: it overflowed
			p.base = base
			sc.words = append(sc.words, (hi-base)>>6+1)
			nWords += (hi-base)>>6 + 1
			continue
		}
		slices.Sort(rows)
		sc.rows[k] = slices.Compact(rows)
		p.n = len(sc.rows[k])
		sc.words = append(sc.words, 0)
		nRows += p.n
	}
	words, runs := make([]uint64, nWords), make([]int, nRows)
	for j, k := range sc.order {
		p, rows, nw := &parts[j], sc.rows[k], sc.words[j]
		if nw == 0 {
			p.rows, runs = runs[:p.n:p.n], runs[p.n:]
			copy(p.rows, rows)
		} else {
			p.words, words = words[:nw:nw], words[nw:]
			for _, r := range rows {
				p.words[(r-p.base)>>6] |= 1 << (uint(r-p.base) & 63)
			}
			for _, w := range p.words {
				p.n += bits.OnesCount64(w)
			}
		}
		sc.rows[k] = rows[:0]
	}
	return parts
}
