package relation

import (
	"math/bits"
	"slices"
	"strings"
)

// Row lineage is stored in one of three forms, chosen by how a table was
// made; RowLineage and LineageParts read each of them:
//
//   - implicit: a base table, a view of one (Rename, Project, Extend, Limit)
//     and a segment partition store nothing — row i derives from origin#i;
//   - columns (lineageCols): per base table an int32 column holding the row
//     of it each row derives from, or -1 — what a join, a select, a sort or
//     a row-wise ETL step writes, where a row draws on one row per table and
//     join side;
//   - packed (groupLineage): per row and base table, a bitset or a sorted run
//     of the rows it draws on — what GroupBy and Distinct write, and what any
//     row built from a packed row is.
//
// A RowRef is made only when someone asks for the refs themselves (Explain,
// disputes, evidence); a threshold counts the parts as they are
// (LineageParts, CountCodes).

// lineageCols is row lineage by column: cols[k][i] is the row of base table
// tables[k] that row i derives from, or -1 (a LEFT JOIN miss, a Union side
// without that table). tables is ascending, and a name repeats once per side
// of a self-join. The columns of a published table are never written; views
// share them capped.
type lineageCols struct {
	tables []string
	cols   [][]int32
}

// capped returns lc sharing its columns' first n ordinals, with no room
// behind them.
func (lc lineageCols) capped(n int) lineageCols {
	if lc.tables == nil {
		return lc
	}
	out := lineageCols{tables: lc.tables, cols: make([][]int32, len(lc.cols))}
	for k, col := range lc.cols {
		out.cols[k] = col[:n:n]
	}
	return out
}

// implicit returns the origin of a table that keeps its lineage implicit:
// its own name for a base table, the base table's for a view of one.
func (t *Table) implicit() (string, bool) {
	switch {
	case t.packed != nil || t.lin.tables != nil:
		return "", false
	case t.Base:
		return t.Name, true
	}
	return t.origin, t.origin != ""
}

// lineageTables returns the base tables t's rows' lineage names, ascending
// (a self-join's repeated): an implicit table's origin, its lineage
// columns' tables or a packed table's from — at zero rows too.
func (t *Table) lineageTables() []string {
	switch {
	case t.packed != nil:
		return t.from
	case t.lin.tables != nil:
		return t.lin.tables
	}
	if origin, ok := t.implicit(); ok {
		return []string{origin}
	}
	return nil
}

// mergeTables returns the ascending union of two ascending table lists.
func mergeTables(a, b []string) []string {
	tables, _, _ := alignTables(a, b)
	return slices.Compact(tables)
}

// columns returns the lineage of a table that is not packed by column, an
// implicit table's as one column of its ordinals.
func (t *Table) columns() lineageCols {
	origin, ok := t.implicit()
	if !ok {
		return t.lin
	}
	col := make([]int32, t.NumRows())
	for i := range col {
		col[i] = int32(i)
	}
	return lineageCols{tables: []string{origin}, cols: [][]int32{col}}
}

// RowLineage returns the lineage set of row i: ascending (table, row),
// without repeats, nil for a row that derives from no base row. For a base
// table it is the singleton {t#i}.
func (t *Table) RowLineage(i int) LineageSet {
	if t.packed != nil {
		if n := t.packed[i].refs(); n > 0 {
			return t.packed[i].appendTo(make(LineageSet, 0, n))
		}
		return nil
	}
	if origin, ok := t.implicit(); ok {
		return LineageSet{{Table: origin, Row: i}}
	}
	var set LineageSet
	repeats := false
	for k, col := range t.lin.cols {
		if ord := col[i]; ord >= 0 {
			if set == nil {
				set = make(LineageSet, 0, len(t.lin.cols)-k)
			}
			repeats = repeats || k > 0 && t.lin.tables[k] == t.lin.tables[k-1]
			set = append(set, RowRef{Table: t.lin.tables[k], Row: int(ord)})
		}
	}
	if repeats { // a self-join side pair: sort within the table, drop the twin
		slices.SortFunc(set, cmpRef)
		set = slices.Compact(set)
	}
	return set
}

// groupLineage is one row's packed lineage, its parts tables ascending. It
// is shared by every table the row is forwarded to and never written.
type groupLineage []LineagePart

// LineagePart is one base table's share of a row's lineage: Len distinct
// rows of Table, held as a bitset, a sorted run, or — one row — in base.
type LineagePart struct {
	Table string
	n     int
	base  int      // the row bit 0 of words stands for (a multiple of 64), or the one row
	words []uint64 // a bitset over the rows, when they are dense
	rows  []int    // the rows themselves, ascending, otherwise
}

// single reports whether the part is the one row base.
func (p LineagePart) single() bool { return p.words == nil && p.rows == nil && p.n == 1 }

// Len returns the number of distinct rows in the part.
func (p LineagePart) Len() int { return p.n }

// Rows calls fn with each row of the part, ascending, until fn returns
// false; it reports whether fn never did.
func (p LineagePart) Rows(fn func(row int) bool) bool {
	if p.single() {
		return fn(p.base)
	}
	for _, r := range p.rows {
		if !fn(r) {
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
	if p.single() {
		mark(p.base)
	}
	for _, r := range p.rows {
		mark(r)
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
// an implicit row, and a row of lineage columns, is one row per table,
// without an allocation — but for a self-join row naming two rows of one
// table.
func (t *Table) LineageParts(i int, fn func(LineagePart) bool) {
	if t.packed != nil {
		for _, p := range t.packed[i] {
			if !fn(p) {
				return
			}
		}
		return
	}
	if origin, ok := t.implicit(); ok {
		fn(LineagePart{Table: origin, n: 1, base: i})
		return
	}
	tables, cols := t.lin.tables, t.lin.cols
	for lo, hi := 0, 0; lo < len(tables); lo = hi {
		for hi = lo + 1; hi < len(tables) && tables[hi] == tables[lo]; hi++ {
		}
		p := LineagePart{Table: tables[lo]}
		for _, col := range cols[lo:hi] {
			switch ord := int(col[i]); {
			case ord < 0 || p.n == 1 && ord == p.base:
			case p.n == 0:
				p.n, p.base = 1, ord
			default:
				if p.rows == nil {
					p.rows = []int{p.base}
				}
				p.rows = append(p.rows, ord)
			}
		}
		if p.rows != nil {
			slices.Sort(p.rows)
			p.rows = slices.Compact(p.rows)
			p.n, p.base = len(p.rows), 0
		}
		if p.n > 0 && !fn(p) {
			return
		}
	}
}

// AppendDerived appends r to t as a row derived from row i of src alone:
// its lineage is that row's, in the form src holds it — packed stays
// packed, columns stay columns, an implicit row becomes a column of its
// origin. t must hold its lineage the way src does: a table that has no
// rows yet takes src's form, and one built by AppendDerived from one source
// keeps it.
func (t *Table) AppendDerived(r Row, src *Table, i int) {
	if len(t.Rows) == 0 {
		t.adopt(src, 0)
	}
	t.Rows = append(t.Rows, r)
	switch _, implicit := src.implicit(); {
	case src.packed != nil:
		t.packed = append(t.packed, src.packed[i])
	case implicit:
		t.lin.cols[0] = append(t.lin.cols[0], int32(i))
	default:
		for k, col := range src.lin.cols {
			t.lin.cols[k] = append(t.lin.cols[k], col[i])
		}
	}
}

// adopt readies t, which has no rows, to take n rows derived one by one
// from rows of src, in src's lineage form.
func (t *Table) adopt(src *Table, n int) {
	t.lin, t.packed, t.from, t.origin = lineageCols{}, nil, nil, ""
	if src.packed != nil {
		t.packed, t.from = make([]groupLineage, 0, n), src.from
		return
	}
	tables := src.lin.tables
	if origin, ok := src.implicit(); ok {
		tables = []string{origin}
	}
	if tables == nil {
		return
	}
	t.lin = lineageCols{tables: tables, cols: make([][]int32, len(tables))}
	for k := range t.lin.cols {
		t.lin.cols[k] = make([]int32, 0, n)
	}
}

// shareLineage gives t, whose row i derives from row i of src alone, src's
// first n rows' lineage: shared, not copied, and capped so that nothing
// appended to t lands in src's arrays.
func (t *Table) shareLineage(src *Table, n int) {
	t.lin, t.packed, t.from, t.origin = src.lin.capped(n), nil, nil, ""
	if src.packed != nil {
		t.packed, t.from = src.packed[:n:n], src.from
	} else if origin, ok := src.implicit(); ok {
		t.origin = origin
	}
}

// gatherLineage gives t, whose row j derives from row idx[j] of src alone,
// that lineage.
func gatherLineage[I int | int32](t, src *Table, idx []I) {
	t.adopt(src, len(idx))
	switch _, implicit := src.implicit(); {
	case src.packed != nil:
		for _, i := range idx {
			t.packed = append(t.packed, src.packed[i])
		}
	case implicit:
		col := t.lin.cols[0][:len(idx)]
		for j, i := range idx {
			col[j] = int32(i)
		}
		t.lin.cols[0] = col
	default:
		for k, from := range src.lin.cols {
			col := t.lin.cols[k][:len(idx)]
			for j, i := range idx {
				col[j] = from[i]
			}
			t.lin.cols[k] = col
		}
	}
}

// alignTables merges two ascending table lists into the list a table
// holding rows of both has: a name repeats as often as in the list that
// repeats it more. For each merged column, ai and bi give the column of a
// and of b it takes, or -1.
func alignTables(a, b []string) (tables []string, ai, bi []int) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			tables, ai, bi = append(tables, a[i]), append(ai, i), append(bi, -1)
			i++
		case i == len(a) || b[j] < a[i]:
			tables, ai, bi = append(tables, b[j]), append(ai, -1), append(bi, j)
			j++
		default:
			tables, ai, bi = append(tables, a[i]), append(ai, i), append(bi, j)
			i, j = i+1, j+1
		}
	}
	return tables, ai, bi
}

// column returns column k of lc, or n ordinals of -1 when k is -1.
func (lc lineageCols) column(k, n int) []int32 {
	if k >= 0 {
		return lc.cols[k]
	}
	col := make([]int32, n)
	for i := range col {
		col[i] = -1
	}
	return col
}

// packedRows returns t's lineage packed, one groupLineage per row: t's own
// when it is packed, else each row's packed anew.
func packedRows(t *Table) []groupLineage {
	if t.packed != nil {
		return t.packed
	}
	out := make([]groupLineage, t.NumRows())
	var sc lineageScratch
	for i := range out {
		sc.addRows(t, i, oneRow)
		out[i] = sc.pack()
	}
	return out
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

// union returns gl with the refs of add, a few rows' lineage packed, merged
// in part by part: a part of a table only one side names is that side's,
// shared; a table both name gets the union of the two parts. Neither gl nor
// add is written.
func (gl groupLineage) union(add groupLineage) groupLineage {
	out := make(groupLineage, 0, max(len(gl), len(add))) // add mostly names tables gl does
	i, j := 0, 0
	for i < len(gl) || j < len(add) {
		switch {
		case j == len(add) || i < len(gl) && gl[i].Table < add[j].Table:
			out = append(out, gl[i])
			i++
		case i == len(gl) || add[j].Table < gl[i].Table:
			out = append(out, add[j])
			j++
		default:
			out = append(out, gl[i].union(add[j]))
			i, j = i+1, j+1
		}
	}
	return out
}

// union returns the part holding p's rows and q's, q being few: p itself
// when it holds them all; else p's bitset copied into one wide enough for
// the new rows, below, inside or past it, and marked — unless that would
// take more words than the part has rows — or p's rows and q's merged into
// a run, which is what a run or a single row becomes. p is never written.
func (p LineagePart) union(q LineagePart) LineagePart {
	var add []int // q's rows p lacks, ascending
	q.Rows(func(r int) bool {
		if !p.has(r) {
			add = append(add, r)
		}
		return true
	})
	if len(add) == 0 {
		return p
	}
	out := LineagePart{Table: p.Table, n: p.n + len(add)}
	if p.words != nil {
		lo, hi := min(p.base, add[0]&^63), max(p.base+len(p.words)<<6-1, add[len(add)-1])
		if nw := (hi-lo)>>6 + 1; hi-lo >= 0 && nw <= out.n {
			out.base, out.words = lo, make([]uint64, nw)
			copy(out.words[(p.base-lo)>>6:], p.words)
			for _, r := range add {
				out.words[(r-lo)>>6] |= 1 << (uint(r-lo) & 63)
			}
			return out
		}
	}
	out.rows = make([]int, 0, out.n)
	p.Rows(func(r int) bool {
		for ; len(add) > 0 && add[0] < r; add = add[1:] {
			out.rows = append(out.rows, add[0])
		}
		out.rows = append(out.rows, r)
		return true
	})
	out.rows = append(out.rows, add...)
	return out
}

// has reports whether row r is one of the part's.
func (p LineagePart) has(r int) bool {
	switch {
	case p.single():
		return r == p.base
	case p.words != nil:
		i := r - p.base
		return i >= 0 && i>>6 < len(p.words) && p.words[i>>6]&(1<<(uint(i)&63)) != 0
	}
	_, ok := slices.BinarySearch(p.rows, r)
	return ok
}

// lineageScratch is the one packer: the working memory the rows packed one
// after another share — per base table met so far, the rows the packed row
// at hand draws from it, in any order and with repeats.
type lineageScratch struct {
	tables []string
	rows   [][]int
	last   int   // the table met last: refs of one row come in table order
	order  []int // the tables the packed row draws from, by name
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

// oneRow is the rows argument of addRows that gathers the one row off.
var oneRow = []uint32{0}

// addRows gathers the lineage of t's rows off+r, r in rows, whatever form
// t holds it in: column by column, so a table's bucket is found once.
func (sc *lineageScratch) addRows(t *Table, off int, rows []uint32) {
	if t.packed != nil {
		for _, r := range rows {
			for _, p := range t.packed[off+int(r)] {
				sc.add(p)
			}
		}
		return
	}
	if origin, ok := t.implicit(); ok {
		k := sc.bucket(origin)
		for _, r := range rows {
			sc.rows[k] = append(sc.rows[k], off+int(r))
		}
		return
	}
	for c, col := range t.lin.cols {
		k := sc.bucket(t.lin.tables[c])
		for _, r := range rows {
			if ord := col[off+int(r)]; ord >= 0 {
				sc.rows[k] = append(sc.rows[k], int(ord))
			}
		}
	}
}

// pack turns the rows gathered for one row into its packed lineage and
// readies the scratch for the next. A table's rows become a bitset when it
// takes no more words than there are rows, and a sorted, deduplicated run
// otherwise; the row's bitsets share one allocation and its runs another.
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
