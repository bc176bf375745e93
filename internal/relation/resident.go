package relation

import (
	"fmt"
	"math"
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
// copy and uses the published one.
type resident struct {
	// rows is the table's row count at Freeze. A table whose count has
	// moved since is read as if it had never been frozen.
	rows int
	// cols holds the typed vector of each column of an in-memory table; a
	// segment-backed table has none (its partitions decode per scan).
	cols []atomic.Pointer[Vector]
	lin  atomic.Pointer[lineageCols]
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
// concurrent readers — sql.Catalog.Register and Refresh — and must be
// called before the table is shared. Append drops the form again; a write
// into a frozen table's rows or lineage sets is a bug VerifyResident finds.
func (t *Table) Freeze() {
	n := t.NumRows()
	if t.res != nil && t.res.rows == n {
		return
	}
	r := &resident{rows: n}
	if t.seg == nil {
		r.cols = make([]atomic.Pointer[Vector], t.Schema.Len())
	}
	t.res = r
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

// VerifyResident re-derives whatever columnar form readers have published
// for t — each column vector from t.Rows, the lineage columns from
// t.Lineage — and reports the first cell where the published form differs:
// the trace of a write into a table after it was frozen. Tests call it at
// the end of runs that interleave renders with writes.
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
		for ri, row := range t.Rows {
			if got, want := v.Value(ri), row[ci]; got.Kind != want.Kind || got.Key() != want.Key() {
				return fmt.Errorf("relation: %s: resident vector of column %s holds %v at row %d, the table %v",
					t.Name, t.Schema.Columns[ci].Name, got, ri, want)
			}
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
	if fmt.Sprint(got.tables) != fmt.Sprint(want.tables) {
		return fmt.Errorf("relation: %s: resident lineage columns cover tables %v, the lineage %v", t.Name, got.tables, want.tables)
	}
	for ti, table := range want.tables {
		for ri, ord := range want.cols[ti] {
			if got.cols[ti][ri] != ord {
				return fmt.Errorf("relation: %s: resident lineage column %s holds %d at row %d, the lineage %d",
					t.Name, table, got.cols[ti][ri], ri, ord)
			}
		}
	}
	return nil
}
