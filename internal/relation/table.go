package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Row is one tuple of a relation.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// RowRef identifies a row of a named base table. Base rows are the units of
// row-level lineage (Cui–Widom style): every derived row carries the set of
// base rows that contributed to it.
type RowRef struct {
	Table string
	Row   int
}

// String renders the reference as "table#row".
func (r RowRef) String() string { return fmt.Sprintf("%s#%d", r.Table, r.Row) }

// LineageSet is a set of base-row references, kept sorted and deduplicated:
// what RowLineage makes of a row's stored lineage (lineage.go) on demand.
type LineageSet []RowRef

func cmpRef(a, b RowRef) int {
	if a.Table != b.Table {
		if a.Table < b.Table {
			return -1
		}
		return 1
	}
	switch {
	case a.Row < b.Row:
		return -1
	case a.Row > b.Row:
		return 1
	default:
		return 0
	}
}

// Contains reports whether the set contains ref.
func (l LineageSet) Contains(ref RowRef) bool {
	i := sort.Search(len(l), func(i int) bool { return cmpRef(l[i], ref) >= 0 })
	return i < len(l) && l[i] == ref
}

// ColRef identifies a column of a named base table; the unit of
// column-level where-provenance.
type ColRef struct {
	Table  string
	Column string
}

// String renders the reference as "table.column".
func (c ColRef) String() string { return c.Table + "." + c.Column }

// ColRefSet is a set of column references, kept sorted and deduplicated.
type ColRefSet []ColRef

func cmpColRef(a, b ColRef) int {
	if a.Table != b.Table {
		if a.Table < b.Table {
			return -1
		}
		return 1
	}
	switch {
	case a.Column < b.Column:
		return -1
	case a.Column > b.Column:
		return 1
	default:
		return 0
	}
}

func (c ColRefSet) normalize() ColRefSet {
	sort.Slice(c, func(i, j int) bool { return cmpColRef(c[i], c[j]) < 0 })
	out := c[:0]
	for i, r := range c {
		if i == 0 || cmpColRef(r, out[len(out)-1]) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// Contains reports whether the set contains ref.
func (c ColRefSet) Contains(ref ColRef) bool {
	i := sort.Search(len(c), func(i int) bool { return cmpColRef(c[i], ref) >= 0 })
	return i < len(c) && c[i] == ref
}

// Normalize sorts and deduplicates the set in place, returning it.
func (c ColRefSet) Normalize() ColRefSet { return c.normalize() }

// Union returns the union of two ColRefSets.
func (c ColRefSet) Union(o ColRefSet) ColRefSet {
	out := make(ColRefSet, 0, len(c)+len(o))
	out = append(out, c...)
	out = append(out, o...)
	return out.normalize()
}

// Table is a relation with provenance. A Table is *base* when Base is
// true: its rows are the units of lineage and its columns the units of
// where-provenance. A derived table keeps its rows' lineage in one of the
// forms lineage.go describes — implicit, by column or packed — and
// ColOrigin (one set per column).
//
// Its cells have one stored form: a typed vector per column (vecs), what
// every operator, ETL step, ApplyEdit and Freeze produce, or on-disk
// segments (seg). Rows is the edge form only — what Materialize returns,
// what a delivered render, CSV and JSON carry, and what a literal or a
// loader builds before the table is registered; the operators transpose
// such a table once, on entry (Batch.Col). No table holds both. A table
// is written while it is being built and not after it is published:
// operators share vectors and lineage columns between input and output.
type Table struct {
	Name   string
	Schema *Schema
	// Rows holds the cells of a table in edge form; nil for a stored one.
	Rows []Row

	// Base marks the table as a provenance origin.
	Base bool

	// lin, when it lists tables, is the rows' lineage by column; packed,
	// when non-nil, is each row's lineage packed per base table (from: the
	// tables, even at zero rows). A table with neither keeps it implicit: a
	// base table's row i is its own, a view's is origin#i. Read any table's
	// with RowLineage or LineageParts.
	lin    lineageCols
	packed []groupLineage
	from   []string
	origin string

	// ColOrigin holds, for each column, the set of base (table, column)
	// pairs it derives from. For base tables it is nil.
	ColOrigin []ColRefSet

	// vecs, when non-nil, holds the cells: one vector of n cells per
	// column. Views share them; nothing writes one after it is published.
	vecs []*Vector
	n    int

	// seg, when non-nil, backs the table with on-disk columnar segments
	// instead (see segtable.go).
	seg *segBacking

	// res, when non-nil, holds what readers derived from this version of
	// the table (see resident.go): set by Freeze or carried by ApplyEdit,
	// shared with renamed views.
	res *resident

	// tail, set on a version ApplyEdit built, guards the room it left
	// behind the version's lineage columns and dictionary codes: the first
	// to claim it (claimTail) may write there, everyone else copies. Views
	// sharing those arrays cap them at their length, so nothing else can
	// reach the room. (A vector guards its own room: Vector.claimed.)
	tail *atomic.Bool
}

// NewBase creates an empty base table with the given name and schema.
func NewBase(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema, Base: true}
}

// stored makes vecs, n cells each, t's cells.
func (t *Table) stored(vecs []*Vector, n int) {
	t.Rows, t.vecs, t.n = nil, vecs, n
}

// Append adds a row to a base table, validating arity; a derived table's
// rows come with their lineage, from the operators and AppendDerived. A
// stored table takes its rows back to edge form first: Append is for
// tables being built.
func (t *Table) Append(r Row) error {
	switch {
	case !t.Base:
		return fmt.Errorf("relation: cannot append to derived table %s", t.Name)
	case t.seg != nil:
		return fmt.Errorf("relation: cannot append to segment-backed table %s", t.Name)
	case len(r) != t.Schema.Len():
		return fmt.Errorf("relation: row arity %d does not match schema %s", len(r), t.Schema)
	}
	if t.vecs != nil {
		t.Rows, t.vecs, t.n = rowsOf(t.vecs, t.n), nil, 0
	}
	t.Rows = append(t.Rows, r)
	t.res, t.tail = nil, nil
	return nil
}

// capped returns s with no room past its length, so that an append to it
// copies: what a view sharing another table's array takes.
func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// AppendVals is variadic Append, returning the arity error instead of
// panicking so generators on user-input paths can propagate it. Fixtures
// with statically known arity may discard the result.
func (t *Table) AppendVals(vals ...Value) error {
	return t.Append(Row(vals))
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	switch {
	case t.seg != nil:
		return t.seg.rows
	case t.vecs != nil:
		return t.n
	}
	return len(t.Rows)
}

// ColumnOrigin returns the where-provenance of column c. For base tables
// this is the singleton {t.col}.
func (t *Table) ColumnOrigin(c int) ColRefSet {
	if t.Base || t.ColOrigin == nil {
		return ColRefSet{{Table: t.Name, Column: baseName(t.Schema.Columns[c].Name)}}
	}
	return t.ColOrigin[c]
}

// AllColumnOrigins returns the union of the origins of every column.
func (t *Table) AllColumnOrigins() ColRefSet {
	var all ColRefSet
	for c := range t.Schema.Columns {
		all = append(all, t.ColumnOrigin(c)...)
	}
	return all.normalize()
}

// BaseTables returns the sorted, lowercased base tables t derives from: the
// tables its rows' lineage names (why-provenance: a filter, a semi-join or
// a projection dropping a table's columns still derives each row from it)
// and its column origins' (where-provenance). It reads no row, so it costs
// the same at any size and holds at zero rows.
func (t *Table) BaseTables() []string {
	var names []string
	for _, n := range t.lineageTables() {
		names = append(names, strings.ToLower(n))
	}
	for c := range t.Schema.Columns {
		for _, r := range t.ColumnOrigin(c) {
			names = append(names, strings.ToLower(r.Table))
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// Shell returns a private copy of the table's header — name, schema, column
// origins and lineage tables — with no rows, for callers that build the
// rows themselves or run the operators over none.
func (t *Table) Shell() *Table {
	c := &Table{Name: t.Name, Schema: t.Schema.Clone(), Base: t.Base}
	if t.ColOrigin != nil {
		c.ColOrigin = make([]ColRefSet, len(t.ColOrigin))
		for i, o := range t.ColOrigin {
			c.ColOrigin[i] = append(ColRefSet(nil), o...)
		}
	}
	// The lineage form and tables, and no reference into t's arrays: a
	// header outlives the version it was cut from.
	c.shareLineage(t, 0)
	clear(c.lin.cols)
	if c.packed != nil {
		c.packed = []groupLineage{}
	}
	return c
}

// Clone returns a deep copy of the table (cells, lineage and origins),
// not frozen; a packed row's lineage, which is never written, is shared.
func (t *Table) Clone() *Table {
	c := t.Shell()
	c.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		c.Rows[i] = r.Clone()
	}
	if t.vecs != nil {
		vecs := make([]*Vector, len(t.vecs))
		for ci, v := range t.vecs {
			vecs[ci] = v.clone()
		}
		c.stored(vecs, t.n)
	}
	c.shareLineage(t, t.NumRows())
	for k, col := range c.lin.cols {
		c.lin.cols[k] = slices.Clone(col)
	}
	// The segment backing is immutable; clones share it (and its cache).
	c.seg = t.seg
	return c
}

// derived builds a derived-table shell from t, preserving column origins by
// default (operators override as needed).
func (t *Table) derived(name string) *Table {
	d := &Table{Name: name, Schema: t.Schema.Clone()}
	d.ColOrigin = make([]ColRefSet, t.Schema.Len())
	for c := range d.ColOrigin {
		d.ColOrigin[c] = t.ColumnOrigin(c)
	}
	return d
}

// Get returns the value at (row, col name). It returns NULL for unknown
// columns, which keeps report rendering total.
func (t *Table) Get(row int, col string) Value {
	i := t.Schema.Index(col)
	if i < 0 {
		return Null()
	}
	v, err := t.ValueAt(row, i) // out-of-range coordinates read as NULL
	if err != nil {
		return Null()
	}
	return v
}

// Row returns the cells of row i: an edge-form table's own row, which the
// caller must not write, or a stored or segment-backed table's assembled
// afresh — a cell that cannot be read reads NULL, as Get has it.
func (t *Table) Row(i int) Row {
	if t.vecs == nil && t.seg == nil {
		return t.Rows[i]
	}
	r := make(Row, t.Schema.Len())
	for ci := range r {
		r[ci], _ = t.ValueAt(i, ci)
	}
	return r
}

// String renders the table as an aligned text grid (used by reports, the
// CLI tools and tests).
func (t *Table) String() string {
	t = t.mustMaterialize()
	names := t.Schema.ColumnNames()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := v.String()
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for c, v := range vals {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			b.WriteString(strings.Repeat(" ", widths[c]-len(v)))
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	sep := make([]string, len(names))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
