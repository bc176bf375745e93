// Package provenance builds on the relation engine's lineage propagation to
// offer the tracing facilities the paper requires for compliance checking
// and dispute resolution (§2 iv, §4): given any cell of a delivered report,
// trace back to the exact source cells it was computed from, and explain
// the chain of transformations that produced it. It implements
// where-provenance at cell granularity and a transformation graph over ETL
// steps (cf. Cui–Widom lineage and DBNotes-style annotation propagation).
package provenance

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"plabi/internal/relation"
)

// SourceCell is one concrete base-table cell with its current value.
type SourceCell struct {
	Table  string
	Row    int
	Column string
	Value  relation.Value
}

// String renders the cell as table#row.column=value.
func (s SourceCell) String() string {
	return fmt.Sprintf("%s#%d.%s=%v", s.Table, s.Row, s.Column, s.Value)
}

// CellTrace is the full where-provenance of one derived cell.
type CellTrace struct {
	Column  string
	Row     int
	Value   relation.Value
	Origins relation.ColRefSet // base columns the value derives from
	Rows    relation.LineageSet
	Cells   []SourceCell // intersection of origin columns and lineage rows
}

// String renders a one-line explanation suitable for audit evidence.
func (c CellTrace) String() string {
	parts := make([]string, len(c.Cells))
	for i, s := range c.Cells {
		parts[i] = s.String()
	}
	return fmt.Sprintf("cell[%d].%s=%v <- {%s}", c.Row, c.Column, c.Value, strings.Join(parts, ", "))
}

// RowTrace is the row-level lineage of one derived row, with per-table
// support counts (the quantity aggregation thresholds are enforced on).
type RowTrace struct {
	Row     int
	Rows    relation.LineageSet
	Support map[string]int // base table -> number of contributing rows
}

// DistinctSupport returns the number of distinct values of column col among
// the base rows of table that support this row — e.g. the number of
// distinct patients behind an aggregate group.
func (t *Tracer) DistinctSupport(rt RowTrace, table, col string) int {
	base, ok := t.base(table)
	if !ok {
		return 0
	}
	ci := base.Schema.Index(col)
	if ci < 0 {
		return 0
	}
	// Dictionary-encode the column once per (table, column) —
	// relation.MapKey partitions values into exactly Value.Key's
	// equivalence classes, so dense codes count the same distincts — and
	// every subsequent threshold check is an array scan over a
	// seen-bitset instead of one hash probe per supporting row.
	d := t.colDict(table, base, ci)
	if d == nil {
		// Segment-backed base whose store failed mid-build: fall back to
		// the per-ref path, which degrades per cell instead of per column.
		return t.distinctSupportRows(rt, base, table, ci)
	}
	seen := make([]uint64, (d.card+63)/64)
	n := 0
	for _, ref := range tableRun(rt.Rows, table) {
		if ref.Row < 0 || ref.Row >= base.NumRows() {
			continue
		}
		if c := d.codes[ref.Row]; seen[c>>6]&(1<<(c&63)) == 0 {
			seen[c>>6] |= 1 << (c & 63)
			n++
		}
	}
	return n
}

// tableRun returns the refs of rows into table: one run, found by binary
// search, since a lineage set is sorted by (table, row).
func tableRun(rows relation.LineageSet, table string) relation.LineageSet {
	lo := sort.Search(len(rows), func(i int) bool { return rows[i].Table >= table })
	hi := lo
	for hi < len(rows) && rows[hi].Table == table {
		hi++
	}
	return rows[lo:hi]
}

// distinctSupportRows is the fallback distinct count: canonical string
// keys, one lookup per supporting ref. ValueAt streams segment-backed
// bases one partition at a time; an unreadable cell is skipped, which
// can only lower the count — the fail-closed direction for thresholds.
func (t *Tracer) distinctSupportRows(rt RowTrace, base *relation.Table, table string, ci int) int {
	seen := map[string]bool{}
	for _, ref := range tableRun(rt.Rows, table) {
		if ref.Row < 0 || ref.Row >= base.NumRows() {
			continue
		}
		v, err := base.ValueAt(ref.Row, ci)
		if err != nil {
			continue
		}
		seen[v.Key()] = true
	}
	return len(seen)
}

// colDict is a dictionary encoding of one base-table column: codes[row]
// is a dense id of the value's Key-equivalence class, below card. Readers
// only ever touch codes and card, which are never written once the
// dictionary is visible, and only ever compare codes for equality. ids
// retains the value-to-code assignment so a base refresh can encode the
// rows an edit brought instead of every row; it belongs to whoever holds
// the tracer's write lock and is handed on from one version of the
// dictionary to the next.
type colDict struct {
	codes []int32
	card  int
	ids   map[relation.ValKey]int32
}

// encode returns the code of v, assigning the next free one to a value
// not seen before.
func (d *colDict) encode(v relation.Value) int32 {
	k := relation.MapKey(v)
	id, ok := d.ids[k]
	if !ok {
		id = int32(len(d.ids))
		d.ids[k] = id
	}
	return id
}

// edited returns the dictionary of base, the table e leads to from the
// one d encodes: the codes of removed rows are dropped, the rows e
// brought are encoded against the retained ids, everything else is
// copied. Copy-on-write where readers look: they keep using d's codes
// and card. A value that left the table keeps its code, so card only
// bounds the codes in use; once the assignment has outgrown the table
// twice over the dictionary is given up (ok false) and the next reader
// builds a tight one.
func (d *colDict) edited(base *relation.Table, ci int, e relation.Edit) (*colDict, bool) {
	n := base.NumRows()
	dirty, err := e.Dirty(n)
	if err != nil || len(d.codes) != n-e.Appended+len(e.Removed) {
		return nil, false
	}
	nd := &colDict{codes: make([]int32, 0, n), ids: d.ids}
	from := 0
	for _, ri := range e.Removed {
		nd.codes = append(nd.codes, d.codes[from:ri]...)
		from = ri + 1
	}
	nd.codes = append(nd.codes, d.codes[from:]...)
	nd.codes = nd.codes[:n]
	for _, ri := range dirty {
		v, err := base.ValueAt(ri, ci)
		if err != nil {
			return nil, false
		}
		nd.codes[ri] = nd.encode(v)
	}
	nd.card = len(nd.ids)
	return nd, nd.card <= 2*n+64
}

// colDict returns the dictionary encoding of column ci of base, the
// caller's view of the registered table. The cache holds encodings of the
// currently registered version only: RegisterBase drops them, EditBase
// patches them. A caller whose base has been swapped out since it read it
// neither uses nor fills the cache — it gets a private dictionary of its
// own base — so a cached dictionary always covers every row of the
// table it is cached beside. The returned dict is immutable, so
// concurrent enforcement workers share it safely.
func (t *Tracer) colDict(table string, base *relation.Table, ci int) *colDict {
	key := strings.ToLower(table)
	t.mu.RLock()
	d, ok := t.dicts[key][ci]
	current := t.bases[key] == base
	t.mu.RUnlock()
	if ok && current {
		return d
	}
	n := base.NumRows()
	ids := make(map[relation.ValKey]int32, n)
	d = &colDict{codes: make([]int32, n), ids: ids}
	// An in-memory base is read as its column's typed vector — resident
	// when the base is registered; ValueAt walks a segment-backed base
	// sequentially, keeping one decoded partition in memory, and fails the
	// build closed. First-seen code order is identical either way.
	var vec *relation.Vector
	if len(base.Rows) == n {
		vec, _ = relation.NewBatch(base).Col(ci) // in memory: cannot fail
	}
	for ri := 0; ri < n; ri++ {
		if vec != nil {
			d.codes[ri] = d.encode(vec.Value(ri))
			continue
		}
		v, err := base.ValueAt(ri, ci)
		if err != nil {
			return nil
		}
		d.codes[ri] = d.encode(v)
	}
	d.card = len(ids)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bases[key] != base {
		return d // swapped while encoding: d describes base, not the registered table
	}
	if t.dicts == nil {
		t.dicts = map[string]map[int]*colDict{}
	}
	if t.dicts[key] == nil {
		t.dicts[key] = map[int]*colDict{}
	}
	t.dicts[key][ci] = d
	return d
}

// Tracer resolves lineage references against registered base tables.
// It is safe for concurrent use.
type Tracer struct {
	mu    sync.RWMutex
	bases map[string]*relation.Table
	dicts map[string]map[int]*colDict // table -> column index -> encoding
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{bases: map[string]*relation.Table{}}
}

// RegisterBase registers (or replaces) a base table so its cells can be
// resolved during tracing.
func (t *Tracer) RegisterBase(tb *relation.Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.ToLower(tb.Name)
	t.bases[key] = tb
	delete(t.dicts, key) // cached encodings no longer describe the table
}

// EditBase swaps in the version of a registered base table that the edit
// e leads to, and patches the cached column dictionaries with the same
// edit instead of dropping them. An unregistered name, or an edit that
// does not lead from the registered version's row count to tb's, degrades
// to RegisterBase semantics. The table and its dictionaries swap under
// one critical section, so a reader that sees the new table also sees
// dictionaries covering all of its rows.
func (t *Tracer) EditBase(tb *relation.Table, e relation.Edit) {
	key := strings.ToLower(tb.Name)
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.bases[key]
	t.bases[key] = tb
	if !ok || old.NumRows() != tb.NumRows()-e.Appended+len(e.Removed) {
		delete(t.dicts, key)
		return
	}
	for ci, d := range t.dicts[key] {
		if nd, ok := d.edited(tb, ci, e); ok {
			t.dicts[key][ci] = nd
		} else {
			delete(t.dicts[key], ci)
		}
	}
}

// RefreshBase is EditBase for a pure append: the new version is the old
// one with rows appended starting at index appendFrom. A negative
// appendFrom says the change has no such shape and drops the
// dictionaries.
func (t *Tracer) RefreshBase(tb *relation.Table, appendFrom int) {
	if appendFrom < 0 {
		t.RegisterBase(tb)
		return
	}
	t.EditBase(tb, relation.Edit{Appended: tb.NumRows() - appendFrom})
}

func (t *Tracer) base(name string) (*relation.Table, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b, ok := t.bases[strings.ToLower(name)]
	return b, ok
}

// TraceCell computes the where-provenance of cell (row, col) of tab.
func (t *Tracer) TraceCell(tab *relation.Table, row int, col string) (CellTrace, error) {
	ci := tab.Schema.Index(col)
	if ci < 0 {
		return CellTrace{}, fmt.Errorf("provenance: unknown column %q", col)
	}
	if row < 0 || row >= tab.NumRows() {
		return CellTrace{}, fmt.Errorf("provenance: row %d out of range", row)
	}
	v, err := tab.ValueAt(row, ci)
	if err != nil {
		return CellTrace{}, fmt.Errorf("provenance: reading cell (%d, %s): %w", row, col, err)
	}
	trace := CellTrace{
		Column:  col,
		Row:     row,
		Value:   v,
		Origins: tab.ColumnOrigin(ci),
		Rows:    tab.RowLineage(row),
	}
	for _, ref := range trace.Rows {
		base, ok := t.base(ref.Table)
		if !ok {
			continue
		}
		for _, origin := range trace.Origins {
			if origin.Table != ref.Table {
				continue
			}
			bci := base.Schema.Index(origin.Column)
			if bci < 0 || ref.Row < 0 || ref.Row >= base.NumRows() {
				continue
			}
			bv, err := base.ValueAt(ref.Row, bci)
			if err != nil {
				return CellTrace{}, fmt.Errorf("provenance: reading %s#%d.%s: %w", ref.Table, ref.Row, origin.Column, err)
			}
			trace.Cells = append(trace.Cells, SourceCell{
				Table:  ref.Table,
				Row:    ref.Row,
				Column: origin.Column,
				Value:  bv,
			})
		}
	}
	return trace, nil
}

// TraceRow computes the row-level lineage of row i of tab.
func (t *Tracer) TraceRow(tab *relation.Table, i int) (RowTrace, error) {
	if i < 0 || i >= tab.NumRows() {
		return RowTrace{}, fmt.Errorf("provenance: row %d out of range", i)
	}
	rt := RowTrace{Row: i, Rows: tab.RowLineage(i), Support: map[string]int{}}
	// The set is sorted by table: one map write per run, not per ref.
	for lo, hi := 0, 0; lo < len(rt.Rows); lo = hi {
		for hi = lo + 1; hi < len(rt.Rows) && rt.Rows[hi].Table == rt.Rows[lo].Table; hi++ {
		}
		rt.Support[rt.Rows[lo].Table] += hi - lo
	}
	return rt, nil
}

// BaseValue fetches a registered base cell's current value; ok reports
// whether the reference resolved (the table is registered, carries col
// and has the row). A cell that resolves but cannot be read — a
// segment-backed base whose partition is gone or corrupt — is an error,
// never "not applicable": callers deciding a release on the value must
// fail closed.
func (t *Tracer) BaseValue(ref relation.RowRef, col string) (v relation.Value, ok bool, err error) {
	base, ok := t.base(ref.Table)
	if !ok {
		return relation.Null(), false, nil
	}
	ci := base.Schema.Index(col)
	if ci < 0 || ref.Row < 0 || ref.Row >= base.NumRows() {
		return relation.Null(), false, nil
	}
	v, err = base.ValueAt(ref.Row, ci)
	if err != nil {
		return relation.Null(), false, fmt.Errorf("provenance: reading %s.%s: %w", ref, col, err)
	}
	return v, true, nil
}

// Step records one transformation in the ETL/reporting pipeline: an
// operation reading input relations and producing an output relation.
type Step struct {
	ID      int
	Op      string
	Inputs  []string
	Output  string
	Note    string
	RowsIn  int
	RowsOut int
}

// String renders the step as "op(inputs) -> output".
func (s Step) String() string {
	return fmt.Sprintf("#%d %s(%s) -> %s [%d->%d rows]%s",
		s.ID, s.Op, strings.Join(s.Inputs, ", "), s.Output, s.RowsIn, s.RowsOut, noteSuffix(s.Note))
}

func noteSuffix(n string) string {
	if n == "" {
		return ""
	}
	return " // " + n
}

// Graph is an append-only transformation graph. It is safe for concurrent
// use.
type Graph struct {
	mu       sync.RWMutex
	steps    []Step
	byOutput map[string][]int
}

// NewGraph returns an empty transformation graph.
func NewGraph() *Graph {
	return &Graph{byOutput: map[string][]int{}}
}

// AddStep appends a transformation step and returns its id.
func (g *Graph) AddStep(op string, inputs []string, output, note string, rowsIn, rowsOut int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := len(g.steps)
	s := Step{ID: id, Op: op, Inputs: append([]string(nil), inputs...), Output: output,
		Note: note, RowsIn: rowsIn, RowsOut: rowsOut}
	g.steps = append(g.steps, s)
	key := strings.ToLower(output)
	g.byOutput[key] = append(g.byOutput[key], id)
	return id
}

// Steps returns a copy of all recorded steps in order.
func (g *Graph) Steps() []Step {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]Step(nil), g.steps...)
}

// Upstream returns every step that transitively feeds the named output, in
// topological (insertion) order.
func (g *Graph) Upstream(output string) []Step {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seenStep := map[int]bool{}
	seenRel := map[string]bool{}
	var visit func(rel string)
	visit = func(rel string) {
		rel = strings.ToLower(rel)
		if seenRel[rel] {
			return
		}
		seenRel[rel] = true
		for _, id := range g.byOutput[rel] {
			if seenStep[id] {
				continue
			}
			seenStep[id] = true
			for _, in := range g.steps[id].Inputs {
				visit(in)
			}
		}
	}
	visit(output)
	ids := make([]int, 0, len(seenStep))
	for id := range seenStep {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Step, len(ids))
	for i, id := range ids {
		out[i] = g.steps[id]
	}
	return out
}

// Explain renders a human-readable derivation of the named output — the
// textual analogue of the elicitation tool's provenance display (§5).
func (g *Graph) Explain(output string) string {
	steps := g.Upstream(output)
	if len(steps) == 0 {
		return fmt.Sprintf("%s: base relation (no recorded transformations)", output)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "derivation of %s:\n", output)
	for _, s := range steps {
		b.WriteString("  " + s.String() + "\n")
	}
	return b.String()
}

// SourceTables returns the set of relations that appear only as inputs
// (never as outputs) upstream of the named output — i.e. the original data
// sources feeding it.
func (g *Graph) SourceTables(output string) []string {
	steps := g.Upstream(output)
	produced := map[string]bool{}
	for _, s := range steps {
		produced[strings.ToLower(s.Output)] = true
	}
	srcSet := map[string]bool{}
	for _, s := range steps {
		for _, in := range s.Inputs {
			if !produced[strings.ToLower(in)] {
				srcSet[strings.ToLower(in)] = true
			}
		}
	}
	out := make([]string, 0, len(srcSet))
	for s := range srcSet {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
