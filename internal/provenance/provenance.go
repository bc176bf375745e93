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
	"slices"
	"sort"
	"strings"
	"sync"

	"plabi/internal/relation"
	"plabi/internal/sql"
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

// RowTrace is the row-level lineage of one derived row: the row itself,
// read where it stands. Support is counted over the table's lineage parts
// and refs are walked through a callback, so neither builds the row's
// lineage set.
type RowTrace struct {
	Row int
	tab *relation.Table
}

// Len returns the number of base rows the traced row derives from.
func (rt RowTrace) Len() int {
	n := 0
	rt.tab.LineageParts(rt.Row, func(p relation.LineagePart) bool {
		n += p.Len()
		return true
	})
	return n
}

// Refs calls fn with each base row the traced row derives from, in (table,
// row) order, until fn returns false.
func (rt RowTrace) Refs(fn func(relation.RowRef) bool) {
	rt.tab.LineageParts(rt.Row, func(p relation.LineagePart) bool {
		return p.Rows(func(row int) bool { return fn(relation.RowRef{Table: p.Table, Row: row}) })
	})
}

// ThresholdSupport is the support an aggregation threshold counts for the
// traced row, the largest any one base table gives it: with by empty, the
// number of that table's rows behind the row; otherwise the number of
// distinct values of column by among them, over the tables carrying it.
// Rows of different tables are never added up — a row joined to two lookup
// rows is one row of support, not three.
func (t *Tracer) ThresholdSupport(rt RowTrace, by string) int {
	best := 0
	rt.tab.LineageParts(rt.Row, func(p relation.LineagePart) bool {
		n := p.Len()
		if by != "" {
			n = t.distinctSupport(p, by)
		}
		best = max(best, n)
		return true
	})
	return best
}

// DistinctSupport returns the number of distinct values of column col among
// the base rows of table that support this row — e.g. the number of
// distinct patients behind an aggregate group.
func (t *Tracer) DistinctSupport(rt RowTrace, table, col string) int {
	n := 0
	rt.tab.LineageParts(rt.Row, func(p relation.LineagePart) bool {
		if p.Table == table {
			n = t.distinctSupport(p, col)
		}
		return p.Table < table
	})
	return n
}

// distinctSupport is DistinctSupport over one table's share of a row's
// lineage.
func (t *Tracer) distinctSupport(p relation.LineagePart, col string) int {
	base, ok := t.base(p.Table)
	if !ok {
		return 0
	}
	ci := base.Schema.Index(col)
	if ci < 0 {
		return 0
	}
	// The base's dictionary codes — relation.MapKey partitions values into
	// exactly Value.Key's equivalence classes, so dense codes count the same
	// distincts — make every threshold check an array scan over a
	// seen-bitset instead of one hash probe per supporting row.
	codes, card, ok := base.DistinctCodes(ci)
	if !ok {
		// Segment-backed base whose store failed mid-build: fall back to
		// the per-ref path, which degrades per cell instead of per column.
		return distinctSupportRows(p, base, ci)
	}
	return p.CountCodes(codes, make([]uint64, (card+63)/64))
}

// distinctSupportRows is the fallback distinct count: canonical string
// keys, one lookup per supporting ref. ValueAt streams segment-backed
// bases one partition at a time; an unreadable cell is skipped, which
// can only lower the count — the fail-closed direction for thresholds.
func distinctSupportRows(p relation.LineagePart, base *relation.Table, ci int) int {
	seen := map[string]bool{}
	p.Rows(func(row int) bool {
		if row < 0 || row >= base.NumRows() {
			return true
		}
		if v, err := base.ValueAt(row, ci); err == nil {
			seen[v.Key()] = true
		}
		return true
	})
	return len(seen)
}

// Tracer resolves lineage references against the base tables of a catalog
// snapshot: a sql.Snapshot, or a sql.Catalog's current one at each lookup.
type Tracer struct{ src sql.Source }

// Over returns a tracer resolving base-table names through src.
func Over(src sql.Source) *Tracer { return &Tracer{src: src} }

// NewTracer returns a tracer over a private, empty catalog.
func NewTracer() *Tracer { return Over(sql.NewCatalog()) }

// RegisterBase registers (or replaces) a base table in the catalog of a
// tracer made by NewTracer.
func (t *Tracer) RegisterBase(tb *relation.Table) { t.src.(*sql.Catalog).Register(tb) }

// RefreshBase is RegisterBase; appendFrom is ignored.
func (t *Tracer) RefreshBase(tb *relation.Table, appendFrom int) { t.RegisterBase(tb) }

func (t *Tracer) base(name string) (*relation.Table, bool) { return t.src.Snapshot().Table(name) }

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

// TraceRow returns the row-level trace of row i of tab, which must not be
// written while the trace is in use.
func (t *Tracer) TraceRow(tab *relation.Table, i int) (RowTrace, error) {
	if i < 0 || i >= tab.NumRows() {
		return RowTrace{}, fmt.Errorf("provenance: row %d out of range", i)
	}
	return RowTrace{Row: i, tab: tab}, nil
}

// BaseValue fetches a base cell's value; ok reports
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

// Graph is a transformation graph holding each distinct step once. It is
// safe for concurrent use.
type Graph struct {
	mu       sync.RWMutex
	steps    []Step
	byOutput map[string][]int
}

// NewGraph returns an empty transformation graph.
func NewGraph() *Graph {
	return &Graph{byOutput: map[string][]int{}}
}

// AddStep records a transformation step and returns its id. A step equal
// to a recorded one in op, inputs, output and note is that step: its row
// counts are updated, so re-running a pipeline, a delta or a render leaves
// the graph its size.
func (g *Graph) AddStep(op string, inputs []string, output, note string, rowsIn, rowsOut int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := strings.ToLower(output)
	for _, id := range g.byOutput[key] {
		if s := &g.steps[id]; s.Op == op && s.Output == output && s.Note == note && slices.Equal(s.Inputs, inputs) {
			s.RowsIn, s.RowsOut = rowsIn, rowsOut
			return id
		}
	}
	id := len(g.steps)
	s := Step{ID: id, Op: op, Inputs: append([]string(nil), inputs...), Output: output,
		Note: note, RowsIn: rowsIn, RowsOut: rowsOut}
	g.steps = append(g.steps, s)
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
