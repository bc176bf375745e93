package relation

import (
	"fmt"
	"strings"
)

// This file holds the incremental-refresh kernel: a retained GroupBy
// accumulator that re-emits after absorbing appended rows, and the
// copy-on-write row helpers (slice, concat, splice) the ETL delta
// propagation composes per-step outputs from. None of them ever mutate
// an input table — concurrent renders keep reading the old pointers
// while a delta is being applied.

// GroupByState is a retained row-at-a-time GroupBy accumulator. It is
// the core behind groupByStream (the one-shot segment path) and the
// incremental-aggregate path of the ETL delta propagation: feed it rows
// with Add/AddTable, then Result emits the grouped table. After an
// append-only delta, feeding only the new rows and re-emitting is
// byte-identical to grouping the whole refreshed input from scratch —
// group order is first-seen, and float SUM/AVG accumulate in the same
// row order either way.
type GroupByState struct {
	template *Table // schema, name and provenance donor; never mutated
	keys     []string
	aggs     []AggSpec
	keyIdx   []int
	aggIdx   []int // -1 marks COUNT(*)
	groups   map[string]*gbGroup
	order    []string
	srcRows  int
}

type gbGroup struct {
	key     Row
	states  []*aggState
	lineage LineageSet
	members int
}

// NewGroupByState validates the keys and aggregates against t's schema
// and returns an empty accumulator. t supplies schema, name and
// provenance only; rows come from Add/AddTable.
func NewGroupByState(t *Table, keys []string, aggs []AggSpec) (*GroupByState, error) {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		idx := t.Schema.Index(k)
		if idx < 0 {
			return nil, fmt.Errorf("relation: group key %q not in %s", k, t.Schema)
		}
		keyIdx[i] = idx
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Col == "" {
			if a.Kind != AggCount {
				return nil, fmt.Errorf("relation: aggregate %s requires a column", a.Kind)
			}
			aggIdx[i] = -1
			continue
		}
		idx := t.Schema.Index(a.Col)
		if idx < 0 {
			return nil, fmt.Errorf("relation: aggregate column %q not in %s", a.Col, t.Schema)
		}
		aggIdx[i] = idx
	}
	return &GroupByState{
		template: t,
		keys:     keys,
		aggs:     aggs,
		keyIdx:   keyIdx,
		aggIdx:   aggIdx,
		groups:   map[string]*gbGroup{},
	}, nil
}

// Add absorbs one input row with its lineage.
func (s *GroupByState) Add(r Row, lin LineageSet) {
	s.srcRows++
	var kb strings.Builder
	keyVals := make(Row, len(s.keyIdx))
	for i, ki := range s.keyIdx {
		keyVals[i] = r[ki]
		kb.WriteString(r[ki].Key())
		kb.WriteByte('|')
	}
	gk := kb.String()
	g, ok := s.groups[gk]
	if !ok {
		g = &gbGroup{key: keyVals, states: make([]*aggState, len(s.aggs))}
		for i := range s.aggs {
			g.states[i] = &aggState{allInt: true, distinct: map[string]bool{}}
		}
		s.groups[gk] = g
		s.order = append(s.order, gk)
	}
	g.members++
	// Accumulate raw refs; normalized once per group on emit (an
	// incremental sorted merge is quadratic in the group size).
	g.lineage = append(g.lineage, lin...)
	for i, a := range s.aggs {
		st := g.states[i]
		if s.aggIdx[i] < 0 { // COUNT(*)
			st.n++
			continue
		}
		v := r[s.aggIdx[i]]
		if v.IsNull() {
			continue
		}
		st.n++
		switch a.Kind {
		case AggSum, AggAvg:
			if v.Kind == TInt {
				st.sumInt += v.I
				st.sum += float64(v.I)
			} else if f, ok := v.AsFloat(); ok {
				st.allInt = false
				st.sum += f
			}
		case AggMin:
			if st.min.IsNull() {
				st.min = v
			} else if c, ok := v.Compare(st.min); ok && c < 0 {
				st.min = v
			}
		case AggMax:
			if st.max.IsNull() {
				st.max = v
			} else if c, ok := v.Compare(st.max); ok && c > 0 {
				st.max = v
			}
		case AggCountDistinct:
			st.distinct[v.Key()] = true
		}
	}
}

// AddTable absorbs t's rows starting at index from (0 feeds the whole
// table), carrying each row's lineage.
func (s *GroupByState) AddTable(t *Table, from int) error {
	m, err := t.Materialize()
	if err != nil {
		return err
	}
	for ri := from; ri < len(m.Rows); ri++ {
		s.Add(m.Rows[ri], m.RowLineage(ri))
	}
	return nil
}

// SourceRows returns the number of input rows absorbed so far. The ETL
// layer compares it with the refreshed input's length to detect that a
// rolled-back delta left the state behind the table, forcing a rebuild.
func (s *GroupByState) SourceRows() int { return s.srcRows }

// Result emits the grouped table. The emitted table is independent of
// the accumulator: further Adds followed by another Result never mutate
// a previously emitted table.
func (s *GroupByState) Result() *Table {
	t := s.template
	out := &Table{Name: t.Name + "_grp"}
	cols := make([]Column, 0, len(s.keys)+len(s.aggs))
	out.ColOrigin = make([]ColRefSet, 0, cap(cols))
	for i, k := range s.keys {
		cols = append(cols, Column{Name: baseName(k), Type: t.Schema.Columns[s.keyIdx[i]].Type})
		out.ColOrigin = append(out.ColOrigin, t.ColumnOrigin(s.keyIdx[i]))
	}
	for i, a := range s.aggs {
		cols = append(cols, Column{Name: a.outName(), Type: a.outType(t.Schema)})
		if s.aggIdx[i] >= 0 {
			out.ColOrigin = append(out.ColOrigin, t.ColumnOrigin(s.aggIdx[i]))
		} else {
			// COUNT(*) derives from the whole row; attribute it to all
			// input columns so provenance over-approximates rather than
			// under-approximates.
			out.ColOrigin = append(out.ColOrigin, t.AllColumnOrigins())
		}
	}
	out.Schema = &Schema{Columns: cols}

	for _, gk := range s.order {
		g := s.groups[gk]
		nr := make(Row, 0, len(cols))
		nr = append(nr, g.key...)
		for i, a := range s.aggs {
			nr = append(nr, g.states[i].result(a.Kind))
		}
		out.Rows = append(out.Rows, nr)
		// Copy before normalizing: the group keeps accumulating raw refs
		// across emits, and the emitted table must not alias them.
		lin := append(LineageSet(nil), g.lineage...)
		out.Lineage = append(out.Lineage, lin.normalize())
	}
	return out
}

// SliceRows builds a derived in-memory table holding exactly t's rows at
// the given indices, in order, with explicit row lineage and t's column
// origins. Operators applied to the slice (mapCol, Rename+Join) produce
// rows and provenance byte-identical to the same operator applied to the
// full table at those positions — the basis for row-wise delta splicing.
func SliceRows(t *Table, idx []int) (*Table, error) {
	m, err := t.Materialize()
	if err != nil {
		return nil, err
	}
	out := t.derived(t.Name)
	out.Rows = make([]Row, 0, len(idx))
	out.Lineage = make([]LineageSet, 0, len(idx))
	for _, ri := range idx {
		if ri < 0 || ri >= len(m.Rows) {
			return nil, fmt.Errorf("relation: slice row %d out of range [0,%d)", ri, len(m.Rows))
		}
		out.Rows = append(out.Rows, m.Rows[ri])
		out.Lineage = append(out.Lineage, m.RowLineage(ri))
	}
	return out, nil
}

// ConcatRows returns a derived table with old's rows followed by tail's,
// sharing row storage with both inputs (copy-on-write: neither is
// mutated). Schemas must agree.
func ConcatRows(old, tail *Table) (*Table, error) {
	om, err := old.Materialize()
	if err != nil {
		return nil, err
	}
	tm, err := tail.Materialize()
	if err != nil {
		return nil, err
	}
	if !om.Schema.Equal(tm.Schema) {
		return nil, fmt.Errorf("relation: concat schema mismatch (%s vs %s)", om.Schema, tm.Schema)
	}
	out := old.derived(old.Name)
	out.Rows = make([]Row, 0, len(om.Rows)+len(tm.Rows))
	out.Rows = append(out.Rows, om.Rows...)
	out.Rows = append(out.Rows, tm.Rows...)
	out.Lineage = make([]LineageSet, 0, cap(out.Rows))
	for i := range om.Rows {
		out.Lineage = append(out.Lineage, om.RowLineage(i))
	}
	for i := range tm.Rows {
		out.Lineage = append(out.Lineage, tm.RowLineage(i))
	}
	return out, nil
}

// SpliceRows returns a derived copy of old with the rows at idx replaced
// positionally by repl's rows (idx[i] is replaced by repl row i),
// copy-on-write: old is never mutated, untouched rows share storage.
func SpliceRows(old *Table, idx []int, repl *Table) (*Table, error) {
	om, err := old.Materialize()
	if err != nil {
		return nil, err
	}
	rm, err := repl.Materialize()
	if err != nil {
		return nil, err
	}
	if len(idx) != len(rm.Rows) {
		return nil, fmt.Errorf("relation: splice arity mismatch (%d indices, %d rows)", len(idx), len(rm.Rows))
	}
	if !om.Schema.Equal(rm.Schema) {
		return nil, fmt.Errorf("relation: splice schema mismatch (%s vs %s)", om.Schema, rm.Schema)
	}
	out := old.derived(old.Name)
	out.Rows = make([]Row, len(om.Rows))
	copy(out.Rows, om.Rows)
	out.Lineage = make([]LineageSet, len(om.Rows))
	for i := range om.Rows {
		out.Lineage[i] = om.RowLineage(i)
	}
	for i, ri := range idx {
		if ri < 0 || ri >= len(out.Rows) {
			return nil, fmt.Errorf("relation: splice row %d out of range [0,%d)", ri, len(out.Rows))
		}
		out.Rows[ri] = rm.Rows[i]
		out.Lineage[ri] = rm.RowLineage(i)
	}
	return out, nil
}
