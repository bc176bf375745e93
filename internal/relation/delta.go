package relation

import "fmt"

// This file holds the copy-on-write row helpers (slice, concat, splice)
// the ETL delta propagation composes per-step outputs from. None of them
// ever mutate an input table — concurrent renders keep reading the old
// pointers while a delta is being applied.

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
	out.Lineage = append(out.Lineage, om.lineage()...)
	out.Lineage = append(out.Lineage, tm.lineage()...)
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
	out.Lineage = append([]LineageSet(nil), om.lineage()...)
	for i, ri := range idx {
		if ri < 0 || ri >= len(out.Rows) {
			return nil, fmt.Errorf("relation: splice row %d out of range [0,%d)", ri, len(out.Rows))
		}
		out.Rows[ri] = rm.Rows[i]
		out.Lineage[ri] = rm.RowLineage(i)
	}
	return out, nil
}
