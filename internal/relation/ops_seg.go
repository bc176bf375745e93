package relation

// ops_seg.go holds the segment-backed operator paths. The strategy is
// partition-wise delegation: stream each surviving partition as an
// in-memory sub-table (segtable.go) and run the regular operator on it,
// so a segment-backed run produces byte-identical rows, lineage and
// errors to the fully in-memory run — TestSegmentOpsEquivalence pins
// this. Operators that inherently need the whole relation at once
// (Project, Sort, Union, ...) materialize first in ops.go.

// selectSeg filters a segment-backed table: zone maps prune whole
// partitions before decode, surviving partitions are filtered by Select
// and concatenated in partition order.
func selectSeg(t *Table, pred Expr) (*Table, error) {
	out := t.derived(t.Name + "_sel")
	sc := newSegScan(t, pred)
	defer sc.Close()
	for {
		pt, err := sc.nextTable()
		if err != nil {
			return nil, err
		}
		if pt == nil {
			return out, nil
		}
		sub, err := Select(pt, pred)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, sub.Rows...)
		out.Lineage = append(out.Lineage, sub.Lineage...)
	}
}

// groupBySeg aggregates a segment-backed table by streaming partitions
// through the row-at-a-time accumulator core (groupByStream) — the one
// the test reference GroupBy uses, so grouping order, aggregate values
// and group lineage come out byte-identical.
func groupBySeg(t *Table, keys []string, aggs []AggSpec) (*Table, error) {
	return groupByStream(t, keys, aggs, func(visit func(Row, LineageSet)) error {
		sc := newSegScan(t, nil)
		defer sc.Close()
		for {
			pt, err := sc.nextTable()
			if err != nil {
				return err
			}
			if pt == nil {
				return nil
			}
			for ri, r := range pt.Rows {
				visit(r, pt.Lineage[ri])
			}
		}
	})
}

// joinSeg joins when either side is segment-backed. The right side is
// materialized (it is the hash-build side in every fast path); a
// segment-backed left side streams partition sub-tables through Join,
// concatenating in partition order — the same output order as the
// in-memory join, which streams the left side.
func joinSeg(l, r *Table, pred Expr, kind JoinKind) (*Table, error) {
	rm, err := r.Materialize()
	if err != nil {
		return nil, err
	}
	if l.seg == nil {
		return Join(l, rm, pred, kind)
	}
	out := newJoinShell(l, rm)
	sc := newSegScan(l, nil)
	defer sc.Close()
	for {
		pt, err := sc.nextTable()
		if err != nil {
			return nil, err
		}
		if pt == nil {
			return out, nil
		}
		sub, err := Join(pt, rm, pred, kind)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, sub.Rows...)
		out.Lineage = append(out.Lineage, sub.Lineage...)
	}
}

// renameSeg renames a segment-backed table without materializing
// per-row lineage: the copied backing keeps its origin, and RowLineage
// reconstructs {origin#i} positionally — exactly the sets the in-memory
// Rename writes out one by one.
func renameSeg(t *Table, name string) *Table {
	out := t.derived(name)
	out.Schema = t.Schema.Qualify(name)
	b := *t.seg
	out.seg = &b
	if !t.Base && t.Lineage != nil {
		out.Lineage = t.Lineage
	}
	return out
}
