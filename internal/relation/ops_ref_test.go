package relation

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// The row-at-a-time reference implementations of the relational
// operators. Production code runs only the vectorized kernels
// (ops_vec.go), fed by a Scanner whatever the storage; the bodies
// below are the executable specification those kernels must match
// byte for byte — same rows in the same order, same lineage sets, same
// column origins, same errors. vec_equiv_test.go and segment_test.go call
// each reference directly beside its production twin.
//
// The references compute lineage the way it is defined, as LineageSets —
// a join row's is the merge of its two rows' sets, a group's the
// normalized union of its members' — and store the sets on their output
// with setLineage, which production never does.

// mergeLineage unions two sorted LineageSets.
func mergeLineage(a, b LineageSet) LineageSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(LineageSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch cmpRef(a[i], b[j]) {
		case -1:
			out = append(out, a[i])
			i++
		case 1:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// normalize sorts and deduplicates the set in place, returning it.
func (l LineageSet) normalize() LineageSet {
	sort.Slice(l, func(i, j int) bool { return cmpRef(l[i], l[j]) < 0 })
	out := l[:0]
	for i, r := range l {
		if i == 0 || cmpRef(r, out[len(out)-1]) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// setLineage stores sets, one set per row, as t's lineage: by column — as
// many columns for a table as a row has refs into it — when every ref is an
// ordinal an int32 holds, packed otherwise. It returns t.
func setLineage(t *Table, sets []LineageSet) *Table {
	t.lin, t.packed, t.origin = lineageCols{}, nil, ""
	width := map[string]int{}
	fits := true
	sets = slices.Clone(sets)
	for i, set := range sets {
		set = append(LineageSet(nil), set...).normalize()
		sets[i] = set
		for lo, hi := 0, 0; lo < len(set); lo = hi {
			for hi = lo; hi < len(set) && set[hi].Table == set[lo].Table; hi++ {
				fits = fits && set[hi].Row >= 0 && set[hi].Row <= math.MaxInt32
			}
			width[set[lo].Table] = max(width[set[lo].Table], hi-lo)
		}
	}
	if !fits {
		var sc lineageScratch
		t.packed = make([]groupLineage, len(sets))
		for i, set := range sets {
			for _, ref := range set {
				k := sc.bucket(ref.Table)
				sc.rows[k] = append(sc.rows[k], ref.Row)
			}
			t.packed[i] = sc.pack()
		}
		return t
	}
	tables := make([]string, 0, len(width))
	for table := range width {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		for range width[table] {
			col := make([]int32, len(sets))
			for i := range col {
				col[i] = -1
			}
			t.lin.tables, t.lin.cols = append(t.lin.tables, table), append(t.lin.cols, col)
		}
	}
	for i, set := range sets {
		k := 0
		for _, ref := range set {
			for t.lin.tables[k] != ref.Table || t.lin.cols[k][i] >= 0 {
				k++
			}
			t.lin.cols[k][i] = int32(ref.Row)
		}
	}
	return t
}

// selectRows is the row-at-a-time reference implementation of Select.
func selectRows(t *Table, pred Expr) (*Table, error) {
	t = t.mustMaterialize()
	out := t.derived(t.Name + "_sel")
	var lin []LineageSet
	for i, r := range t.Rows {
		ok, err := EvalPredicate(pred, r, t.Schema)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, r)
			lin = append(lin, t.RowLineage(i))
		}
	}
	return setLineage(out, lin), nil
}

// projectRows is the row-at-a-time reference implementation of Project.
func projectRows(t *Table, cols ...ProjCol) (*Table, error) {
	t = t.mustMaterialize()
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: empty projection")
	}
	out := &Table{Name: t.Name + "_proj"}
	schemaCols := make([]Column, len(cols))
	out.ColOrigin = make([]ColRefSet, len(cols))
	for i, p := range cols {
		schemaCols[i] = Column{Name: p.outName(), Type: InferType(p.Expr, t.Schema)}
		var origin ColRefSet
		for _, ref := range ColumnsOf(p.Expr) {
			ci := t.Schema.Index(ref)
			if ci < 0 {
				return nil, fmt.Errorf("relation: projection references unknown column %q", ref)
			}
			origin = append(origin, t.ColumnOrigin(ci)...)
		}
		out.ColOrigin[i] = origin.normalize()
	}
	out.Schema = &Schema{Columns: schemaCols}
	var lin []LineageSet
	for i, r := range t.Rows {
		nr := make(Row, len(cols))
		for j, p := range cols {
			v, err := p.Expr.Eval(r, t.Schema)
			if err != nil {
				return nil, err
			}
			nr[j] = v
			if out.Schema.Columns[j].Type == TNull && !v.IsNull() {
				out.Schema.Columns[j].Type = v.Kind
			}
		}
		out.Rows = append(out.Rows, nr)
		lin = append(lin, t.RowLineage(i))
	}
	return setLineage(out, lin), nil
}

// extendRows is the row-at-a-time reference implementation of Extend.
func extendRows(t *Table, name string, e Expr) (*Table, error) {
	t = t.mustMaterialize()
	out := t.derived(t.Name + "_ext")
	out.Schema.Columns = append(out.Schema.Columns, Column{Name: name, Type: InferType(e, t.Schema)})
	var origin ColRefSet
	for _, ref := range ColumnsOf(e) {
		ci := t.Schema.Index(ref)
		if ci < 0 {
			return nil, fmt.Errorf("relation: extend references unknown column %q", ref)
		}
		origin = append(origin, t.ColumnOrigin(ci)...)
	}
	out.ColOrigin = append(out.ColOrigin, origin.normalize())
	var lin []LineageSet
	for i, r := range t.Rows {
		v, err := e.Eval(r, t.Schema)
		if err != nil {
			return nil, err
		}
		nr := make(Row, len(r)+1)
		copy(nr, r)
		nr[len(r)] = v
		out.Rows = append(out.Rows, nr)
		lin = append(lin, t.RowLineage(i))
	}
	return setLineage(out, lin), nil
}

// NestedLoopJoin joins l and r by evaluating pred on every row pair, with
// no hash fast path: the production nested-loop plan, forced. It is the
// semantic reference the hash joins must match and the baseline the
// benchmark suite measures them against.
func NestedLoopJoin(l, r *Table, pred Expr, kind JoinKind) (*Table, error) {
	out, _, err := joinOrd(l, r, pred, kind, true)
	return out, err
}

// joinRows is the row-at-a-time reference implementation of Join.
func joinRows(l, r *Table, pred Expr, kind JoinKind) (*Table, error) {
	l, r = l.mustMaterialize(), r.mustMaterialize()
	out := &Table{Name: l.Name + "_join_" + r.Name}
	cols := make([]Column, 0, l.Schema.Len()+r.Schema.Len())
	cols = append(cols, l.Schema.Columns...)
	cols = append(cols, r.Schema.Columns...)
	out.Schema = &Schema{Columns: cols}
	out.ColOrigin = make([]ColRefSet, 0, len(cols))
	for c := range l.Schema.Columns {
		out.ColOrigin = append(out.ColOrigin, l.ColumnOrigin(c))
	}
	for c := range r.Schema.Columns {
		out.ColOrigin = append(out.ColOrigin, r.ColumnOrigin(c))
	}

	joined := out.Schema
	var lin []LineageSet
	// Fast path: equi-join on a simple column pair.
	if lc, rc, ok := equiJoinCols(pred, l.Schema, r.Schema); ok {
		idx := make(map[string][]int, len(r.Rows))
		for j, rr := range r.Rows {
			if rr[rc].IsNull() {
				continue
			}
			k := rr[rc].Key()
			idx[k] = append(idx[k], j)
		}
		for i, lr := range l.Rows {
			matched := false
			if !lr[lc].IsNull() {
				for _, j := range idx[lr[lc].Key()] {
					nr := make(Row, 0, len(cols))
					nr = append(nr, lr...)
					nr = append(nr, r.Rows[j]...)
					out.Rows = append(out.Rows, nr)
					lin = append(lin, mergeLineage(l.RowLineage(i), r.RowLineage(j)))
					matched = true
				}
			}
			if !matched && kind == LeftJoin {
				nr := make(Row, len(cols))
				copy(nr, lr)
				out.Rows = append(out.Rows, nr)
				lin = append(lin, l.RowLineage(i))
			}
		}
		return setLineage(out, lin), nil
	}

	// General nested-loop join.
	for i, lr := range l.Rows {
		matched := false
		for j, rr := range r.Rows {
			nr := make(Row, 0, len(cols))
			nr = append(nr, lr...)
			nr = append(nr, rr...)
			ok, err := EvalPredicate(pred, nr, joined)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, nr)
				lin = append(lin, mergeLineage(l.RowLineage(i), r.RowLineage(j)))
				matched = true
			}
		}
		if !matched && kind == LeftJoin {
			nr := make(Row, len(cols))
			copy(nr, lr)
			out.Rows = append(out.Rows, nr)
			lin = append(lin, l.RowLineage(i))
		}
	}
	return setLineage(out, lin), nil
}

// groupByRows is the row-at-a-time reference implementation of GroupBy:
// string-keyed groups, one Value per cell, Value.Key()-keyed distincts,
// generic lineage normalization. It shares nothing with the production
// accumulator (GroupByState) beyond the AggSpec naming helpers.
func groupByRows(t *Table, keys []string, aggs []AggSpec) (*Table, error) {
	t = t.mustMaterialize()
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

	type refAgg struct {
		n        int64
		sum      float64
		sumInt   int64
		allInt   bool
		min, max Value
		distinct map[string]bool
	}
	type refGroup struct {
		key     Row
		states  []*refAgg
		lineage LineageSet
	}
	groups := map[string]*refGroup{}
	var order []string
	for ri, r := range t.Rows {
		var kb strings.Builder
		keyVals := make(Row, len(keyIdx))
		for i, ki := range keyIdx {
			keyVals[i] = r[ki]
			kb.WriteString(r[ki].Key())
			kb.WriteByte('|')
		}
		gk := kb.String()
		g, ok := groups[gk]
		if !ok {
			g = &refGroup{key: keyVals, states: make([]*refAgg, len(aggs))}
			for i := range aggs {
				g.states[i] = &refAgg{allInt: true, distinct: map[string]bool{}}
			}
			groups[gk] = g
			order = append(order, gk)
		}
		g.lineage = append(g.lineage, t.RowLineage(ri)...)
		for i, a := range aggs {
			st := g.states[i]
			if aggIdx[i] < 0 { // COUNT(*)
				st.n++
				continue
			}
			v := r[aggIdx[i]]
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

	out := &Table{Name: t.Name + "_grp"}
	var cols []Column
	for i, k := range keys {
		cols = append(cols, Column{Name: baseName(k), Type: t.Schema.Columns[keyIdx[i]].Type})
		out.ColOrigin = append(out.ColOrigin, t.ColumnOrigin(keyIdx[i]))
	}
	for i, a := range aggs {
		cols = append(cols, Column{Name: a.outName(), Type: a.outType(t.Schema)})
		if aggIdx[i] >= 0 {
			out.ColOrigin = append(out.ColOrigin, t.ColumnOrigin(aggIdx[i]))
		} else {
			out.ColOrigin = append(out.ColOrigin, t.AllColumnOrigins())
		}
	}
	out.Schema = &Schema{Columns: cols}
	var lin []LineageSet
	for _, gk := range order {
		g := groups[gk]
		nr := append(Row(nil), g.key...)
		for i, a := range aggs {
			st := g.states[i]
			var v Value // NULL: SUM/AVG/MIN/MAX over no non-null cell
			switch a.Kind {
			case AggCount:
				v = Int(st.n)
			case AggSum:
				if st.n > 0 && st.allInt {
					v = Int(st.sumInt)
				} else if st.n > 0 {
					v = Float(st.sum)
				}
			case AggAvg:
				if st.n > 0 {
					v = Float(st.sum / float64(st.n))
				}
			case AggMin:
				v = st.min
			case AggMax:
				v = st.max
			case AggCountDistinct:
				v = Int(int64(len(st.distinct)))
			}
			nr = append(nr, v)
		}
		out.Rows = append(out.Rows, nr)
		lin = append(lin, g.lineage.normalize())
	}
	return setLineage(out, lin), nil
}

// emitGroupLineage is the group lineage emit GroupBy had before it kept
// lineage packed, an oracle beside LineageSet.normalize: a group's gathered
// refs bucketed by table, tables ascending; a table's rows swept through a
// bitset when they are unsorted and dense (none negative, the largest below
// 4n+1024), sorted otherwise; then written out as refs, deduplicated.
func emitGroupLineage(refs LineageSet) LineageSet {
	buckets := map[string][]int{}
	var tables []string
	for _, r := range refs {
		if _, ok := buckets[r.Table]; !ok {
			tables = append(tables, r.Table)
		}
		buckets[r.Table] = append(buckets[r.Table], r.Row)
	}
	sort.Strings(tables)
	var out LineageSet
	for _, table := range tables {
		rows := buckets[table]
		if !sort.IntsAreSorted(rows) {
			lo, hi := rows[0], rows[0]
			for _, r := range rows {
				lo, hi = min(lo, r), max(hi, r)
			}
			if lo >= 0 && hi < 4*len(rows)+1024 {
				words := make([]uint64, hi/64+1)
				for _, r := range rows {
					words[r>>6] |= 1 << (uint(r) & 63)
				}
				for wi, w := range words {
					for ; w != 0; w &= w - 1 {
						out = append(out, RowRef{Table: table, Row: wi<<6 | bits.TrailingZeros64(w)})
					}
				}
				continue
			}
			sort.Ints(rows)
		}
		for i, r := range rows {
			if i == 0 || r != rows[i-1] {
				out = append(out, RowRef{Table: table, Row: r})
			}
		}
	}
	return out
}

// unionRows is the row-at-a-time reference implementation of Union.
func unionRows(a, b *Table) (*Table, error) {
	a, b = a.mustMaterialize(), b.mustMaterialize()
	if a.Schema.Len() != b.Schema.Len() {
		return nil, fmt.Errorf("relation: union arity mismatch: %s vs %s", a.Schema, b.Schema)
	}
	out := a.derived(a.Name + "_union")
	for c := range out.ColOrigin {
		out.ColOrigin[c] = out.ColOrigin[c].Union(b.ColumnOrigin(c))
	}
	var lin []LineageSet
	for _, t := range []*Table{a, b} {
		for i, r := range t.Rows {
			out.Rows = append(out.Rows, r)
			lin = append(lin, t.RowLineage(i))
		}
	}
	return setLineage(out, lin), nil
}

// sliceRowsRef is the row-at-a-time reference implementation of SliceRows.
func sliceRowsRef(t *Table, idx []int) (*Table, error) {
	t = t.mustMaterialize()
	out := t.derived(t.Name)
	var lin []LineageSet
	for _, ri := range idx {
		if ri < 0 || ri >= len(t.Rows) {
			return nil, fmt.Errorf("relation: slice row %d out of range [0,%d)", ri, len(t.Rows))
		}
		out.Rows = append(out.Rows, t.Rows[ri])
		lin = append(lin, t.RowLineage(ri))
	}
	return setLineage(out, lin), nil
}

// distinctRows is the row-at-a-time reference implementation of Distinct.
func distinctRows(t *Table) *Table {
	t = t.mustMaterialize()
	out := t.derived(t.Name + "_dist")
	var lin []LineageSet
	index := map[string]int{}
	for i, r := range t.Rows {
		var kb strings.Builder
		for _, v := range r {
			kb.WriteString(v.Key())
			kb.WriteByte('|')
		}
		k := kb.String()
		if j, ok := index[k]; ok {
			lin[j] = append(lin[j], t.RowLineage(i)...)
			continue
		}
		index[k] = len(out.Rows)
		out.Rows = append(out.Rows, r)
		lin = append(lin, append(LineageSet(nil), t.RowLineage(i)...))
	}
	for j := range lin {
		lin[j] = lin[j].normalize()
	}
	return setLineage(out, lin)
}
