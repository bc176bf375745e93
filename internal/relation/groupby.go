package relation

import (
	"fmt"
	"sync"
)

// GroupByState is the GroupBy accumulator — the one place rows are grouped
// and aggregated. GroupBy feeds it a whole scan and emits once; the ETL
// delta path retains it, feeds only the rows appended since and re-emits.
// Group keys are interned to dense ids with no per-row key allocation: over
// a frozen in-memory table through the version's dictionary (DistinctCodes),
// one interner probe per distinct value, otherwise one per row. Numeric
// aggregates accumulate over the typed column vectors of each batch, and a
// group's lineage is packed on emit, per base table, without a RowRef made
// (lineage.go). Feeding a table in pieces is byte-identical to feeding it
// whole: group order is first-seen, and float SUM/AVG accumulate in row
// order within a group either way. Only GroupBy, grouping a frozen
// in-memory table whole by one column, reads or publishes the version's
// grouping, which an append carries to the next version (extendGrouping);
// a state fed through AddTable does neither.
type GroupByState struct {
	template *Table // schema, name and provenance donor; never mutated
	keys     []string
	aggs     []AggSpec
	keyIdx   []int
	aggIdx   []int // -1 marks COUNT(*)
	cols     []int // the columns add reads: the keys, then the aggregate inputs
	keyer    *rowKeyer
	// A single key needs no group index: groups open in the order its
	// interner hands out ids, so a group's id is its key's id less one. Keys
	// of none or two columns pack into a uint64, so the index can be a plain
	// integer map — cheaper to hash than the composite struct.
	byWide  map[uint64]int32
	byKey   map[compositeKey]int32
	groups  []gbGroup // first-seen order
	srcRows int
	// held is the per-batch row lists the groups' fresh rows point into,
	// handed back to idBufs once Result has packed them.
	held []*[]uint32
}

// gbGroup is one group's key, aggregate states (one per AggSpec) and
// lineage. lineage is packed and shared with every table emitted so far, so
// it is never written again; fresh names the member rows absorbed since,
// whose refs the next emit folds in.
type gbGroup struct {
	key     Row
	states  []aggState
	lineage groupLineage
	fresh   []gbRows
}

// gbRows is the rows of one batch that fell into one group: rows off+r of
// the scanned table src, r in rows, whose lineage is read there, never
// written.
type gbRows struct {
	src  *Table
	off  int
	rows []uint32
}

// NewGroupByState validates the keys and aggregates against t's schema
// and returns an empty accumulator. t supplies schema, name and
// provenance only; rows come from AddTable.
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
	capHint := min(t.NumRows(), 64) // most GROUP BYs a report runs have few groups
	cols := append([]int(nil), keyIdx...)
	for _, ci := range aggIdx {
		if ci >= 0 {
			cols = append(cols, ci)
		}
	}
	s := &GroupByState{template: t, keys: keys, aggs: aggs, keyIdx: keyIdx, aggIdx: aggIdx, cols: cols,
		keyer: newRowKeyer(keyIdx, capHint)}
	switch {
	case len(keyIdx) == 1:
	case len(keyIdx) <= 2:
		s.byWide = make(map[uint64]int32, capHint)
	default:
		s.byKey = make(map[compositeKey]int32, capHint)
	}
	return s, nil
}

// AddTable absorbs t's rows, batch by batch, carrying each row's lineage.
// A segment scan decodes the key and aggregate columns and no other.
func (s *GroupByState) AddTable(t *Table) error {
	return eachBatch(t, nil, func(b *Batch) error { return b.load(s.cols) }, s.add)
}

// SourceRows returns the number of input rows absorbed so far. The ETL
// layer compares it with the refreshed input's length to detect that a
// rolled-back delta left the state behind the table, forcing a rebuild.
func (s *GroupByState) SourceRows() int { return s.srcRows }

// groupOf returns the dense id of the group of row ri, whose key cells have
// the ids ids[i][ri], opening the group on first sight with the key cells
// of row ri of the key vectors.
func (s *GroupByState) groupOf(ids [][]uint32, keyVecs []*Vector, ri int) int32 {
	gi := int32(len(s.groups))
	switch {
	case len(ids) == 1:
		gi = int32(ids[0][ri]) - 1
	case s.byWide != nil:
		ck := s.keyer.vecKey(ids, ri)
		if had, ok := s.byWide[ck.wide]; ok {
			gi = had
		} else {
			s.byWide[ck.wide] = gi
		}
	default:
		ck := s.keyer.vecKey(ids, ri)
		if had, ok := s.byKey[ck]; ok {
			gi = had
		} else {
			s.byKey[ck] = gi
		}
	}
	if int(gi) < len(s.groups) {
		return gi
	}
	key := make(Row, len(keyVecs))
	for i, v := range keyVecs {
		key[i] = v.Value(ri)
	}
	states := make([]aggState, len(s.aggs))
	for i := range states {
		states[i].allInt = true
	}
	s.groups = append(s.groups, gbGroup{key: key, states: states})
	return gi
}

// add absorbs one batch, reading the key and aggregate columns as vectors
// and the lineage of its rows — never rows, so a segment partition is
// grouped without any being built. The key cells of an in-memory batch of a
// frozen table are interned through the version's dictionary; any other
// batch's, cell by cell. Scratch is per batch (key ids, group ids, one row
// cursor per group), never per table.
func (s *GroupByState) add(b *Batch) error {
	n := b.Len()
	keyVecs := make([]*Vector, len(s.keyIdx))
	ids := make([][]uint32, len(s.keyIdx))
	for i, ci := range s.keyIdx {
		v, err := b.Col(ci)
		if err != nil {
			return err
		}
		buf := idBuf(n)
		defer idBufs.Put(buf)
		keyVecs[i], ids[i] = v, *buf
		if codes, card, ok := b.dictCodes(ci); ok {
			s.keyer.ins[i].codeIDs(v, codes, card, ids[i])
		} else {
			s.keyer.ins[i].vecIDs(v, ids[i])
		}
	}
	aggVecs := make([]*Vector, len(s.aggs))
	for ai, ci := range s.aggIdx {
		if ci < 0 {
			continue
		}
		v, err := b.Col(ci)
		if err != nil {
			return err
		}
		aggVecs[ai] = v
	}
	s.srcRows += n

	// Pass 1: assign group ids and count the rows each group draws from this
	// batch, then list the batch's rows group by group out of one
	// exactly-sized array. The lineage itself stays where it is until emit,
	// which packs it once per group.
	buf := idBuf(n)
	defer idBufs.Put(buf)
	gids := *buf
	cur := make([]int, len(s.groups), len(s.groups)+64)
	for ri := range gids {
		gi := s.groupOf(ids, keyVecs, ri)
		if int(gi) == len(cur) {
			cur = append(cur, 0)
		}
		gids[ri] = uint32(gi)
		cur[gi]++
	}
	off := 0
	for gi, n := range cur {
		cur[gi] = off
		off += n
	}
	held := idBuf(n)
	s.held = append(s.held, held)
	rows := *held
	for ri, gi := range gids {
		rows[cur[gi]] = uint32(ri)
		cur[gi]++
	}
	start := 0
	for gi, end := range cur { // each cursor now sits at its slot's end
		if end > start {
			g := &s.groups[gi]
			g.fresh = append(g.fresh, gbRows{src: b.src, off: b.start(), rows: rows[start:end:end]})
		}
		start = end
	}

	// Pass 2: the aggregates.
	aggregate(s, gids, nil, aggVecs, nil)
	return nil
}

// aggregate accumulates the aggregates of one batch, column by column over
// its vectors: row ri into the group of class cls[ri], class c being group
// c, or group group[c] when group is not nil (-1: no row is of class c).
// counts, when not nil, is each group's member rows in the batch, which
// COUNT(*) then adds instead of counting them.
func aggregate[C int32 | uint32](s *GroupByState, cls []C, group []int32, aggVecs []*Vector, counts []int32) {
	groups := s.groups
	for ai, a := range s.aggs {
		if s.aggIdx[ai] < 0 && counts != nil {
			for gi, n := range counts {
				groups[gi].states[ai].n += int64(n)
			}
			continue
		}
		// This aggregate's state per class, one load from a row's class.
		classes := len(groups)
		if group != nil {
			classes = len(group)
		}
		sts := make([]*aggState, classes)
		for c := range sts {
			gi := int32(c)
			if group != nil {
				gi = group[c]
			}
			if gi >= 0 {
				sts[c] = &groups[gi].states[ai]
			}
		}
		if s.aggIdx[ai] < 0 { // COUNT(*): one per member row
			for _, c := range cls {
				sts[c].n++
			}
			continue
		}
		vec := aggVecs[ai]
		switch {
		case (a.Kind == AggSum || a.Kind == AggAvg) && vec.V == nil && vec.Kind == TInt:
			null := vec.Null
			for ri, x := range vec.I {
				if null != nil && null[ri] {
					continue
				}
				st := sts[cls[ri]]
				st.n++
				st.sumInt += x
				st.sum += float64(x)
			}
		case (a.Kind == AggSum || a.Kind == AggAvg) && vec.V == nil && vec.Kind == TFloat:
			null := vec.Null
			for ri, f := range vec.F {
				if null != nil && null[ri] {
					continue
				}
				st := sts[cls[ri]]
				st.n++
				st.allInt = false
				st.sum += f
			}
		default:
			for ri := 0; ri < vec.Len(); ri++ {
				v := vec.Value(ri)
				if v.IsNull() {
					continue
				}
				st := sts[cls[ri]]
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
					if st.distinct == nil {
						st.distinct = map[ValKey]bool{}
					}
					st.distinct[MapKey(v)] = true
				}
			}
		}
	}
}

// grouping is what GroupBy by one column forms over a frozen in-memory
// version whatever its aggregates: the groups, first-seen, with each one's
// key, member count and packed lineage, and the group of each of the
// column's dictionary codes. The first such GroupBy builds it from its
// result and publishes it on the version (resident.groups); every later one
// reads a row's group off its code and runs the aggregate pass alone
// (regroup). An edit that only appends hands the next version a copy
// extended by the appended rows (extendGrouping), sharing every part they
// do not touch. Its lineage is shared by every table emitted since, and by
// the groupings of the versions after, and never written.
type grouping struct {
	byCode  []int32 // per code, its group, or -1 for a code no row holds
	keys    []Value
	counts  []int32
	lineage []groupLineage
}

// groupingOf returns the grouping of t, frozen and in memory, that s holds
// once fed t whole by its one key column, but for its lineage, which s
// packs on emit. s met t's codes in row order and opened a group at each
// new one (codeIDs), so the groups are the codes in order of first sight.
func (s *GroupByState) groupingOf(t *Table) *grouping {
	codes, card, _ := t.DistinctCodes(s.keyIdx[0])
	g := &grouping{byCode: make([]int32, card), keys: make([]Value, len(s.groups)), counts: make([]int32, len(s.groups))}
	for c := range g.byCode {
		g.byCode[c] = -1
	}
	opened := 0
	for _, c := range codes {
		if opened == len(s.groups) {
			break
		}
		if g.byCode[c] < 0 {
			g.byCode[c] = int32(opened)
			opened++
		}
	}
	for gi, grp := range s.groups {
		g.keys[gi] = grp.key[0]
		for _, f := range grp.fresh {
			g.counts[gi] += int32(len(f.rows))
		}
	}
	return g
}

// regroup is GroupBy over t, frozen and in memory, through g, its version's
// grouping by s's one key column: the groups and their lineage are g's, and
// only the aggregates are computed — COUNT(*) from g's member counts, the
// others over t's column vectors, a row's group read off its code.
func (s *GroupByState) regroup(t *Table, g *grouping) *Table {
	na := len(s.aggs)
	states := make([]aggState, len(g.keys)*na)
	s.groups = make([]gbGroup, len(g.keys))
	for gi := range s.groups {
		st := states[gi*na : (gi+1)*na : (gi+1)*na]
		for i := range st {
			st[i].allInt = true
		}
		s.groups[gi] = gbGroup{key: g.keys[gi : gi+1 : gi+1], states: st, lineage: g.lineage[gi]}
	}
	aggVecs := make([]*Vector, na)
	for ai, ci := range s.aggIdx {
		if ci >= 0 {
			aggVecs[ai] = t.column(ci)
		}
	}
	codes, _, _ := t.DistinctCodes(s.keyIdx[0])
	s.srcRows = len(codes)
	aggregate(s, codes, g.byCode, aggVecs, g.counts)
	return s.Result()
}

// dictCodes returns the dictionary codes of column ci for the rows of a
// batch that is a whole frozen in-memory table — its version's, built by
// the first reader to ask. ok is false for any other batch: a table that is
// not frozen would build a dictionary per scan, and a segment partition is
// a slice of one.
func (b *Batch) dictCodes(ci int) (codes []int32, card int, ok bool) {
	if b.part != nil || b.src.frozen() == nil {
		return nil, 0, false
	}
	return b.src.DistinctCodes(ci)
}

// idBufs recycles add's per-batch arrays of key ids and group ids, which it
// fills and is done with before it returns, its row lists, which Result is
// done with once it has packed every group, and the ids a dictionary build
// converts to codes: 4 bytes per row and column that a render would
// otherwise leave behind as garbage.
var idBufs sync.Pool // of *[]uint32

func idBuf(n int) *[]uint32 {
	if p, _ := idBufs.Get().(*[]uint32); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]uint32, n)
	return &b
}

// settle folds the rows absorbed since the last emit into the group's packed
// lineage and returns it: the settled parts' rows and the fresh rows' refs,
// read from the scanned table in whatever form it keeps them, gathered per
// base table and packed anew. Neither the input's lineage nor an emitted
// table is ever written.
func (g *gbGroup) settle(sc *lineageScratch) groupLineage {
	if len(g.fresh) == 0 {
		return g.lineage
	}
	for _, p := range g.lineage {
		sc.add(p)
	}
	for _, f := range g.fresh {
		sc.addRows(f.src, f.off, f.rows)
	}
	g.lineage, g.fresh = sc.pack(), nil
	return g.lineage
}

// Result emits the grouped table, its lineage packed. The emitted table is
// independent of the accumulator: further feeding followed by another
// Result never mutates a previously emitted table.
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

	out.packed, out.from = make([]groupLineage, len(s.groups)), t.lineageTables()
	// A table's row list grows to what the largest group draws from it: once
	// it holds one ref per member row, it does not grow again.
	var sc lineageScratch
	for gi := range s.groups {
		n := 0
		for _, f := range s.groups[gi].fresh {
			n += len(f.rows)
		}
		sc.hint = max(sc.hint, n)
	}
	for gi := range s.groups {
		out.packed[gi] = s.groups[gi].settle(&sc)
	}
	vecs := make([]*Vector, len(cols))
	for k := range s.keys {
		vecs[k] = vectorOf(len(s.groups), func(gi int) Value { return s.groups[gi].key[k] })
	}
	for ai, a := range s.aggs {
		vals := make([]Value, len(s.groups))
		for gi := range vals {
			vals[gi] = s.groups[gi].states[ai].result(a.Kind)
		}
		vecs[len(s.keys)+ai] = vectorOf(len(vals), func(gi int) Value { return vals[gi] })
	}
	out.stored(vecs, len(s.groups))
	for _, buf := range s.held {
		idBufs.Put(buf)
	}
	s.held = s.held[:0]
	return out
}
