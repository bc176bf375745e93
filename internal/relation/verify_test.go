package relation

import (
	"fmt"
	"slices"
)

// verifyResident re-derives whatever readers have published for t, or an
// edit carried to it — each join index, each dictionary from t's cells,
// each grouping from its cells and lineage — and reports the first cell
// where the published part differs: the trace of a write into a table after
// it was frozen, or of a carry that edited a part wrongly. Tests call it
// after runs, or rounds, that interleave renders with writes; other
// packages' tests call reltest.VerifyResident, its black-box twin.
func verifyResident(t *Table) error {
	r := t.frozen()
	if r == nil {
		return nil
	}
	for ci := range r.keys {
		got := r.keys[ci].Load()
		if got == nil {
			continue
		}
		want := newJoinIndex(t.column(ci))
		if len(got.str) != len(want.str) || len(got.key) != len(want.key) {
			return fmt.Errorf("relation: %s: resident join index of column %s has %d keys, the table %d", t.Name, t.Schema.Columns[ci].Name,
				len(got.str)+len(got.key), len(want.str)+len(want.key))
		}
		for k, rows := range want.str {
			if !slices.Equal(got.str[k], rows) {
				return fmt.Errorf("relation: %s: resident join index of column %s maps %v to rows %v, the table to %v",
					t.Name, t.Schema.Columns[ci].Name, k, got.str[k], rows)
			}
		}
		for k, rows := range want.key {
			if !slices.Equal(got.key[k], rows) {
				return fmt.Errorf("relation: %s: resident join index of column %s maps %v to rows %v, the table to %v",
					t.Name, t.Schema.Columns[ci].Name, k, got.key[k], rows)
			}
		}
	}
	for ci := range r.dict {
		d := r.dict[ci].Load()
		if d == nil {
			continue
		}
		if len(d.codes) != r.rows {
			return fmt.Errorf("relation: %s: dictionary of column %s has %d codes for %d rows", t.Name, t.Schema.Columns[ci].Name, len(d.codes), r.rows)
		}
		keys, used := map[ValKey]int32{}, make([]bool, d.card)
		for ri, c := range d.codes {
			v, err := t.ValueAt(ri, ci)
			if err != nil {
				return err
			}
			had, ok := keys[MapKey(v)]
			if c < 0 || int(c) >= d.card || (ok && had != c) || (!ok && used[c]) {
				return fmt.Errorf("relation: %s: dictionary of column %s codes %v at row %d as %d (card %d), not one code per value",
					t.Name, t.Schema.Columns[ci].Name, v, ri, c, d.card)
			}
			keys[MapKey(v)], used[c] = c, true
		}
	}
	for ci := range r.groups {
		if g := r.groups[ci].Load(); g != nil {
			if err := verifyGrouping(t, ci, g); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyGrouping re-derives column ci's groups from t's cells and lineage —
// first-seen keys, member rows, packed lineage — and reports the first
// group or row where g, its published grouping, differs.
func verifyGrouping(t *Table, ci int, g *grouping) error {
	name := t.Schema.Columns[ci].Name
	d := t.res.dict[ci].Load()
	if d == nil || len(g.counts) != len(g.keys) || len(g.lineage) != len(g.keys) {
		return fmt.Errorf("relation: %s: grouping of column %s is malformed", t.Name, name)
	}
	byKey := map[ValKey]int32{}
	var members [][]uint32
	for ri := 0; ri < t.NumRows(); ri++ {
		v, _ := t.ValueAt(ri, ci)
		gi, ok := byKey[MapKey(v)]
		if !ok {
			gi = int32(len(members))
			if int(gi) >= len(g.keys) || g.keys[gi].Kind != v.Kind || g.keys[gi].Key() != v.Key() {
				return fmt.Errorf("relation: %s: grouping of column %s opens group %d at row %d, whose key is %v", t.Name, name, gi, ri, v)
			}
			byKey[MapKey(v)], members = gi, append(members, nil)
		}
		members[gi] = append(members[gi], uint32(ri))
		if c := d.codes[ri]; int(c) >= len(g.byCode) || g.byCode[c] != gi {
			return fmt.Errorf("relation: %s: grouping of column %s does not put row %d in group %d", t.Name, name, ri, gi)
		}
	}
	if len(members) != len(g.keys) {
		return fmt.Errorf("relation: %s: grouping of column %s has %d groups, the table %d", t.Name, name, len(g.keys), len(members))
	}
	var sc lineageScratch
	for gi, rows := range members {
		if int(g.counts[gi]) != len(rows) {
			return fmt.Errorf("relation: %s: grouping of column %s counts %d rows in group %d, the table %d", t.Name, name, g.counts[gi], gi, len(rows))
		}
		sc.addRows(t, 0, rows)
		if got, want := g.lineage[gi].appendTo(nil), sc.pack().appendTo(nil); !slices.Equal(got, want) {
			return fmt.Errorf("relation: %s: grouping of column %s holds other lineage in group %d: %d refs, its rows' %d",
				t.Name, name, gi, len(got), len(want))
		}
	}
	return nil
}

// cells returns t's rows in edge form, whatever form it stores them in.
func cells(t *Table) []Row {
	return t.mustMaterialize().Rows
}

// storedTwin is t's cells and lineage held the way the catalog holds a
// table: stored as vectors, frozen.
func storedTwin(t *Table) *Table {
	s := plainCopy(t)
	s.Freeze()
	return s
}
