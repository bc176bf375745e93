// Package reltest is test support for the packages that publish relation
// tables to concurrent readers: VerifyResident checks that what readers
// derived from a table version and published beside it — dictionaries,
// groupings, join indexes — still agrees with the version's cells. It is
// imported by tests only, so no production binary links it.
package reltest

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"unsafe"

	"plabi/internal/relation"
)

// VerifyResident re-derives every part readers have published for t, or an
// edit carried to it, from t's cells and lineage through relation's own
// operators — each dictionary from the cells, each grouping by grouping a
// never-frozen copy, each join index by joining the column's distinct
// values with such a copy — and reports the first part that differs: the
// trace of a write into a table after it was published, or of a carry that
// edited a part wrongly. Only published parts are read, so the check
// publishes nothing itself. Tests call it after runs, or rounds, that
// interleave renders with writes.
func VerifyResident(t *relation.Table) error {
	for ci, col := range t.Schema.Columns {
		if published(t, "dict", ci) {
			if err := verifyDict(t, ci); err != nil {
				return err
			}
		}
		if published(t, "groups", ci) {
			if err := sameResult(t, col.Name, "grouping", func(x *relation.Table) (*relation.Table, error) {
				return relation.GroupBy(x, []string{col.Name}, []relation.AggSpec{{Kind: relation.AggCount}})
			}); err != nil {
				return err
			}
		}
		if published(t, "keys", ci) {
			if err := verifyJoinIndex(t, col.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// published reports whether readers of t's current version published its
// part (the resident field of that name) for column ci.
func published(t *relation.Table, part string, ci int) bool {
	res := reflect.ValueOf(t).Elem().FieldByName("res")
	if res.IsNil() || res.Elem().FieldByName("rows").Int() != int64(t.NumRows()) {
		return false
	}
	slots := res.Elem().FieldByName(part)
	if ci >= slots.Len() {
		return false
	}
	slot := slots.Index(ci).FieldByName("v")
	return atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(slot.UnsafeAddr()))) != nil
}

// verifyDict checks column ci's published dictionary: one code per row,
// every code below the cardinality, rows sharing a code exactly when their
// cells are equal under MapKey.
func verifyDict(t *relation.Table, ci int) error {
	name := t.Schema.Columns[ci].Name
	codes, card, ok := t.DistinctCodes(ci)
	if !ok || len(codes) != t.NumRows() {
		return fmt.Errorf("reltest: %s: dictionary of column %s has %d codes for %d rows", t.Name, name, len(codes), t.NumRows())
	}
	keys, used := map[relation.ValKey]int32{}, make([]bool, card)
	for ri, c := range codes {
		v, err := t.ValueAt(ri, ci)
		if err != nil {
			return err
		}
		had, ok := keys[relation.MapKey(v)]
		if c < 0 || int(c) >= card || (ok && had != c) || (!ok && used[c]) {
			return fmt.Errorf("reltest: %s: dictionary of column %s codes %v at row %d as %d (card %d), not one code per value",
				t.Name, name, v, ri, c, card)
		}
		keys[relation.MapKey(v)], used[c] = c, true
	}
	return nil
}

// verifyJoinIndex checks column col's published join index: the column's
// distinct values joined with t, whose index the join reads, equal them
// joined with a never-frozen copy.
func verifyJoinIndex(t *relation.Table, col string) error {
	vals, err := relation.ProjectCols(t.Clone(), col)
	if err != nil {
		return err
	}
	probe := relation.Rename(relation.Distinct(vals), "p")
	base := col[strings.LastIndexByte(col, '.')+1:]
	on := relation.Eq(relation.ColRefExpr("p."+base), relation.ColRefExpr("t."+base))
	return sameResult(t, col, "join index", func(x *relation.Table) (*relation.Table, error) {
		return relation.Join(probe, relation.Rename(x, "t"), on, relation.InnerJoin)
	})
}

// sameResult runs op over t, which reads t's published part, and over a
// never-frozen copy, which derives it afresh, and reports the first row
// where the two results differ, in cells or lineage.
func sameResult(t *relation.Table, col, part string, op func(*relation.Table) (*relation.Table, error)) error {
	got, err := op(t)
	if err != nil {
		return err
	}
	want, err := op(t.Clone())
	if err != nil {
		return err
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("reltest: %s: %s of column %s yields %d rows, the cells %d", t.Name, part, col, got.NumRows(), want.NumRows())
	}
	gm, err := got.Materialize()
	if err != nil {
		return err
	}
	wm, err := want.Materialize()
	if err != nil {
		return err
	}
	for i, row := range wm.Rows {
		if fmt.Sprint(gm.Rows[i]) != fmt.Sprint(row) || !reflect.DeepEqual(got.RowLineage(i), want.RowLineage(i)) {
			return fmt.Errorf("reltest: %s: %s of column %s yields row %d %v (lineage %v), the cells %v (lineage %v)",
				t.Name, part, col, i, gm.Rows[i], got.RowLineage(i), row, want.RowLineage(i))
		}
	}
	return nil
}
