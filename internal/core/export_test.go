package core

import (
	"reflect"
	"sync/atomic"
	"unsafe"

	"plabi/internal/relation"
)

// segmentBacked reports whether tb's cells are on-disk segments.
func segmentBacked(tb *relation.Table) bool {
	return !reflect.ValueOf(tb).Elem().FieldByName("seg").IsNil()
}

// publishedGrouping returns the address of the grouping tb's version has
// published for column col, or 0 when it has none. relation keeps its
// resident parts unexported, so the hook finds the slot by reflection and
// loads it atomically, as a render publishing into it would store it.
func publishedGrouping(tb *relation.Table, col string) uintptr {
	res := reflect.ValueOf(tb).Elem().FieldByName("res")
	if res.IsNil() {
		return 0
	}
	slot := res.Elem().FieldByName("groups").Index(tb.Schema.Index(col)).FieldByName("v")
	return uintptr(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(slot.UnsafeAddr()))))
}
