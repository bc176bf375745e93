package core

import (
	"reflect"

	"plabi/internal/relation"
)

// publishedGrouping returns the address of the grouping tb's version has
// published for column col, or 0 when it has none. relation keeps its
// resident parts unexported, so the hook reads them by reflection; call it
// only when no render is running.
func publishedGrouping(tb *relation.Table, col string) uintptr {
	res := reflect.ValueOf(tb).Elem().FieldByName("res")
	if res.IsNil() {
		return 0
	}
	return res.Elem().FieldByName("groups").Index(tb.Schema.Index(col)).FieldByName("v").Pointer()
}
