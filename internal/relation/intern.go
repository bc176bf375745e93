package relation

import (
	"encoding/binary"
	"math"
)

// ValKey is a comparable canonical key for a Value, usable directly as a
// Go map key. Two values share a ValKey exactly when their Value.Key()
// strings are equal, so hash joins, grouping and distinct-counting through
// ValKey keep the string-keyed semantics of the original operators while
// skipping the per-value string allocation.
type ValKey struct {
	kind uint8
	i    int64
	f    float64
	s    string
}

// ValKey kind tags. Distinct tags keep the value spaces disjoint the same
// way Key()'s "s:"/"i:"/... prefixes do.
const (
	vkNull uint8 = iota
	vkStr
	vkInt
	vkFloat
	vkBool
	vkDate
	vkNaN
)

// MapKey returns the canonical comparable key of v. The canonicalization
// mirrors Value.Key() exactly: integral floats below 1e15 collapse onto
// the matching integer key, dates key by day number, and every NaN maps
// to one shared key (NaN is not equal to itself, so a raw float64 field
// would make map lookups miss).
func MapKey(v Value) ValKey {
	switch v.Kind {
	case TNull:
		return ValKey{kind: vkNull}
	case TString:
		return ValKey{kind: vkStr, s: v.S}
	case TInt:
		return ValKey{kind: vkInt, i: v.I}
	case TFloat:
		if math.IsNaN(v.F) {
			return ValKey{kind: vkNaN}
		}
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return ValKey{kind: vkInt, i: int64(v.F)}
		}
		return ValKey{kind: vkFloat, f: v.F}
	case TBool:
		if v.B {
			return ValKey{kind: vkBool, i: 1}
		}
		return ValKey{kind: vkBool, i: 0}
	case TDate:
		return ValKey{kind: vkDate, i: int64(v.T)}
	default:
		return ValKey{kind: vkNull}
	}
}

// interner assigns small dense ids to distinct ValKeys. Ids start at 1 so
// composite keys can reserve 0 if they ever need a sentinel. Strings — the
// overwhelmingly common grouping key kind — get their own map so lookups
// take the runtime's specialized string-map fast paths instead of hashing
// a ValKey struct; MapKey sends strings nowhere else (vkStr only), so the
// two maps partition the key space and can share one id counter.
type interner struct {
	ids  map[ValKey]uint32
	strs map[string]uint32
}

func newInterner(capacity int) *interner {
	return &interner{
		ids:  make(map[ValKey]uint32),
		strs: make(map[string]uint32, capacity),
	}
}

// id returns the dense id of v, allocating one on first sight.
func (in *interner) id(v Value) uint32 {
	if v.Kind == TString {
		return in.str(v.S)
	}
	k := MapKey(v)
	if id, ok := in.ids[k]; ok {
		return id
	}
	id := uint32(in.len() + 1)
	in.ids[k] = id
	return id
}

// str is id for a string value.
func (in *interner) str(s string) uint32 {
	if id, ok := in.strs[s]; ok {
		return id
	}
	id := uint32(in.len() + 1)
	in.strs[s] = id
	return id
}

// len returns the number of ids handed out.
func (in *interner) len() int { return len(in.ids) + len(in.strs) }

// vecIDs writes the dense id of every cell of v into out.
func (in *interner) vecIDs(v *Vector, out []uint32) {
	if v.V == nil && v.Kind == TString {
		// One probe per distinct string, when the dictionary is no larger
		// than the column; ids still go out in row order.
		var byCode []uint32
		if len(v.Dict) <= len(out) {
			byCode = make([]uint32, len(v.Dict))
		}
		for i, c := range v.S {
			switch {
			case v.Null != nil && v.Null[i]:
				out[i] = in.id(Null())
			case byCode == nil:
				out[i] = in.str(v.Dict[c])
			case byCode[c] == 0:
				byCode[c] = in.str(v.Dict[c])
				out[i] = byCode[c]
			default:
				out[i] = byCode[c]
			}
		}
		return
	}
	for i := range out {
		out[i] = in.id(v.Value(i))
	}
}

// codeIDs is vecIDs over a column whose dictionary codes (card of them) are
// known: the id of a code is looked up once, at the first row holding it, so
// ids are handed out in row order exactly as vecIDs hands them out, whatever
// order the codes were assigned in.
func (in *interner) codeIDs(v *Vector, codes []int32, card int, out []uint32) {
	byCode := make([]uint32, card)
	for ri, c := range codes {
		id := byCode[c]
		if id == 0 {
			id = in.id(v.Value(ri))
			byCode[c] = id
		}
		out[ri] = id
	}
}

// rowKeyer builds composite grouping keys over a fixed set of columns by
// interning each column value to a dense id and packing the ids. Up to two
// columns pack into a uint64 (no allocation); wider keys fall back to a
// byte-string of the ids.
type rowKeyer struct {
	cols []int
	ins  []*interner
	ids  []uint32 // the ids of the row being keyed
	buf  []byte
}

func newRowKeyer(cols []int, capacity int) *rowKeyer {
	k := &rowKeyer{cols: cols, ins: make([]*interner, len(cols)), ids: make([]uint32, len(cols))}
	for i := range k.ins {
		k.ins[i] = newInterner(capacity)
	}
	if len(cols) > 2 {
		k.buf = make([]byte, 4*len(cols))
	}
	return k
}

// compositeKey is the packed grouping key: wide holds up to two 32-bit ids;
// str holds the byte-packed ids for wider keys.
type compositeKey struct {
	wide uint64
	str  string
}

// key computes the composite key of row r over the keyer's columns.
func (k *rowKeyer) key(r Row) compositeKey {
	for i, ci := range k.cols {
		k.ids[i] = k.ins[i].id(r[ci])
	}
	return k.pack()
}

// vecKey computes the composite key of row ri from the per-column id
// arrays interner.vecIDs filled, one per key column.
func (k *rowKeyer) vecKey(ids [][]uint32, ri int) compositeKey {
	for i := range k.cols {
		k.ids[i] = ids[i][ri]
	}
	return k.pack()
}

// pack packs the ids of one row's key cells.
func (k *rowKeyer) pack() compositeKey {
	if len(k.cols) <= 2 {
		var wide uint64
		for i, id := range k.ids {
			wide |= uint64(id) << (32 * uint(i))
		}
		return compositeKey{wide: wide}
	}
	for i, id := range k.ids {
		binary.LittleEndian.PutUint32(k.buf[4*i:], id)
	}
	return compositeKey{str: string(k.buf)}
}
