package relation

// segment.go implements the on-disk columnar segment format behind the
// out-of-core tables (see segstore.go / segtable.go and docs/STORAGE.md).
//
// A segment holds one partition of one table, column-major:
//
//	"PLSEG001"                     8-byte magic
//	uint32 LE header length
//	header JSON                    segHeader: table, partition, row range,
//	                               per-column type/encoding/zone map
//	uint32 LE CRC32-IEEE(header)
//	per column, in schema order:
//	  uint32 LE block length
//	  block bytes                  encoding per segColMeta.Enc
//	  uint32 LE CRC32-IEEE(block)
//
// Every length and checksum is validated whenever a file is read
// (parseSegment), whichever columns are then decoded (decodeVector); any
// mismatch fails closed with a *CorruptError (never garbage rows).
// Encoding is fully deterministic — struct-ordered JSON, first-seen
// dictionary order — so re-encoding decoded rows reproduces the input byte
// for byte (the golden test pins this).

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// segMagic opens every segment file. The trailing digits version the
// physical layout; incompatible changes bump them.
const segMagic = "PLSEG001"

// segVersion is the header version written by this build.
const segVersion = 1

// Column block encodings. Typed encodings apply when every non-null value
// of the column shares one kind; mixed columns fall back to the generic
// per-value encoding.
const (
	encGeneric = iota // per value: kind byte + payload
	encInt            // null bitmap + 8-byte little-endian two's complement
	encFloat          // null bitmap + 8-byte IEEE-754 bits
	encString         // null bitmap + dictionary + 4-byte codes
	encBool           // null bitmap + 1 byte per value
	encDate           // null bitmap + 8-byte unix seconds (UTC midnight)
)

// Value kind tags used by the generic encoding.
const (
	svNull byte = iota
	svStr
	svInt
	svFloat
	svBool
	svDate
)

// ErrSegmentCorrupt is the sentinel behind every segment-decode failure,
// matched with errors.Is.
var ErrSegmentCorrupt = errors.New("relation: segment corrupt")

// CorruptError reports a segment that failed validation (bad magic,
// length out of range, checksum mismatch, malformed block). It unwraps to
// ErrSegmentCorrupt and is never retried: corruption is permanent.
type CorruptError struct {
	// Path is the segment file, when known.
	Path string
	// Detail says what failed.
	Detail string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Path == "" {
		return "relation: segment corrupt: " + e.Detail
	}
	return fmt.Sprintf("relation: segment %s corrupt: %s", e.Path, e.Detail)
}

// Unwrap lets errors.Is(err, ErrSegmentCorrupt) succeed.
func (e *CorruptError) Unwrap() error { return ErrSegmentCorrupt }

func corruptf(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}

// pathed names the segment file in a decode error that does not yet.
func pathed(err error, path string) error {
	if ce, ok := err.(*CorruptError); ok && ce.Path == "" {
		return &CorruptError{Path: path, Detail: ce.Detail}
	}
	return err
}

// segVal is a JSON-serializable zone-map bound. K tags the kind
// ("s"/"i"/"f"/"b"/"d"); dates store the Unix seconds of their UTC
// midnight.
type segVal struct {
	K string  `json:"k"`
	S string  `json:"s,omitempty"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	B bool    `json:"b,omitempty"`
}

// segValOf serializes v as a zone bound; nil when the value has no
// serializable form (NULL, or non-finite floats JSON cannot carry).
func segValOf(v Value) *segVal {
	switch v.Kind {
	case TString:
		return &segVal{K: "s", S: v.S}
	case TInt:
		return &segVal{K: "i", I: v.I}
	case TFloat:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return nil
		}
		return &segVal{K: "f", F: v.F}
	case TBool:
		return &segVal{K: "b", B: v.B}
	case TDate:
		return &segVal{K: "d", I: v.T.Unix()}
	default:
		return nil
	}
}

// value reconstructs the bound.
func (sv *segVal) value() (Value, error) {
	switch sv.K {
	case "s":
		return Str(sv.S), nil
	case "i":
		return Int(sv.I), nil
	case "f":
		return Float(sv.F), nil
	case "b":
		return Bool(sv.B), nil
	case "d":
		d, ok := dayOfUnix(sv.I)
		if !ok {
			return Null(), corruptf("zone date %d out of range", sv.I)
		}
		return Value{Kind: TDate, T: d}, nil
	default:
		return Null(), corruptf("zone value kind %q", sv.K)
	}
}

// segColMeta is the per-column header entry: name/type for decoding
// without an external schema, the block encoding, and the zone map
// (Min/Max present together, over non-null values only).
type segColMeta struct {
	Name    string  `json:"name"`
	Type    int     `json:"type"`
	Enc     int     `json:"enc"`
	HasNull bool    `json:"has_null,omitempty"`
	AllNull bool    `json:"all_null,omitempty"`
	Min     *segVal `json:"min,omitempty"`
	Max     *segVal `json:"max,omitempty"`
}

// segHeader is the JSON header of one segment.
type segHeader struct {
	Version int          `json:"version"`
	Table   string       `json:"table"`
	Part    int          `json:"part"`
	Start   int          `json:"start"`
	Rows    int          `json:"rows"`
	Cols    []segColMeta `json:"cols"`
}

// colZone is the in-memory zone map of one column of one partition:
// min/max over the non-null values (valid only when hasZone), plus null
// presence. Pruning consults it before any block is decoded.
type colZone struct {
	hasZone  bool
	hasNull  bool
	allNull  bool
	min, max Value
}

// zone reconstructs the colZone of a decoded column header.
func (cm *segColMeta) zone() (colZone, error) {
	z := colZone{hasNull: cm.HasNull, allNull: cm.AllNull}
	if cm.Min != nil && cm.Max != nil {
		mn, err := cm.Min.value()
		if err != nil {
			return z, err
		}
		mx, err := cm.Max.value()
		if err != nil {
			return z, err
		}
		z.hasZone, z.min, z.max = true, mn, mx
	}
	return z, nil
}

// computeZones scans each column once and builds its zone map.
// Columns whose values are mutually incomparable (mixed kinds) or contain
// non-finite floats get no min/max — pruning then treats every predicate
// over them as potentially true.
func computeZones(cols []*Vector) []colZone {
	zones := make([]colZone, len(cols))
	for ci, col := range cols {
		z := &zones[ci]
		z.allNull, z.hasZone = true, true
		if typedZone(col, z) {
			continue
		}
		for i := 0; i < col.Len(); i++ {
			v := col.Value(i)
			if v.IsNull() {
				z.hasNull = true
				continue
			}
			if v.Kind == TFloat && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
				z.hasZone = false
			}
			if z.allNull {
				z.allNull = false
				z.min, z.max = v, v
				continue
			}
			if !z.hasZone {
				continue
			}
			if c, ok := v.Compare(z.min); !ok {
				z.hasZone = false
				continue
			} else if c < 0 {
				z.min = v
			}
			if c, ok := v.Compare(z.max); !ok {
				z.hasZone = false
			} else if c > 0 {
				z.max = v
			}
		}
		if z.allNull {
			z.hasZone = false
		}
	}
	return zones
}

// typedZone computes the zone of an INT, DATE or STRING vector over its
// typed storage — a string column's over the dictionary entries its cells
// use — and reports whether it did; computeZones's loop is the rule.
func typedZone(col *Vector, z *colZone) bool {
	if col.V != nil || col.Kind != TInt && col.Kind != TDate && col.Kind != TString {
		return false
	}
	lo, hi := -1, -1 // the cells holding the least and the greatest value
	less := func(i, j int) bool {
		switch col.Kind {
		case TInt:
			return col.I[i] < col.I[j]
		case TDate:
			return col.T[i] < col.T[j]
		}
		return col.Dict[col.S[i]] < col.Dict[col.S[j]]
	}
	var used []bool // for a string column: the codes met, each compared once
	if col.Kind == TString {
		used = make([]bool, len(col.Dict))
	}
	for i := 0; i < col.n; i++ {
		switch {
		case col.IsNull(i):
			z.hasNull = true
			continue
		case used != nil && used[col.S[i]]:
			continue
		case used != nil:
			used[col.S[i]] = true
		}
		if lo < 0 {
			lo, hi = i, i
			continue
		}
		if less(i, lo) {
			lo = i
		}
		if less(hi, i) {
			hi = i
		}
	}
	if lo < 0 {
		z.hasZone = false
		return true
	}
	z.allNull, z.min, z.max = false, col.Value(lo), col.Value(hi)
	return true
}

// chooseEnc picks the block encoding of a column: typed when every
// non-null value shares one kind, generic otherwise.
func chooseEnc(col *Vector, z colZone) int {
	if z.allNull {
		return encGeneric
	}
	kind := col.Kind // a typed vector's, when any cell is not null
	for i := 0; col.V != nil && i < col.Len(); i++ {
		v := col.Value(i)
		if v.IsNull() {
			continue
		}
		if kind == TNull {
			kind = v.Kind
			continue
		}
		if v.Kind != kind {
			return encGeneric
		}
	}
	switch kind {
	case TInt:
		return encInt
	case TFloat:
		return encFloat
	case TString:
		return encString
	case TBool:
		return encBool
	case TDate:
		return encDate
	default:
		return encGeneric
	}
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// encodeSegment is encodePartition over one partition of rows (a writer's
// buffer), transposed.
func encodeSegment(table string, part, start int, schema *Schema, rows []Row) ([]byte, []colZone, error) {
	for _, r := range rows {
		if len(r) != schema.Len() {
			return nil, nil, fmt.Errorf("relation: segment: row arity %d does not match schema %s", len(r), schema)
		}
	}
	cols := make([]*Vector, schema.Len())
	for ci := range cols {
		cols[ci] = transpose(rows, ci)
	}
	return encodePartition(table, part, start, schema, cols, len(rows))
}

// encodePartition serializes one partition, the n cells of each of its
// column vectors, and returns the segment bytes plus the computed zone
// maps (kept in memory for pruning). The bytes depend on the cells alone,
// not on how a vector stores them.
func encodePartition(table string, part, start int, schema *Schema, cols []*Vector, n int) ([]byte, []colZone, error) {
	ncols := schema.Len()
	if ncols == 0 {
		return nil, nil, fmt.Errorf("relation: segment: empty schema for %s", table)
	}
	if len(cols) != ncols {
		return nil, nil, fmt.Errorf("relation: segment: %d columns do not match schema %s", len(cols), schema)
	}
	zones := computeZones(cols)
	h := segHeader{Version: segVersion, Table: table, Part: part, Start: start, Rows: n}
	encs := make([]int, ncols)
	for ci := 0; ci < ncols; ci++ {
		encs[ci] = chooseEnc(cols[ci], zones[ci])
		cm := segColMeta{
			Name:    schema.Columns[ci].Name,
			Type:    int(schema.Columns[ci].Type),
			Enc:     encs[ci],
			HasNull: zones[ci].hasNull,
			AllNull: zones[ci].allNull,
		}
		if zones[ci].hasZone {
			cm.Min, cm.Max = segValOf(zones[ci].min), segValOf(zones[ci].max)
			if cm.Min == nil || cm.Max == nil {
				cm.Min, cm.Max = nil, nil
				zones[ci].hasZone = false
			}
		}
		h.Cols = append(h.Cols, cm)
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, nil, fmt.Errorf("relation: segment header: %w", err)
	}
	buf := make([]byte, 0, len(segMagic)+8+len(hb)+n*ncols*4)
	buf = append(buf, segMagic...)
	buf = appendU32(buf, uint32(len(hb)))
	buf = append(buf, hb...)
	buf = appendU32(buf, crc32.ChecksumIEEE(hb))
	for ci := 0; ci < ncols; ci++ {
		block, err := encodeColumn(cols[ci], encs[ci])
		if err != nil {
			return nil, nil, err
		}
		buf = appendU32(buf, uint32(len(block)))
		buf = append(buf, block...)
		buf = appendU32(buf, crc32.ChecksumIEEE(block))
	}
	return buf, zones, nil
}

// encodeColumn serializes one column block under the chosen encoding.
func encodeColumn(col *Vector, enc int) ([]byte, error) {
	n := col.Len()
	if enc == encGeneric {
		var b []byte
		for i := 0; i < n; i++ {
			v := col.Value(i)
			switch v.Kind {
			case TNull:
				b = append(b, svNull)
			case TString:
				b = append(b, svStr)
				b = appendU32(b, uint32(len(v.S)))
				b = append(b, v.S...)
			case TInt:
				b = append(b, svInt)
				b = appendU64(b, uint64(v.I))
			case TFloat:
				b = append(b, svFloat)
				b = appendU64(b, math.Float64bits(v.F))
			case TBool:
				b = append(b, svBool)
				if v.B {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
			case TDate:
				b = append(b, svDate)
				b = appendU64(b, uint64(v.T.Unix()))
			default:
				return nil, fmt.Errorf("relation: segment: unsupported value kind %v", v.Kind)
			}
		}
		return b, nil
	}
	bm := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			bm[i>>3] |= 1 << uint(i&7)
		}
	}
	b := bm
	switch enc {
	case encInt:
		for i := 0; i < n; i++ {
			b = appendU64(b, uint64(col.Value(i).I))
		}
	case encFloat:
		for i := 0; i < n; i++ {
			b = appendU64(b, math.Float64bits(col.Value(i).F))
		}
	case encDate:
		for i := 0; i < n; i++ {
			v := col.Value(i)
			if v.IsNull() {
				b = appendU64(b, 0)
			} else {
				b = appendU64(b, uint64(v.T.Unix()))
			}
		}
	case encBool:
		for i := 0; i < n; i++ {
			v := col.Value(i)
			if !v.IsNull() && v.B {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	case encString:
		// Dictionary-encode through the join interner: every value is a
		// string here, so ids come out dense and first-seen ordered — the
		// deterministic order the golden test relies on.
		// A typed column's cells are interned once per code.
		hint := n
		var byCode []uint32
		if col.V == nil {
			byCode, hint = make([]uint32, len(col.Dict)), min(n, len(col.Dict))
		}
		in := newInterner(hint)
		var dict []string
		codes := make([]uint32, n)
		for i := 0; i < n; i++ {
			if col.IsNull(i) {
				continue
			}
			if byCode != nil && byCode[col.S[i]] != 0 {
				codes[i] = byCode[col.S[i]]
				continue
			}
			v := col.Value(i)
			id := in.id(v)
			if int(id) == len(dict)+1 {
				dict = append(dict, v.S)
			}
			if byCode != nil {
				byCode[col.S[i]] = id
			}
			codes[i] = id
		}
		b = appendU32(b, uint32(len(dict)))
		for _, s := range dict {
			b = appendU32(b, uint32(len(s)))
			b = append(b, s...)
		}
		for _, c := range codes {
			b = appendU32(b, c)
		}
	default:
		return nil, fmt.Errorf("relation: segment: unknown encoding %d", enc)
	}
	return b, nil
}

// parseSegment validates a segment file whole and returns its header and
// its column blocks, still encoded: magic, header checksum and shape, every
// block length, every block's CRC-32, no trailing bytes. Every failure is a
// *CorruptError. The blocks alias data. What it cannot see is a block that
// is structurally wrong under a valid checksum; decodeVector reports that
// when the column is asked for.
func parseSegment(data []byte) (*segHeader, [][]byte, error) {
	if len(data) < len(segMagic)+4 {
		return nil, nil, corruptf("truncated at %d bytes", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, nil, corruptf("bad magic %q", data[:len(segMagic)])
	}
	off := len(segMagic)
	hlen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if hlen < 0 || off+hlen+4 > len(data) {
		return nil, nil, corruptf("header length %d out of range", hlen)
	}
	hb := data[off : off+hlen]
	off += hlen
	if crc32.ChecksumIEEE(hb) != binary.LittleEndian.Uint32(data[off:]) {
		return nil, nil, corruptf("header checksum mismatch")
	}
	off += 4
	var h segHeader
	if err := json.Unmarshal(hb, &h); err != nil {
		return nil, nil, corruptf("header: %v", err)
	}
	if h.Version != segVersion {
		return nil, nil, corruptf("unsupported version %d", h.Version)
	}
	if h.Rows < 0 {
		return nil, nil, corruptf("negative row count %d", h.Rows)
	}
	if len(h.Cols) == 0 && h.Rows != 0 {
		return nil, nil, corruptf("%d rows with no columns", h.Rows)
	}
	blocks := make([][]byte, len(h.Cols))
	for ci := range h.Cols {
		if off+4 > len(data) {
			return nil, nil, corruptf("column %d: truncated block length", ci)
		}
		blen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if blen < 0 || off+blen+4 > len(data) {
			return nil, nil, corruptf("column %d: block length %d out of range", ci, blen)
		}
		block := data[off : off+blen : off+blen]
		off += blen
		if crc32.ChecksumIEEE(block) != binary.LittleEndian.Uint32(data[off:]) {
			return nil, nil, corruptf("column %d: block checksum mismatch", ci)
		}
		off += 4
		blocks[ci] = block
	}
	if off != len(data) {
		return nil, nil, corruptf("%d trailing bytes", len(data)-off)
	}
	return &h, blocks, nil
}

// decodeVector parses one verified column block of n rows straight into
// typed vector storage: fixed-width bodies into I/F/T/B, dictionary codes
// into S, a generic block into V. It is the only column decoder in
// production; rows, where an operator needs them, are assembled from its
// vectors. A block that does not have the shape its encoding promises is a
// *CorruptError, never a short or partly filled vector.
func decodeVector(block []byte, ci, enc, n int) (*Vector, error) {
	if enc == encGeneric {
		return decodeGenericVector(block, ci, n)
	}
	bmLen := (n + 7) / 8
	if len(block) < bmLen {
		return nil, corruptf("column %d: truncated null bitmap", ci)
	}
	bm, body := block[:bmLen], block[bmLen:]
	v := &Vector{n: n}
	for bi, bits := range bm {
		for i := 8 * bi; bits != 0 && i < n; i, bits = i+1, bits>>1 {
			if bits&1 != 0 {
				if v.Null == nil {
					v.Null = make([]bool, n)
				}
				v.Null[i] = true
			}
		}
	}
	fixed := func(width int) error {
		if len(body) != width*n {
			return corruptf("column %d: block body %d bytes, want %d", ci, len(body), width*n)
		}
		return nil
	}
	switch enc {
	case encInt:
		if err := fixed(8); err != nil {
			return nil, err
		}
		v.Kind, v.I = TInt, make([]int64, n)
		for i := range v.I {
			v.I[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
	case encFloat:
		if err := fixed(8); err != nil {
			return nil, err
		}
		v.Kind, v.F = TFloat, make([]float64, n)
		for i := range v.F {
			v.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	case encDate:
		if err := fixed(8); err != nil {
			return nil, err
		}
		v.Kind, v.T = TDate, make([]Day, n)
		for i := range v.T {
			if v.Null == nil || !v.Null[i] {
				s := int64(binary.LittleEndian.Uint64(body[8*i:]))
				d, ok := dayOfUnix(s)
				if !ok {
					return nil, corruptf("column %d: date %d out of range", ci, s)
				}
				v.T[i] = d
			}
		}
	case encBool:
		if err := fixed(1); err != nil {
			return nil, err
		}
		v.Kind, v.B = TBool, make([]bool, n)
		for i := range v.B {
			v.B[i] = body[i] != 0
		}
	case encString:
		if len(body) < 4 {
			return nil, corruptf("column %d: truncated dictionary", ci)
		}
		dictLen := int(binary.LittleEndian.Uint32(body))
		off := 4
		// Every entry takes at least its 4-byte length prefix.
		if dictLen < 0 || dictLen > (len(body)-off)/4 {
			return nil, corruptf("column %d: dictionary size %d out of range", ci, dictLen)
		}
		dict := make([]string, dictLen)
		for d := range dict {
			if off+4 > len(body) {
				return nil, corruptf("column %d: truncated dictionary entry", ci)
			}
			sl := int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			if sl < 0 || off+sl > len(body) {
				return nil, corruptf("column %d: dictionary entry length %d out of range", ci, sl)
			}
			dict[d] = string(body[off : off+sl])
			off += sl
		}
		codes := body[off:]
		if len(codes) != 4*n {
			return nil, corruptf("column %d: code block %d bytes, want %d", ci, len(codes), 4*n)
		}
		v.Kind, v.S, v.Dict, v.ix = TString, make([]int32, n), dict, newStrIndex(dict)
		for i := range v.S {
			if v.Null != nil && v.Null[i] {
				continue
			}
			code := binary.LittleEndian.Uint32(codes[4*i:])
			if code < 1 || int(code) > dictLen {
				return nil, corruptf("column %d: code %d outside dictionary of %d", ci, code, dictLen)
			}
			v.S[i] = int32(code - 1)
		}
	default:
		return nil, corruptf("column %d: unknown encoding %d", ci, enc)
	}
	return v, nil
}

// decodeGenericVector parses a kind-tagged block (a mixed-kind or all-null
// column) into generic storage.
func decodeGenericVector(block []byte, ci, n int) (*Vector, error) {
	// Each value takes at least one byte, bounding the allocation by the
	// block size before trusting the declared row count.
	if len(block) < n {
		return nil, corruptf("column %d: generic block %d bytes for %d rows", ci, len(block), n)
	}
	v := &Vector{n: n, V: make([]Value, n)}
	off := 0
	for i := range v.V {
		if off >= len(block) {
			return nil, corruptf("column %d: truncated block", ci)
		}
		kind := block[off]
		off++
		switch kind {
		case svNull:
		case svStr:
			if off+4 > len(block) {
				return nil, corruptf("column %d: truncated string length", ci)
			}
			sl := int(binary.LittleEndian.Uint32(block[off:]))
			off += 4
			if sl < 0 || off+sl > len(block) {
				return nil, corruptf("column %d: string length %d out of range", ci, sl)
			}
			v.V[i] = Str(string(block[off : off+sl]))
			off += sl
		case svInt, svFloat, svDate:
			if off+8 > len(block) {
				return nil, corruptf("column %d: truncated value", ci)
			}
			u := binary.LittleEndian.Uint64(block[off:])
			off += 8
			switch kind {
			case svInt:
				v.V[i] = Int(int64(u))
			case svFloat:
				v.V[i] = Float(math.Float64frombits(u))
			default:
				d, ok := dayOfUnix(int64(u))
				if !ok {
					return nil, corruptf("column %d: date %d out of range", ci, int64(u))
				}
				v.V[i] = Value{Kind: TDate, T: d}
			}
		case svBool:
			if off >= len(block) {
				return nil, corruptf("column %d: truncated bool", ci)
			}
			v.V[i] = Bool(block[off] != 0)
			off++
		default:
			return nil, corruptf("column %d: unknown value kind %d", ci, kind)
		}
	}
	if off != len(block) {
		return nil, corruptf("column %d: %d trailing block bytes", ci, len(block)-off)
	}
	return v, nil
}
