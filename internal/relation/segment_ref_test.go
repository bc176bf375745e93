package relation

// segment_ref_test.go keeps the row-at-a-time segment decoder — block to
// []Value, then rows out of one flat arena — that production ran until
// segment batches started decoding columns straight into vectors
// (decodeVector). It is the oracle the vector decoder is tested against;
// the framing checks are production's parseSegment, shared by both.

import (
	"encoding/binary"
	"math"
	"time"
)

// decodeSegment parses and validates a segment, returning its header and
// rows. Every failure is a *CorruptError: a segment either decodes
// exactly or not at all.
func decodeSegment(data []byte) (*segHeader, []Row, error) {
	h, blocks, err := parseSegment(data)
	if err != nil {
		return nil, nil, err
	}
	cols := make([][]Value, len(h.Cols))
	for ci, block := range blocks {
		if cols[ci], err = decodeColumn(block, ci, h.Cols[ci].Enc, h.Rows); err != nil {
			return nil, nil, err
		}
	}
	nc := len(h.Cols)
	flat := make([]Value, h.Rows*nc)
	rows := make([]Row, h.Rows)
	for ri := range rows {
		r := flat[ri*nc : (ri+1)*nc : (ri+1)*nc]
		for ci := range cols {
			r[ci] = cols[ci][ri]
		}
		rows[ri] = Row(r)
	}
	return h, rows, nil
}

// decodeColumn parses one column block into n values.
func decodeColumn(block []byte, ci, enc, n int) ([]Value, error) {
	if enc == encGeneric {
		// Each value takes at least one byte, bounding the allocation by
		// the block size before trusting the declared row count.
		if len(block) < n {
			return nil, corruptf("column %d: generic block %d bytes for %d rows", ci, len(block), n)
		}
		vals := make([]Value, n)
		off := 0
		for i := 0; i < n; i++ {
			if off >= len(block) {
				return nil, corruptf("column %d: truncated block", ci)
			}
			kind := block[off]
			off++
			switch kind {
			case svNull:
				vals[i] = Null()
			case svStr:
				if off+4 > len(block) {
					return nil, corruptf("column %d: truncated string length", ci)
				}
				sl := int(binary.LittleEndian.Uint32(block[off:]))
				off += 4
				if sl < 0 || off+sl > len(block) {
					return nil, corruptf("column %d: string length %d out of range", ci, sl)
				}
				vals[i] = Str(string(block[off : off+sl]))
				off += sl
			case svInt, svFloat, svDate:
				if off+8 > len(block) {
					return nil, corruptf("column %d: truncated value", ci)
				}
				u := binary.LittleEndian.Uint64(block[off:])
				off += 8
				switch kind {
				case svInt:
					vals[i] = Int(int64(u))
				case svFloat:
					vals[i] = Float(math.Float64frombits(u))
				default:
					d, err := refDate(ci, u)
					if err != nil {
						return nil, err
					}
					vals[i] = d
				}
			case svBool:
				if off >= len(block) {
					return nil, corruptf("column %d: truncated bool", ci)
				}
				vals[i] = Bool(block[off] != 0)
				off++
			default:
				return nil, corruptf("column %d: unknown value kind %d", ci, kind)
			}
		}
		if off != len(block) {
			return nil, corruptf("column %d: %d trailing block bytes", ci, len(block)-off)
		}
		return vals, nil
	}

	bmLen := (n + 7) / 8
	if len(block) < bmLen {
		return nil, corruptf("column %d: truncated null bitmap", ci)
	}
	bm := block[:bmLen]
	body := block[bmLen:]
	isNull := func(i int) bool { return bm[i>>3]&(1<<uint(i&7)) != 0 }
	vals := make([]Value, n)
	switch enc {
	case encInt, encFloat, encDate:
		if len(body) != 8*n {
			return nil, corruptf("column %d: block body %d bytes, want %d", ci, len(body), 8*n)
		}
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			u := binary.LittleEndian.Uint64(body[8*i:])
			switch enc {
			case encInt:
				vals[i] = Int(int64(u))
			case encFloat:
				vals[i] = Float(math.Float64frombits(u))
			default:
				d, err := refDate(ci, u)
				if err != nil {
					return nil, err
				}
				vals[i] = d
			}
		}
	case encBool:
		if len(body) != n {
			return nil, corruptf("column %d: block body %d bytes, want %d", ci, len(body), n)
		}
		for i := 0; i < n; i++ {
			if !isNull(i) {
				vals[i] = Bool(body[i] != 0)
			}
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
		for d := 0; d < dictLen; d++ {
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
		if len(body)-off != 4*n {
			return nil, corruptf("column %d: code block %d bytes, want %d", ci, len(body)-off, 4*n)
		}
		for i := 0; i < n; i++ {
			code := binary.LittleEndian.Uint32(body[off+4*i:])
			if isNull(i) {
				continue
			}
			if code < 1 || int(code) > dictLen {
				return nil, corruptf("column %d: code %d outside dictionary of %d", ci, code, dictLen)
			}
			vals[i] = Str(dict[code-1])
		}
	default:
		return nil, corruptf("column %d: unknown encoding %d", ci, enc)
	}
	return vals, nil
}

// refDate decodes a stored date through time.Time: the UTC calendar day of
// Unix second u, or corruption when no Day holds the day u falls in.
func refDate(ci int, u uint64) (Value, error) {
	s := int64(u)
	d := Date(time.Unix(s, 0).UTC())
	if mid := d.T.Time().Unix(); s < mid || s >= mid+86400 {
		return Null(), corruptf("column %d: date %d out of range", ci, s)
	}
	return d, nil
}
