package relation

// date_test.go pins the representation of a DATE cell: a Value is 40 bytes
// and a date is a Day, a day number. Every check is against an expectation
// computed through time.Time, the representation Day replaced.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Errorf("Value is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Day(0)); got != 4 {
		t.Errorf("Day is %d bytes, want 4", got)
	}
}

// sampleDays returns midnights UTC from 0001-01-01 to 9999-12-31: per year
// the first day, the end of February (a leap day where there is one), the
// last day and one random day, plus every day of 1968–1972.
func sampleDays(rng *rand.Rand) []time.Time {
	var out []time.Time
	for y := 1; y <= 9999; y++ {
		leap := time.Date(y, 2, 29, 0, 0, 0, 0, time.UTC).Month() == time.February
		feb := 28
		if leap {
			feb = 29
		}
		out = append(out,
			time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Date(y, 2, feb, 0, 0, 0, 0, time.UTC),
			time.Date(y, 1, 1+rng.Intn(365), 0, 0, 0, 0, time.UTC),
			time.Date(y, 12, 31, 0, 0, 0, 0, time.UTC))
	}
	for d := time.Date(1968, 1, 1, 0, 0, 0, 0, time.UTC); d.Year() < 1973; d = d.AddDate(0, 0, 1) {
		out = append(out, d)
	}
	return out
}

// TestDateMatchesTime: for every sampled day, Date of any instant of it is
// that day's midnight UTC, and String, Key, Compare, MapKey and Coerce from
// STRING agree with what the same day gives as a time.Time.
func TestDateMatchesTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	days := sampleDays(rng)
	prev, prevDay := Null(), time.Time{}
	for _, day := range days {
		at := day.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
		v := Date(at)
		text := day.Format(DateLayout)
		if v.Kind != TDate || v.T.Unix() != day.Unix() || !v.T.Time().Equal(day) {
			t.Fatalf("Date(%v) = %d (unix %d), want unix %d", at, v.T, v.T.Unix(), day.Unix())
		}
		if got := v.String(); got != text {
			t.Fatalf("String of %s = %q", text, got)
		}
		if got := v.Key(); got != "d:"+text {
			t.Fatalf("Key of %s = %q", text, got)
		}
		if c, ok := v.Compare(v); !ok || c != 0 {
			t.Fatalf("Compare(%s, itself) = %d, %v", text, c, ok)
		}
		if got, ok := Str(text).Coerce(TDate); !ok || got != v {
			t.Fatalf("Coerce(%q, DATE) = %+v, %v; want %+v", text, got, ok, v)
		}
		if !prev.IsNull() {
			c, ok := v.Compare(prev)
			if want := day.Compare(prevDay); !ok || c != want {
				t.Fatalf("Compare(%s, %v) = %d, %v; want %d", text, prev, c, ok, want)
			}
			if (MapKey(v) == MapKey(prev)) != (v.Key() == prev.Key()) {
				t.Fatalf("MapKey and Key disagree on %s and %v", text, prev)
			}
		}
		prev, prevDay = v, day
	}
}

// TestDateKeepsLocalDay: Date takes the calendar day of t in t's own
// location, on either side of the epoch and when UTC is on another day.
func TestDateKeepsLocalDay(t *testing.T) {
	zones := []*time.Location{
		time.FixedZone("+14", 14*3600), time.FixedZone("-12", -12*3600),
		time.FixedZone("+05:30", 5*3600+1800), time.FixedZone("-00:30", -1800),
	}
	for _, loc := range zones {
		for _, at := range []time.Time{
			time.Date(2020, 1, 1, 0, 30, 0, 0, loc), time.Date(2020, 1, 1, 23, 30, 0, 0, loc),
			time.Date(1969, 12, 31, 23, 59, 59, 0, loc), time.Date(1970, 1, 1, 0, 0, 0, 0, loc),
			time.Date(1, 1, 1, 1, 0, 0, 0, loc), time.Date(9999, 12, 31, 23, 0, 0, 0, loc),
		} {
			y, m, d := at.Date()
			want := time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
			if got := Date(at); got.T.Unix() != want.Unix() {
				t.Errorf("Date(%v) = %s, want %s", at, got, want.Format(DateLayout))
			}
		}
	}
}

// TestDateSegmentRoundTrip: sampled days spilled to a segment decode to the
// same day numbers, through the typed date block, the generic block and the
// zone map, on the production decoder and on the reference.
func TestDateSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	days := sampleDays(rng)
	tab := NewBase("dates", NewSchema(Col("d", TDate), Col("mixed", TDate)))
	lo, hi := Date(days[1]), Date(days[1])
	for i, day := range days {
		v := Date(day)
		mixed := v
		switch i % 7 {
		case 0:
			v = Null()
		case 3:
			mixed = Int(int64(i))
		}
		if c, ok := v.Compare(lo); ok && c < 0 {
			lo = v
		}
		if c, ok := v.Compare(hi); ok && c > 0 {
			hi = v
		}
		tab.AppendVals(v, mixed)
	}
	data, _, err := encodeSegment("dates", 0, 0, tab.Schema, tab.Rows)
	if err != nil {
		t.Fatal(err)
	}
	h, rows, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := decodeSegmentVectors(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cols[0].Enc != encDate || h.Cols[1].Enc != encGeneric {
		t.Fatalf("encodings %d, %d; want date, generic", h.Cols[0].Enc, h.Cols[1].Enc)
	}
	for ri, want := range tab.Rows {
		for ci := range want {
			if got := vecs[ci].Value(ri); got != want[ci] {
				t.Fatalf("cell (%d, %d): vector %+v, want %+v", ri, ci, got, want[ci])
			}
			if got := rows[ri][ci]; got != want[ci] {
				t.Fatalf("cell (%d, %d): reference %+v, want %+v", ri, ci, got, want[ci])
			}
		}
	}
	z, err := h.Cols[0].zone()
	if err != nil || !z.hasZone || z.min != lo || z.max != hi {
		t.Errorf("zone = %+v, %v; want [%v, %v]", z, err, lo, hi)
	}
}

// TestDateOutOfRangeIsCorrupt: a stored date whose day no Day can hold is
// corruption, in a typed block, in a generic block and in a zone bound —
// never a day that wrapped around.
func TestDateOutOfRangeIsCorrupt(t *testing.T) {
	const far = int64(1) << 50 // ~35 million years after 1970
	tab := NewBase("dates", NewSchema(Col("d", TDate), Col("mixed", TDate)))
	tab.AppendVals(DateYMD(2007, 2, 12), Int(1))
	tab.AppendVals(DateYMD(2008, 4, 15), DateYMD(2008, 4, 15))
	data, _, err := encodeSegment("dates", 0, 0, tab.Schema, tab.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for ci, at := range []func(block []byte) []byte{
		func(b []byte) []byte { return b[1:] },     // typed: after the null bitmap
		func(b []byte) []byte { return b[1+8+1:] }, // generic: the second value's payload
	} {
		bad := segReframe(t, data, func(h *segHeader, blocks [][]byte) [][]byte {
			binary.LittleEndian.PutUint64(at(blocks[ci]), uint64(far))
			return blocks
		})
		_, _, refErr := decodeSegment(bad)
		_, vecErr := decodeSegmentVectors(bad)
		if !errors.Is(refErr, ErrSegmentCorrupt) || !errors.Is(vecErr, ErrSegmentCorrupt) {
			t.Errorf("column %d: decode errors %v / %v, want ErrSegmentCorrupt", ci, refErr, vecErr)
		}
	}
	if v, err := (&segVal{K: "d", I: -far}).value(); !errors.Is(err, ErrSegmentCorrupt) {
		t.Errorf("zone bound = %v, %v; want ErrSegmentCorrupt", v, err)
	}
}

// FuzzDateValue parses arbitrary text as a date and checks the day number
// against its text, its neighbours delta days away and its Unix seconds.
func FuzzDateValue(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, delta int16) {
		v, err := ParseDate(text)
		if err != nil {
			if !strings.Contains(err.Error(), "bad date") {
				t.Fatalf("ParseDate(%q) error %v", text, err)
			}
			return
		}
		if v.Kind != TDate || v.String() != text {
			t.Fatalf("ParseDate(%q).String() = %q", text, v.String())
		}
		w := Value{Kind: TDate, T: v.T + Day(delta)}
		for _, x := range []Value{v, w} {
			if x.T.Unix()/secondsPerDay != int64(x.T) {
				t.Fatalf("day %d: Unix() = %d", x.T, x.T.Unix())
			}
			if y := x.T.Time().Year(); y < 0 || y > 9999 {
				continue // no four-digit text
			}
			if back, err := ParseDate(x.String()); err != nil || back != x {
				t.Fatalf("day %d: String %q parses to %+v, %v", x.T, x.String(), back, err)
			}
		}
		c, ok := v.Compare(w)
		if !ok || c != cmp.Compare(0, delta) {
			t.Fatalf("Compare(%s, %s) = %d, %v; delta %d", v, w, c, ok, delta)
		}
		if (v.Key() == w.Key()) != (c == 0) || (MapKey(v) == MapKey(w)) != (c == 0) {
			t.Fatalf("%s and %s: Key equal %v, MapKey equal %v, Compare %d", v, w, v.Key() == w.Key(), MapKey(v) == MapKey(w), c)
		}
	})
}
