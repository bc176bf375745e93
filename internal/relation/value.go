// Package relation implements a typed, in-memory relational algebra with
// row-level lineage and column-level where-provenance propagation through
// every operator. It is the substrate on which the SQL engine, the ETL
// pipeline, the warehouse, and the report engine are built.
//
// Tables are immutable from the point of view of operators: every operator
// returns a new Table whose row lineage (RowLineage, LineageParts) and
// ColOrigin record, for each derived row, the set of base rows it was
// computed from, and, for each derived column, the set of base (table,
// column) pairs it was derived from.
// This is the machinery the paper's provenance-based auditing (§4) and
// intensional report conditions (§5) rely on.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the column types supported by the engine. It is one
// byte so that a Value's kind, its BOOL and its DATE payloads share one
// word; it is signed so that a []Type encodes as JSON numbers, not base64.
type Type int8

// Supported column types.
const (
	TNull Type = iota
	TString
	TInt
	TFloat
	TBool
	TDate
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TString:
		return "STRING"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TBool:
		return "BOOL"
	case TDate:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// DateLayout is the textual layout used for DATE values throughout the
// library. The paper's examples use day-first dates (e.g. 12/02/2007); we
// normalize to ISO for unambiguity.
const DateLayout = "2006-01-02"

// Day is a calendar date: the count of days since 1970-01-01, negative
// before it. It is a DATE Value's payload; its range, ±5.8 million years,
// holds every date ParseDate accepts.
type Day int32

const secondsPerDay = 86400

// Unix returns the day's midnight UTC in Unix seconds.
func (d Day) Unix() int64 { return int64(d) * secondsPerDay }

// Time returns the day's midnight UTC, for the calendar fields.
func (d Day) Time() time.Time { return time.Unix(d.Unix(), 0).UTC() }

// dayOfUnix returns the UTC calendar day Unix second s falls in. It
// reports false when that day lies outside Day's range.
func dayOfUnix(s int64) (Day, bool) {
	d := s / secondsPerDay
	if s%secondsPerDay < 0 {
		d--
	}
	return Day(d), d >= math.MinInt32 && d <= math.MaxInt32
}

// Value is a dynamically typed cell value. The zero Value is NULL.
//
// A Value is 40 bytes and holds one pointer, S's; Kind says which payload
// field is meaningful.
type Value struct {
	S    string
	I    int64
	F    float64
	T    Day
	Kind Type
	B    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Str returns a STRING value.
func Str(s string) Value { return Value{Kind: TString, S: s} }

// Int returns an INT value.
func Int(i int64) Value { return Value{Kind: TInt, I: i} }

// Float returns a FLOAT value.
func Float(f float64) Value { return Value{Kind: TFloat, F: f} }

// Bool returns a BOOL value.
func Bool(b bool) Value { return Value{Kind: TBool, B: b} }

// Date returns the DATE value of t's calendar day in t's own location.
func Date(t time.Time) Value {
	_, offset := t.Zone()
	d, _ := dayOfUnix(t.Unix() + int64(offset))
	return Value{Kind: TDate, T: d}
}

// DateYMD returns a DATE value for the given year, month and day,
// normalized as time.Date does.
func DateYMD(y int, m time.Month, d int) Value {
	return Date(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
}

// ParseDate parses an ISO yyyy-mm-dd string into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse(DateLayout, s)
	if err != nil {
		return Null(), fmt.Errorf("relation: bad date %q: %w", s, err)
	}
	return Date(t), nil
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == TNull }

// String renders the value for display; NULL renders as "NULL".
func (v Value) String() string {
	switch v.Kind {
	case TNull:
		return "NULL"
	case TString:
		return v.S
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TBool:
		if v.B {
			return "true"
		}
		return "false"
	case TDate:
		return v.T.Time().Format(DateLayout)
	default:
		return "?"
	}
}

// AsFloat converts numeric values to float64. It reports false for
// non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// AsInt converts numeric values to int64 (floats are truncated). It reports
// false for non-numeric values.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case TInt:
		return v.I, true
	case TFloat:
		return int64(v.F), true
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal under SQL-style coercion
// (INT and FLOAT compare numerically). NULL equals nothing, including NULL.
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return false
	}
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders two values: -1, 0, +1. It reports false when the values
// are incomparable (NULL involved or incompatible types). Two INTs compare
// exactly, as the int vector kernels and MapKey do; an INT and a FLOAT
// compare through float64.
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		return 0, false
	}
	if v.Kind == TInt && o.Kind == TInt {
		switch {
		case v.I < o.I:
			return -1, true
		case v.I > o.I:
			return 1, true
		default:
			return 0, true
		}
	}
	if (v.Kind == TInt || v.Kind == TFloat) && (o.Kind == TInt || o.Kind == TFloat) {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case TString:
		return strings.Compare(v.S, o.S), true
	case TBool:
		switch {
		case v.B == o.B:
			return 0, true
		case !v.B:
			return -1, true
		default:
			return 1, true
		}
	case TDate:
		switch {
		case v.T < o.T:
			return -1, true
		case v.T > o.T:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// Key returns a canonical string key for grouping and hashing. Distinct
// values map to distinct keys within a column; NULL has its own key.
func (v Value) Key() string {
	switch v.Kind {
	case TNull:
		return "\x00N"
	case TString:
		return "s:" + v.S
	case TInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case TFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			// Make 2.0 group with the integer 2 so mixed-type numeric
			// columns behave predictably.
			return "i:" + strconv.FormatInt(int64(v.F), 10)
		}
		return "f:" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case TBool:
		if v.B {
			return "b:1"
		}
		return "b:0"
	case TDate:
		return "d:" + v.T.Time().Format(DateLayout)
	default:
		return "?"
	}
}

// Coerce attempts to convert v to type t, returning the converted value.
// NULL coerces to NULL of any type. It reports false when the conversion
// is not meaningful.
func (v Value) Coerce(t Type) (Value, bool) {
	if v.IsNull() {
		return Null(), true
	}
	if v.Kind == t {
		return v, true
	}
	switch t {
	case TString:
		return Str(v.String()), true
	case TInt:
		switch v.Kind {
		case TFloat:
			return Int(int64(v.F)), true
		case TString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null(), false
			}
			return Int(i), true
		case TBool:
			if v.B {
				return Int(1), true
			}
			return Int(0), true
		}
	case TFloat:
		switch v.Kind {
		case TInt:
			return Float(float64(v.I)), true
		case TString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null(), false
			}
			return Float(f), true
		}
	case TBool:
		switch v.Kind {
		case TString:
			switch strings.ToLower(strings.TrimSpace(v.S)) {
			case "true", "yes", "1":
				return Bool(true), true
			case "false", "no", "0":
				return Bool(false), true
			}
			return Null(), false
		case TInt:
			return Bool(v.I != 0), true
		}
	case TDate:
		if v.Kind == TString {
			d, err := ParseDate(strings.TrimSpace(v.S))
			if err != nil {
				return Null(), false
			}
			return d, true
		}
	}
	return Null(), false
}
