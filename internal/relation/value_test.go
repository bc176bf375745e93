package relation

import (
	"testing"
	"testing/quick"
	"time"
)

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Str("alice"), "alice"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{DateYMD(2007, time.February, 12), "2007-02-12"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(2), Float(2.0), 0, true},
		{Float(1.5), Int(2), -1, true},
		{Str("a"), Str("b"), -1, true},
		{Bool(false), Bool(true), -1, true},
		{DateYMD(2007, 1, 1), DateYMD(2008, 1, 1), -1, true},
		{Null(), Int(1), 0, false},
		{Int(1), Null(), 0, false},
		{Str("a"), Int(1), 0, false},
	}
	for _, c := range cases {
		got, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Compare(%v, %v) = %d,%v want %d,%v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

// TestLargeIntsCompareExactly: two INTs that share a float64 image are
// still distinct, whichever path compares them. A select over a typed int
// vector (kernel) and over a mixed column (Compare) agree, and so do a
// single-key join (MapKey) and a multi-key join (verified with Equal).
func TestLargeIntsCompareExactly(t *testing.T) {
	const big = int64(1) << 53
	pred := Eq(ColRefExpr("id"), Lit(Int(big+1)))
	typed := NewBase("t", NewSchema(Col("id", TInt)))
	typed.AppendVals(Int(big))
	typed.AppendVals(Int(big + 1))
	mixed := NewBase("t", NewSchema(Col("id", TInt)))
	mixed.AppendVals(Int(big))
	mixed.AppendVals(Int(big + 1))
	mixed.AppendVals(Float(0.5))
	for name, tab := range map[string]*Table{"typed": typed, "mixed": mixed} {
		out, err := Select(tab, pred)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 1 {
			t.Errorf("%s select: %d rows, want 1", name, out.NumRows())
		}
	}

	l := NewBase("l", NewSchema(Col("a", TInt), Col("k", TInt)))
	l.AppendVals(Int(big), Int(1))
	r := NewBase("r", NewSchema(Col("b", TInt), Col("k2", TInt)))
	r.AppendVals(Int(big+1), Int(1))
	lq, rq := Rename(l, "l"), Rename(r, "r")
	for name, on := range map[string]Expr{
		"single-key": Eq(ColRefExpr("l.a"), ColRefExpr("r.b")),
		"multi-key":  And(Eq(ColRefExpr("l.a"), ColRefExpr("r.b")), Eq(ColRefExpr("l.k"), ColRefExpr("r.k2"))),
	} {
		out, err := Join(lq, rq, on, InnerJoin)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 0 {
			t.Errorf("%s join: %d rows, want 0", name, out.NumRows())
		}
	}
}

func TestNullEqualsNothing(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL must not equal NULL")
	}
	if Null().Equal(Int(0)) || Int(0).Equal(Null()) {
		t.Error("NULL must not equal any value")
	}
}

func TestValueKeyDistinguishes(t *testing.T) {
	vals := []Value{
		Null(), Str("1"), Int(1), Float(1.5), Bool(true), Bool(false),
		Str(""), Str("NULL"), DateYMD(2020, 5, 1), Str("2020-05-01"),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision: %v (%v) and %v (%v) share key %q", prev, prev.Kind, v, v.Kind, k)
		}
		seen[k] = v
	}
	// But INT 2 and FLOAT 2.0 must intentionally share a key.
	if Int(2).Key() != Float(2.0).Key() {
		t.Error("Int(2) and Float(2.0) should group together")
	}
}

func TestValueKeyEqualConsistent(t *testing.T) {
	// Property: equal values have equal keys.
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Equal(vb) {
			return va.Key() == vb.Key()
		}
		return va.Key() != vb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		va, vb := Float(a), Float(b)
		c1, ok1 := va.Compare(vb)
		c2, ok2 := vb.Compare(va)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in   Value
		to   Type
		want Value
		ok   bool
	}{
		{Str("42"), TInt, Int(42), true},
		{Str(" 42 "), TInt, Int(42), true},
		{Str("x"), TInt, Null(), false},
		{Int(42), TString, Str("42"), true},
		{Int(3), TFloat, Float(3), true},
		{Float(3.7), TInt, Int(3), true},
		{Str("yes"), TBool, Bool(true), true},
		{Str("no"), TBool, Bool(false), true},
		{Str("2020-05-01"), TDate, DateYMD(2020, 5, 1), true},
		{Str("01/05/2020"), TDate, Null(), false},
		{Null(), TInt, Null(), true},
	}
	for _, c := range cases {
		got, ok := c.in.Coerce(c.to)
		if ok != c.ok {
			t.Errorf("Coerce(%v, %v) ok = %v, want %v", c.in, c.to, ok, c.ok)
			continue
		}
		if ok && got.Kind != c.want.Kind {
			t.Errorf("Coerce(%v, %v) kind = %v, want %v", c.in, c.to, got.Kind, c.want.Kind)
		}
		if ok && !got.IsNull() && got.String() != c.want.String() {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("2007-02-12")
	if err != nil {
		t.Fatal(err)
	}
	if tm := v.T.Time(); tm.Year() != 2007 || tm.Month() != time.February || tm.Day() != 12 {
		t.Errorf("ParseDate = %v", v)
	}
	if _, err := ParseDate("12/02/2007"); err == nil {
		t.Error("expected error for non-ISO date")
	}
}

func TestDateTruncation(t *testing.T) {
	v := Date(time.Date(2020, 5, 1, 13, 45, 0, 0, time.UTC))
	if !v.T.Time().Equal(time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("Date not truncated: %v", v)
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{
		TNull: "NULL", TString: "STRING", TInt: "INT",
		TFloat: "FLOAT", TBool: "BOOL", TDate: "DATE",
	} {
		if ty.String() != want {
			t.Errorf("Type(%d).String() = %q, want %q", int(ty), ty.String(), want)
		}
	}
}
