package anon

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plabi/internal/relation"
)

func patientTable(n int, seed int64) *relation.Table {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewBase("patients", relation.NewSchema(
		relation.Col("name", relation.TString),
		relation.Col("age", relation.TInt),
		relation.Col("zip", relation.TString),
		relation.Col("disease", relation.TString),
	))
	diseases := []string{"HIV", "asthma", "diabetes", "flu", "hypertension"}
	for i := 0; i < n; i++ {
		t.AppendVals(
			relation.Str("p"+itoa(i)),
			relation.Int(int64(20+rng.Intn(60))),
			relation.Str("38"+itoa(100+rng.Intn(30))),
			relation.Str(diseases[rng.Intn(len(diseases))]),
		)
	}
	return t
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestKAnonymizeGuarantee(t *testing.T) {
	for _, k := range []int{2, 5, 10, 25} {
		src := patientTable(200, 42)
		out, stats, err := KAnonymize(src, k, []string{"age", "zip"})
		if err != nil {
			t.Fatal(err)
		}
		ok, viol, err := CheckKAnonymity(out, k, []string{"age", "zip"})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("k=%d: violations %v", k, viol)
		}
		if out.NumRows()+stats.Suppressed != src.NumRows() {
			t.Errorf("k=%d: rows %d + suppressed %d != %d", k, out.NumRows(), stats.Suppressed, src.NumRows())
		}
		if stats.Partitions == 0 {
			t.Errorf("k=%d: no partitions", k)
		}
		if stats.AvgClassSize < float64(k) {
			t.Errorf("k=%d: avg class size %f < k", k, stats.AvgClassSize)
		}
	}
}

func TestKAnonymizePreservesNonQI(t *testing.T) {
	src := patientTable(50, 7)
	out, _, err := KAnonymize(src, 5, []string{"age", "zip"})
	if err != nil {
		t.Fatal(err)
	}
	// Disease values multiset must be preserved (only QI generalized).
	count := func(tb *relation.Table) map[string]int {
		m := map[string]int{}
		for i := range tb.NumRows() {
			m[tb.Get(i, "disease").S]++
		}
		return m
	}
	cs, co := count(src), count(out)
	for k, v := range cs {
		if co[k] != v {
			t.Errorf("disease %s: %d vs %d", k, v, co[k])
		}
	}
}

func TestKAnonymizeLineagePreserved(t *testing.T) {
	src := patientTable(30, 3)
	out, _, err := KAnonymize(src, 3, []string{"age"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.NumRows() {
		lin := out.RowLineage(i)
		if len(lin) != 1 || lin[0].Table != "patients" {
			t.Fatalf("row %d lineage = %v", i, lin)
		}
	}
}

func TestKAnonymizeSmallInput(t *testing.T) {
	src := patientTable(3, 1)
	out, stats, err := KAnonymize(src, 5, []string{"age"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 || stats.Suppressed != 3 {
		t.Errorf("rows=%d suppressed=%d", out.NumRows(), stats.Suppressed)
	}
}

func TestKAnonymizeErrors(t *testing.T) {
	src := patientTable(10, 1)
	if _, _, err := KAnonymize(src, 1, []string{"age"}); err == nil {
		t.Error("k=1 must fail")
	}
	if _, _, err := KAnonymize(src, 2, []string{"ghost"}); err == nil {
		t.Error("unknown QI must fail")
	}
}

// Property: k-anonymity holds for random inputs across random k.
func TestKAnonymizeProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 2 + int(kRaw%9)
		src := patientTable(60+int(seed%40+40)%40, seed)
		out, _, err := KAnonymize(src, k, []string{"age", "zip"})
		if err != nil {
			return false
		}
		ok, _, err := CheckKAnonymity(out, k, []string{"age", "zip"})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLDiversity(t *testing.T) {
	src := patientTable(200, 42)
	out, _, err := KAnonymize(src, 10, []string{"age", "zip"})
	if err != nil {
		t.Fatal(err)
	}
	ld, suppressed, err := EnforceLDiversity(out, 2, []string{"age", "zip"}, "disease")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := CheckLDiversity(ld, 2, []string{"age", "zip"}, "disease")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("l-diversity violated after enforcement")
	}
	if ld.NumRows()+suppressed != out.NumRows() {
		t.Errorf("row accounting: %d + %d != %d", ld.NumRows(), suppressed, out.NumRows())
	}
}

func TestLDiversityDetectsHomogeneous(t *testing.T) {
	tb := relation.NewBase("t", relation.NewSchema(
		relation.Col("age", relation.TString),
		relation.Col("disease", relation.TString),
	))
	tb.AppendVals(relation.Str("[20-30)"), relation.Str("HIV"))
	tb.AppendVals(relation.Str("[20-30)"), relation.Str("HIV"))
	tb.AppendVals(relation.Str("[30-40)"), relation.Str("HIV"))
	tb.AppendVals(relation.Str("[30-40)"), relation.Str("flu"))
	ok, err := CheckLDiversity(tb, 2, []string{"age"}, "disease")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("homogeneous class must violate 2-diversity")
	}
	out, suppressed, err := EnforceLDiversity(tb, 2, []string{"age"}, "disease")
	if err != nil {
		t.Fatal(err)
	}
	if suppressed != 2 || out.NumRows() != 2 {
		t.Errorf("suppressed=%d rows=%d", suppressed, out.NumRows())
	}
}

func TestHierarchies(t *testing.T) {
	d := DateHierarchy{}
	v := relation.DateYMD(2007, 2, 12)
	cases := []struct {
		level int
		want  string
	}{
		{0, "2007-02-12"}, {1, "2007-02"}, {2, "2007-Q1"}, {3, "2007"}, {4, "*"}, {9, "*"},
	}
	for _, c := range cases {
		if got := d.Generalize(v, c.level).String(); got != c.want {
			t.Errorf("date level %d = %q, want %q", c.level, got, c.want)
		}
	}

	age := NewAgeHierarchy()
	if got := age.Generalize(relation.Int(37), 1).String(); got != "[35-40)" {
		t.Errorf("age level 1 = %q", got)
	}
	if got := age.Generalize(relation.Int(37), 2).String(); got != "[30-40)" {
		t.Errorf("age level 2 = %q", got)
	}
	if got := age.Generalize(relation.Int(37), 5).String(); got != "*" {
		t.Errorf("age beyond max = %q", got)
	}

	zip := PrefixHierarchy{Width: 5}
	if got := zip.Generalize(relation.Str("38122"), 2).String(); got != "381**" {
		t.Errorf("zip level 2 = %q", got)
	}
	if got := zip.Generalize(relation.Str("38122"), 5).String(); got != "*" {
		t.Errorf("zip full = %q", got)
	}

	dis := DefaultHierarchies().For("disease")
	if got := dis.Generalize(relation.Str("HIV"), 1).String(); got != "infectious" {
		t.Errorf("disease level 1 = %q", got)
	}
	if got := dis.Generalize(relation.Str("HIV"), 2).String(); got != "*" {
		t.Errorf("disease level 2 = %q", got)
	}
	if got := dis.Generalize(relation.Str("unknown-disease"), 1).String(); got != "*" {
		t.Errorf("unmapped disease = %q", got)
	}

	// Unconfigured column defaults to suppression.
	if got := DefaultHierarchies().For("nope").Generalize(relation.Str("x"), 1).String(); got != "*" {
		t.Errorf("default hierarchy = %q", got)
	}

	// NULL passes through every hierarchy.
	if !d.Generalize(relation.Null(), 2).IsNull() {
		t.Error("NULL must stay NULL")
	}
}

func TestPseudonymizer(t *testing.T) {
	p := NewPseudonymizer([]byte("secret"))
	a1 := p.Pseudonym(relation.Str("Alice"))
	a2 := p.Pseudonym(relation.Str("Alice"))
	b := p.Pseudonym(relation.Str("Bob"))
	if a1.S != a2.S {
		t.Error("pseudonyms must be stable")
	}
	if a1.S == b.S {
		t.Error("different values must get different pseudonyms")
	}
	if a1.S == "Alice" || len(a1.S) < 10 {
		t.Errorf("pseudonym looks wrong: %q", a1.S)
	}
	other := NewPseudonymizer([]byte("other-key"))
	if other.Pseudonym(relation.Str("Alice")).S == a1.S {
		t.Error("different keys must give different pseudonyms")
	}
	if !p.Pseudonym(relation.Null()).IsNull() {
		t.Error("NULL must stay NULL")
	}
}

func TestPseudonymizeColumnPreservesJoins(t *testing.T) {
	src := patientTable(20, 5)
	p := NewPseudonymizer([]byte("k"))
	out, err := p.PseudonymizeColumn(src, "name")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct count preserved.
	d1 := relation.Distinct(mustProject(t, src, "name"))
	d2 := relation.Distinct(mustProject(t, out, "name"))
	if d1.NumRows() != d2.NumRows() {
		t.Errorf("distinct %d vs %d", d1.NumRows(), d2.NumRows())
	}
}

func mustProject(t *testing.T, tb *relation.Table, cols ...string) *relation.Table {
	t.Helper()
	out, err := relation.ProjectCols(tb, cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSuppressColumn(t *testing.T) {
	src := patientTable(5, 1)
	out, err := SuppressColumn(src, "name")
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.NumRows() {
		if !out.Get(i, "name").IsNull() {
			t.Error("suppressed column must be NULL")
		}
		if out.Get(i, "age").IsNull() {
			t.Error("other columns must be untouched")
		}
	}
}

func TestGeneralizeColumn(t *testing.T) {
	src := patientTable(5, 1)
	out, err := GeneralizeColumn(src, "age", NewAgeHierarchy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.NumRows() {
		s := out.Get(i, "age").S
		if len(s) == 0 || s[0] != '[' {
			t.Errorf("age not generalized: %q", s)
		}
	}
}

func TestPerturbPreservesSum(t *testing.T) {
	tb := relation.NewBase("costs", relation.NewSchema(
		relation.Col("drug", relation.TString),
		relation.Col("cost", relation.TFloat),
	))
	var want float64
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		c := rng.Float64() * 100
		want += c
		tb.AppendVals(relation.Str("d"+itoa(i)), relation.Float(c))
	}
	out, err := PerturbColumn(tb, "cost", 20, 777)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	changed := 0
	for i := range out.NumRows() {
		got += out.Get(i, "cost").F
		if math.Abs(out.Get(i, "cost").F-tb.Get(i, "cost").F) > 1e-9 {
			changed++
		}
	}
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("sum changed: %f vs %f", got, want)
	}
	if changed < 90 {
		t.Errorf("only %d values perturbed", changed)
	}
}

func TestPerturbDeterministic(t *testing.T) {
	src := patientTable(20, 5)
	a, err := PerturbColumn(src, "age", 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PerturbColumn(src, "age", 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.NumRows() {
		if a.Get(i, "age").I != b.Get(i, "age").I {
			t.Fatal("perturbation must be deterministic for fixed seed")
		}
	}
}

func TestUnknownColumnError(t *testing.T) {
	src := patientTable(5, 1)
	if _, err := SuppressColumn(src, "ghost"); err == nil {
		t.Error("expected error")
	}
	var ue *UnknownColumnError
	_, err := SuppressColumn(src, "ghost")
	if ue, _ = err.(*UnknownColumnError); ue == nil || ue.Column != "ghost" {
		t.Errorf("error type = %T %v", err, err)
	}
}
