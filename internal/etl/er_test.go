package etl

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"plabi/internal/relation"
	"plabi/internal/workload"
)

// differ looks s up in both matchers and reports any disagreement.
func differ(t *testing.T, m *matcher, ref *refMatcher, s string, threshold float64) {
	t.Helper()
	got, gotOK := m.match(s, threshold)
	want, wantOK := ref.match(s, threshold)
	if got != want || gotOK != wantOK {
		t.Errorf("match(%q, %v) = (%q, %v), reference (%q, %v)", s, threshold, got, gotOK, want, wantOK)
	}
}

// TestMatcherMatchesReference: pruning, scratch reuse and the postings
// layout change nothing — on the generator's names, dirtied once and twice,
// every look-up answers exactly what the reference matcher answers.
func TestMatcherMatchesReference(t *testing.T) {
	cfg := workload.DefaultConfig(7)
	cfg.Patients = 5000
	cfg.Prescriptions, cfg.LabResults = 1, 1
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, ref := newMatcher(), newRefMatcher()
	for _, n := range ds.PatientNames {
		m.add(n)
		ref.add(n)
	}
	// The reference scores over a thousand candidates per look-up, so the
	// look-ups are a sample of the names, not all 5 000.
	stride := 10
	if testing.Short() {
		stride = 50
	}
	rng := rand.New(rand.NewSource(7))
	lookups := []string{"", " \t ", "\u00a0 ", "Zed Quux", "x"}
	for i := 0; i < len(ds.PatientNames); i += stride {
		n := ds.PatientNames[i]
		once := workload.Dirty(n, rng)
		twice := workload.Dirty(once, rng)
		lookups = append(lookups, once, twice)
		if i%(5*stride) == 0 {
			lookups = append(lookups, "Élodie "+once, "ß"+twice, n+" é")
		}
	}
	for _, threshold := range []float64{0.5, 0.88, 0.95, 1.0} {
		for _, s := range lookups {
			differ(t, m, ref, s, threshold)
		}
	}
	if m.scored == 0 || m.scored >= m.candidates {
		t.Errorf("scored %d of %d candidates: the bound pruned nothing", m.scored, m.candidates)
	}
}

// FuzzMatcher is the same differential over arbitrary canonicals (one per
// line) and look-ups — any bytes, any threshold in (0, 1]. The seed corpus
// is testdata/fuzz/FuzzMatcher.
func FuzzMatcher(f *testing.F) {
	f.Fuzz(func(t *testing.T, canon, lookup string, threshold float64) {
		if !(threshold > 0 && threshold <= 1) {
			t.Skip()
		}
		m, ref := newMatcher(), newRefMatcher()
		for _, c := range strings.Split(canon, "\n") {
			m.add(c)
			ref.add(c)
		}
		differ(t, m, ref, lookup, threshold)
		differ(t, m, ref, lookup, threshold) // warm scratch, next generation
	})
}

// TestMatchNeedsScoredCandidate: a threshold ≤ 0 used to "match" a value
// with no candidate at all to the empty string, and resolve then erased
// the patient and counted it resolved.
func TestMatchNeedsScoredCandidate(t *testing.T) {
	m := newMatcher()
	m.add("Alice Rossi")
	if got, ok := m.match("Zed Quux", 0); ok {
		t.Errorf("match with no candidate = (%q, true)", got)
	}
	if got, ok := m.match("Ann Quux", 0); !ok || got != "Alice Rossi" {
		t.Errorf("match at threshold 0 with one candidate = (%q, %v)", got, ok)
	}
}

// TestResolveRejectsThreshold: a threshold outside (0, 1] is an error
// naming the step, raised after the guard's verdict.
func TestResolveRejectsThreshold(t *testing.T) {
	setup := func(g Guard) *Context {
		canon := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
		canon.AppendVals(relation.Str("Alice Rossi"))
		dirty := relation.NewBase("familydoctor", relation.NewSchema(relation.Col("patient", relation.TString)))
		dirty.AppendVals(relation.Str("Zed Quux"))
		c := NewContext(g)
		c.Put("residents", canon)
		c.Put("familydoctor", dirty)
		return c
	}
	for _, threshold := range []float64{0, -0.5, 1.01, math.NaN(), math.Inf(1)} {
		er := NewEntityResolution("resolve-x", "familydoctor", "patient", "residents", "patient",
			"familydoctors", threshold, "resolved")
		c := setup(nil)
		_, err := (&Pipeline{Steps: []Step{er}}).Run(c, false)
		if err == nil || !strings.Contains(err.Error(), "resolve-x") || !strings.Contains(err.Error(), "threshold") {
			t.Errorf("threshold %v: err = %v", threshold, err)
		}
		if _, gerr := c.Get("resolved"); gerr == nil {
			t.Errorf("threshold %v: an output was staged", threshold)
		}
		_, err = (&Pipeline{Steps: []Step{er}}).Run(setup(denyGuard{beneficiary: "familydoctors"}), false)
		if !IsViolation(err) {
			t.Errorf("threshold %v under a denying guard: err = %v, want the violation", threshold, err)
		}
	}
}

// TestBlockKeysFirstRune: words are keyed by their first rune, so names
// that share only a UTF-8 lead byte (é, ö, ü are all 0xC3 ..) are not
// candidates for one another.
func TestBlockKeysFirstRune(t *testing.T) {
	if got := string(blockKeys(nil, []rune("émile öberg  ünal"))); got != "éöü" {
		t.Errorf("blockKeys = %q", got)
	}
	m := newMatcher()
	for _, n := range []string{"Éa", "Émile Durand", "Östen Berg", "Ülo Tamm"} {
		m.add(n)
	}
	if got, ok := m.match("Émile Durant", 0.88); !ok || got != "Émile Durand" {
		t.Errorf("match = (%q, %v)", got, ok)
	}
	if m.candidates != 2 {
		t.Errorf("candidates = %d, want the two É names only", m.candidates)
	}
	// Jaro("öa", "éa") = 2/3: blocked together by lead byte, this matched.
	if got, ok := m.match("Öa", 0.6); ok {
		t.Errorf("match across initials = (%q, true)", got)
	}
}

// TestMatcherStampWrap: when the generation counter wraps, stamps left by
// earlier look-ups must not hide candidates.
func TestMatcherStampWrap(t *testing.T) {
	m := newMatcher()
	m.add("Alice Rossi")
	m.visited[0] = 1 // as left by the very first look-up
	m.gen = math.MaxUint32
	if got, ok := m.match("Alice Rosi", 0.88); !ok || got != "Alice Rossi" {
		t.Errorf("match after wrap = (%q, %v)", got, ok)
	}
	if m.gen != 1 {
		t.Errorf("gen = %d after wrap", m.gen)
	}
}

// TestMatchDoesNotAllocate: a fuzzy look-up on warm scratch — normalize,
// block, bound, score — allocates nothing.
func TestMatchDoesNotAllocate(t *testing.T) {
	m := newMatcher()
	for _, n := range []string{"Alice Rossi", "Anna Ricci", "Rita Ardito", "Bruno Verdi"} {
		m.add(n)
	}
	m.match("ALICE Rosi", 0.88)
	before := m.scored
	if n := testing.AllocsPerRun(100, func() { m.match("ALICE Rosi", 0.88) }); n != 0 {
		t.Errorf("allocs per look-up = %v", n)
	}
	if m.scored == before {
		t.Error("the look-up scored nothing")
	}
}

// erPipeline is the healthcare pipeline's shape (internal/core builds the
// same eight steps over an engine's sources).
func erPipeline(ds *workload.Dataset) (*Pipeline, *Source) {
	hosp := NewSource("hospital", "hospital", ds.Prescriptions)
	fam := NewSource("familydoctors", "familydoctors", ds.FamilyDoctor)
	agency := NewSource("healthagency", "healthagency", ds.DrugCost)
	muni := NewSource("municipality", "municipality", ds.Residents)
	return &Pipeline{Name: "healthcare", Steps: []Step{
		NewExtract("ext-prescriptions", hosp, "prescriptions", ""),
		NewExtract("ext-familydoctor", fam, "familydoctor", ""),
		NewExtract("ext-drugcost", agency, "drugcost", ""),
		NewExtract("ext-residents", muni, "residents", ""),
		NewCleanse("cleanse-fd", "familydoctor", "familydoctor_clean", "patient"),
		NewEntityResolution("resolve-fd", "familydoctor_clean", "patient",
			"residents", "patient", "familydoctors", 0.88, "familydoctor_resolved"),
		NewJoin("join-costs", "prescriptions", "drugcost",
			relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")),
			relation.InnerJoin, "rx_cost"),
		NewJoin("join-residents", "rx_cost", "residents",
			relation.Eq(relation.ColRefExpr("l.patient"), relation.ColRefExpr("r.patient")),
			relation.InnerJoin, "rx_wide"),
	}}, fam
}

// TestResolveOutputPinned: the resolved staging table — rows, lineage and
// the step's stats — is what resolving the same column through the
// reference matcher gives, after a full run and after a delta.
func TestResolveOutputPinned(t *testing.T) {
	cfg := workload.DefaultConfig(3)
	cfg.Patients, cfg.Prescriptions, cfg.LabResults = 5000, 2000, 1
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, fam := erPipeline(ds)
	er := p.Steps[5].(*EntityResolution)
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}

	ref := newRefMatcher()
	for i := range ds.Residents.NumRows() {
		ref.add(ds.Residents.Row(i)[0].S)
	}
	// check resolves familydoctor_clean through the reference and compares;
	// it returns the reference's stats over the rows at idx (nil = all).
	check := func(when string, idx []int) (resolved, unmatched int) {
		t.Helper()
		clean, err := c.Get("familydoctor_clean")
		if err != nil {
			t.Fatal(err)
		}
		counted := map[int]bool{}
		for _, i := range idx {
			counted[i] = true
		}
		ri := 0
		want, err := mapCol(context.Background(), clean, 0, func(v relation.Value) relation.Value {
			count := idx == nil || counted[ri]
			ri++
			best, ok := ref.match(v.S, er.Threshold)
			switch {
			case !ok:
				if count {
					unmatched++
				}
				return v
			case best != v.S && count:
				resolved++
			}
			return relation.Str(best)
		})
		if err != nil {
			t.Fatal(err)
		}
		want.Name = er.Out
		got, err := c.Get(er.Out)
		if err != nil {
			t.Fatal(err)
		}
		if dump(got) != dump(want) {
			t.Errorf("%s: %s differs from the reference resolution", when, er.Out)
		}
		return resolved, unmatched
	}

	resolved, unmatched := check("full run", nil)
	if er.Resolved != resolved || er.Unmatched != unmatched {
		t.Errorf("full run: stats %d/%d, reference %d/%d", er.Resolved, er.Unmatched, resolved, unmatched)
	}
	if resolved == 0 {
		t.Fatal("the dataset has nothing to resolve")
	}

	rng := rand.New(rand.NewSource(3))
	d := &Delta{Source: "familydoctors", Table: "familydoctor"}
	var touched []int
	for i := 0; i < 40; i++ {
		row := rng.Intn(cfg.Patients/40) + i*(cfg.Patients/40)
		name := workload.Dirty(workload.Dirty(ds.PatientNames[rng.Intn(cfg.Patients)], rng), rng)
		d.Updates = append(d.Updates, RowUpdate{Row: row, Vals: relation.Row{relation.Str(name), relation.Str("Dr. U")}})
		touched = append(touched, row)
	}
	for i := 0; i < 60; i++ {
		name := "  " + workload.Dirty(ds.PatientNames[rng.Intn(cfg.Patients)], rng)
		if i%15 == 0 {
			name = "Nobody Known"
		}
		d.Inserts = append(d.Inserts, relation.Row{relation.Str(name), relation.Str("Dr. I")})
		touched = append(touched, cfg.Patients+i)
	}
	res := applyAndPropagate(t, p, c, fam, d)
	if res.StepsRebuilt != 0 {
		t.Fatalf("delta rebuilt %d steps", res.StepsRebuilt)
	}
	dr, du := check("after delta", touched)
	if er.Resolved != resolved+dr || er.Unmatched != unmatched+du {
		t.Errorf("after delta: stats %d/%d, reference %d/%d", er.Resolved, er.Unmatched, resolved+dr, unmatched+du)
	}
	if dr == 0 || du == 0 {
		t.Errorf("delta resolved %d, left %d unmatched: want both exercised", dr, du)
	}
}
