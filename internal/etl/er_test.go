package etl

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"plabi/internal/obs"
	"plabi/internal/relation"
	"plabi/internal/textutil"
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
	m, ref := newMatcher(newCanonIndex(ds.PatientNames)), newRefMatcher()
	for _, n := range ds.PatientNames {
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
// line) and look-ups — any bytes, any threshold in (0, 1]. A second
// matcher over the same index answers too: the path of a step reusing its
// canon's index. The seed corpus is testdata/fuzz/FuzzMatcher.
func FuzzMatcher(f *testing.F) {
	f.Fuzz(func(t *testing.T, canon, lookup string, threshold float64) {
		if !(threshold > 0 && threshold <= 1) {
			t.Skip()
		}
		canonicals := strings.Split(canon, "\n")
		ix, ref := newCanonIndex(canonicals), newRefMatcher()
		for _, c := range canonicals {
			ref.add(c)
		}
		m := newMatcher(ix)
		differ(t, m, ref, lookup, threshold)
		differ(t, m, ref, lookup, threshold) // warm scratch, next generation
		differ(t, newMatcher(ix), ref, lookup, threshold)
	})
}

// TestMatchTieRule: among exactly equal scores the winner is the
// candidate whose block comes first in the value's word order, then the
// one added first — not the one the length bands happen to reach first.
// Both cases are FuzzMatcher seeds too (tie_across_blocks,
// tie_across_bands).
func TestMatchTieRule(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second string // canonicals, in insertion order
		lookup, want  string
	}{
		// "baaa" is only in block b, added first; "aba" is only in block a,
		// the block of the value's first word.
		{"across blocks", "baaa", "aba", "aa baa", "aba"},
		// One block: the bands reach "ana" (one rune shorter than the
		// value) before "annaly" (two longer), which was added first.
		{"across bands", "Annaly", "Ana", "Anna", "Annaly"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			norm := textutil.Normalize(tc.lookup)
			s1 := textutil.JaroWinkler(norm, textutil.Normalize(tc.first))
			s2 := textutil.JaroWinkler(norm, textutil.Normalize(tc.second))
			if math.Float64bits(s1) != math.Float64bits(s2) {
				t.Fatalf("scores %v and %v differ: no tie to break", s1, s2)
			}
			ref := newRefMatcher()
			ref.add(tc.first)
			ref.add(tc.second)
			m := newMatcher(newCanonIndex([]string{tc.first, tc.second}))
			got, ok := m.match(tc.lookup, 0.5)
			if !ok || got != tc.want || m.scored != 2 {
				t.Errorf("match(%q) = (%q, %v) after scoring %d, want %q after scoring both", tc.lookup, got, ok, m.scored, tc.want)
			}
			differ(t, m, ref, tc.lookup, 0.5)
		})
	}
}

// TestMatchNeedsScoredCandidate: a threshold ≤ 0 used to "match" a value
// with no candidate at all to the empty string, and resolve then erased
// the patient and counted it resolved.
func TestMatchNeedsScoredCandidate(t *testing.T) {
	m := newMatcher(newCanonIndex([]string{"Alice Rossi"}))
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
	ix := newCanonIndex([]string{"Éa", "Émile Durand", "Östen Berg", "Ülo Tamm"})
	if got, ok := newMatcher(ix).match("Émile Durant", 0.88); !ok || got != "Émile Durand" {
		t.Errorf("match = (%q, %v)", got, ok)
	}
	// "Émile" lies between the two É names in length and the threshold is
	// under both length bounds (0.88 for "Éa", 0.883 for "Émile Durand"),
	// so the bands reach both: every É name is a candidate, no other name.
	m := newMatcher(ix)
	if got, ok := m.match("Émile", 0.6); !ok || got != "Émile Durand" {
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
	m := newMatcher(newCanonIndex([]string{"Alice Rossi"}))
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
// block, band search, bound, score — allocates nothing.
func TestMatchDoesNotAllocate(t *testing.T) {
	m := newMatcher(newCanonIndex([]string{"Alice Rossi", "Anna Ricci", "Rita Ardito", "Bruno Verdi"}))
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

// TestResolveReusesCanonIndex: the step builds its canon index once per
// version of the canon column. A second run over unchanged residents and a
// familydoctor delta reuse it; a residents delta (a new version) builds
// one, and the step still answers what the reference answers over the new
// residents.
func TestResolveReusesCanonIndex(t *testing.T) {
	cfg := workload.DefaultConfig(5)
	cfg.Patients, cfg.Prescriptions, cfg.LabResults = 1500, 500, 1
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, fam := erPipeline(ds)
	muni := p.Steps[3].(*Extract).Source
	er := p.Steps[5].(*EntityResolution)
	metrics := obs.New()
	builds := metrics.Counter("etl.er.index_builds")
	run := func() *Context {
		c := NewContext(nil)
		c.Metrics = metrics
		if _, err := p.Run(c, false); err != nil {
			t.Fatal(err)
		}
		return c
	}
	run()
	if n := builds.Value(); n != 1 {
		t.Fatalf("the first run built %d indexes, want 1", n)
	}
	c := run()
	if n := builds.Value(); n != 1 {
		t.Errorf("a second run over unchanged residents built %d indexes", n-1)
	}
	applyAndPropagate(t, p, c, fam, &Delta{Source: "familydoctors", Table: "familydoctor",
		Updates: []RowUpdate{{Row: 0, Vals: relation.Row{relation.Str("Nobody Knwon"), relation.Str("Dr. U")}}}})
	if n := builds.Value(); n != 1 {
		t.Errorf("a familydoctor delta built %d indexes", n-1)
	}

	// A resident named exactly like a value the step resolved away is a new
	// version of the canon, under which that value resolves to itself.
	clean, err := c.Get("familydoctor_clean")
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Get(er.Out)
	if err != nil {
		t.Fatal(err)
	}
	renamed := ""
	for i := range clean.NumRows() {
		if v := clean.Row(i)[0].S; v != out.Row(i)[0].S {
			renamed = v
			break
		}
	}
	if renamed == "" {
		t.Fatal("the step resolved nothing")
	}
	row := append(relation.Row(nil), ds.Residents.Row(0)...)
	row[0] = relation.Str(renamed)
	applyAndPropagate(t, p, c, muni, &Delta{Source: "municipality", Table: "residents", Inserts: []relation.Row{row}})
	if n := builds.Value(); n != 2 {
		t.Errorf("a residents delta built %d indexes, want 1", n-1)
	}

	residents, _ := muni.Table("residents")
	ref := newRefMatcher()
	for i := range residents.NumRows() {
		ref.add(residents.Row(i)[0].S)
	}
	clean, err = c.Get("familydoctor_clean")
	if err != nil {
		t.Fatal(err)
	}
	want, err := mapCol(context.Background(), clean, 0, func(v relation.Value) relation.Value {
		if best, ok := ref.match(v.S, er.Threshold); ok {
			return relation.Str(best)
		}
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	want.Name = er.Out
	if out, err = c.Get(er.Out); err != nil {
		t.Fatal(err)
	}
	if dump(out) != dump(want) {
		t.Errorf("after the residents delta, %s differs from the reference resolution", er.Out)
	}
	if !strings.Contains(dump(out), renamed) {
		t.Errorf("%q did not resolve to itself under the new residents", renamed)
	}
}

// BenchmarkResolve: the step over 5 000 family-doctor names, a share of
// them dirtied by the generator, against 5 000 residents. cold builds the
// canon index on every run, as for a new version of residents; warm
// reuses it, as every run over an unchanged one does.
func BenchmarkResolve(b *testing.B) {
	cfg := workload.DefaultConfig(1)
	cfg.Patients = 5000
	cfg.Prescriptions, cfg.LabResults = 1, 1
	ds, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds.FamilyDoctor.Freeze() // stored, as a step's output or a registered source is
	ds.Residents.Freeze()
	for _, warm := range []bool{false, true} {
		b.Run(map[bool]string{false: "cold", true: "warm"}[warm], func(b *testing.B) {
			er := NewEntityResolution("resolve-fd", "familydoctor", "patient",
				"residents", "patient", "familydoctors", 0.88, "familydoctor_resolved")
			c := NewContext(nil)
			c.Put("familydoctor", ds.FamilyDoctor)
			c.Put("residents", ds.Residents)
			for range b.N {
				if !warm {
					er.idx.Store(nil)
				}
				if err := er.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
