package etl

import (
	"bytes"
	"fmt"
	"math/bits"

	"plabi/internal/relation"
	"plabi/internal/textutil"
)

// EntityResolution resolves dirty entity references in one column of a
// staging table against a canonical list drawn from another (donor)
// table — the paper's "integration" use of data: information from one
// owner cleaning/resolving another owner's data (§5 v). The guard's
// CheckIntegration is consulted with the donor table and the beneficiary
// owner before any donor value is used.
type EntityResolution struct {
	baseStep
	// Input is the staging table whose Column gets resolved.
	Input  string
	Column string
	// Canon is the staging table supplying canonical values from
	// CanonColumn.
	Canon       string
	CanonColumn string
	// Beneficiary is the owner of the Input data (the party whose data is
	// being cleaned with the donor's values).
	Beneficiary string
	// Threshold is the Jaro-Winkler similarity, in (0, 1], at or above
	// which a dirty value snaps to its best canonical match.
	Threshold float64
	Out       string

	// Stats of the last run.
	Resolved  int
	Unmatched int
}

// NewEntityResolution builds a guarded entity-resolution step.
func NewEntityResolution(name, input, column, canon, canonColumn, beneficiary string, threshold float64, output string) *EntityResolution {
	return &EntityResolution{
		baseStep: baseStep{name}, Input: input, Column: column,
		Canon: canon, CanonColumn: canonColumn, Beneficiary: beneficiary,
		Threshold: threshold, Out: output,
	}
}

// Op implements Step.
func (e *EntityResolution) Op() string { return "entity-resolution" }

// Inputs implements Step.
func (e *EntityResolution) Inputs() []string { return []string{e.Input, e.Canon} }

// Output implements Step.
func (e *EntityResolution) Output() string { return e.Out }

// Run implements Step.
func (e *EntityResolution) Run(c *Context) error {
	e.Resolved, e.Unmatched = 0, 0
	out, err := e.resolve(c, nil)
	if err != nil {
		return err
	}
	c.Put(e.Out, out)
	return nil
}

// resolve is the step body: the guard check, the matcher built from the
// canon, and the column rewritten over the input rows at the indices in
// dirty (nil = the whole input — a full Run; the delta path passes the
// changed rows). Stats accumulate; Run resets them first. Each call adds
// its tallies to the etl.er.* counters: values looked up, exact hits,
// blocked candidates, candidates the bound let through to scoring,
// values resolved and left unmatched.
func (e *EntityResolution) resolve(c *Context, dirty []int) (*relation.Table, error) {
	in, err := c.Get(e.Input)
	if err != nil {
		return nil, err
	}
	canon, err := c.Get(e.Canon)
	if err != nil {
		return nil, err
	}
	for _, donor := range baseTablesOf(canon) {
		if err := c.Guard.CheckIntegration(donor, e.Beneficiary); err != nil {
			return nil, &ViolationError{Step: e.name, Rule: "integration-permission",
				Detail: fmt.Sprintf("donor %s cleaning data of %s: %v", donor, e.Beneficiary, err), Cause: err}
		}
	}
	if !(e.Threshold > 0 && e.Threshold <= 1) { // also rejects NaN
		return nil, fmt.Errorf("entity-resolution %s: threshold %v is outside (0, 1]", e.name, e.Threshold)
	}
	ci := canon.Schema.Index(e.CanonColumn)
	if ci < 0 {
		return nil, fmt.Errorf("entity-resolution: canonical column %q not found", e.CanonColumn)
	}
	matcher := newMatcher()
	for ri := 0; ri < canon.NumRows(); ri++ {
		v, err := canon.ValueAt(ri, ci)
		if err != nil {
			return nil, err
		}
		if v.Kind == relation.TString {
			matcher.add(v.S)
		}
	}
	ti := in.Schema.Index(e.Column)
	if ti < 0 {
		return nil, fmt.Errorf("entity-resolution: column %q not found", e.Column)
	}
	if dirty != nil {
		if in, err = relation.SliceRows(in, dirty); err != nil {
			return nil, err
		}
	}
	resolved, unmatched := 0, 0
	out, err := mapCol(c.Ctx(), in, ti, func(v relation.Value) relation.Value {
		if v.Kind != relation.TString {
			return v
		}
		best, ok := matcher.match(v.S, e.Threshold)
		if !ok {
			unmatched++
			return v
		}
		if best != v.S {
			resolved++
		}
		return relation.Str(best)
	})
	if err != nil {
		return nil, err
	}
	e.Resolved += resolved
	e.Unmatched += unmatched
	for name, n := range map[string]int{
		"etl.er.values": matcher.values, "etl.er.exact": matcher.exactHits,
		"etl.er.candidates": matcher.candidates, "etl.er.scored": matcher.scored,
		"etl.er.resolved": resolved, "etl.er.unmatched": unmatched,
	} {
		c.Metrics.Counter(name).Add(uint64(n))
	}
	out.Name = e.Out
	return out, nil
}

// matcher resolves a dirty string to the most similar canonical one.
// Blocking keeps resolution near-linear: a canonical is a candidate for a
// value only when a word of each starts with the same rune. Among the
// candidates the winner is the first, in the value's word order and then
// insertion order, to attain the highest Jaro-Winkler score. A matcher is
// not safe for concurrent use: look-ups share its scratch.
type matcher struct {
	exact  map[string]string // normalized -> canonical
	cands  []candidate       // one per distinct normalized canonical, insertion order
	blocks map[rune][]int32  // first rune of a word -> indices into cands

	// visited[i] == gen marks cands[i] as already seen by the current
	// look-up (a candidate can sit in several of the value's blocks).
	visited []uint32
	gen     uint32

	// Scratch of the current look-up.
	buf  []byte
	norm []rune
	keys []rune
	jaro textutil.Scratch

	// Tallies over every look-up so far.
	values, exactHits, candidates, scored int
}

// candidate is a canonical string plus what scoring and pruning need of
// its normalization, computed once at add time.
type candidate struct {
	canon string
	norm  []rune
	sig   uint64 // signatureOf(norm)
}

// signatureOf hashes the runes of a normalized string into 64 buckets and
// returns the set of buckets that occur.
func signatureOf(norm []rune) uint64 {
	var sig uint64
	for _, r := range norm {
		// Space and digits land in the low half, letters in the high
		// half, so the alphabet of a lowercased name never collides.
		b := uint(r) & 31
		if r >= 0x60 {
			b |= 32
		}
		sig |= 1 << b
	}
	return sig
}

// scoreBound returns an upper bound of JaroWinkler(a, b) from the lengths
// and signatures alone. A rune of a whose bucket is absent from b cannot
// be one of the m Jaro matches, and every absent bucket holds at least one
// rune, which bounds m from either side; Jaro is at most
// (m/la + m/lb + 1)/3 (no transpositions) and Winkler adds at most
// 0.4·(1 − Jaro) (a full four-rune prefix). The arithmetic mirrors
// textutil's, whose every step is monotone, so the bound also holds for
// the rounded values: when the true m equals the bound and nothing is
// transposed the two are bit-identical, and otherwise they differ by at
// least 1/(6·max(la, lb)), far above rounding error.
func scoreBound(la int, a uint64, lb int, b uint64) float64 {
	m := float64(min(la-bits.OnesCount64(a&^b), lb-bits.OnesCount64(b&^a)))
	if m <= 0 {
		return 0
	}
	j := (m/float64(la) + m/float64(lb) + 1) / 3
	return j + 4*0.1*(1-j)
}

func newMatcher() *matcher {
	return &matcher{exact: map[string]string{}, blocks: map[rune][]int32{}}
}

// blockKeys appends the first rune of each word of a normalized string to
// keys (a normalized string separates words by single spaces).
func blockKeys(keys, norm []rune) []rune {
	for i, r := range norm {
		if r != ' ' && (i == 0 || norm[i-1] == ' ') {
			keys = append(keys, r)
		}
	}
	return keys
}

func (m *matcher) add(canonical string) {
	m.buf = textutil.AppendNormalize(m.buf[:0], canonical)
	if _, ok := m.exact[string(m.buf)]; ok {
		return
	}
	m.exact[string(m.buf)] = canonical
	norm := bytes.Runes(m.buf)
	idx := int32(len(m.cands))
	m.cands = append(m.cands, candidate{canon: canonical, norm: norm, sig: signatureOf(norm)})
	m.visited = append(m.visited, 0)
	m.keys = blockKeys(m.keys[:0], norm)
	for _, k := range m.keys {
		if p := m.blocks[k]; len(p) == 0 || p[len(p)-1] != idx {
			m.blocks[k] = append(p, idx)
		}
	}
}

// match finds the best canonical candidate at or above the threshold.
// Before scoring a candidate it applies scoreBound: a candidate whose
// bound is under the threshold or under the best score so far can neither
// win nor tie-break, so skipping it never changes the answer.
func (m *matcher) match(s string, threshold float64) (string, bool) {
	m.values++
	m.buf = textutil.AppendNormalize(m.buf[:0], s)
	if c, ok := m.exact[string(m.buf)]; ok {
		m.exactHits++
		return c, true
	}
	m.norm = m.norm[:0]
	for _, r := range string(m.buf) {
		m.norm = append(m.norm, r)
	}
	m.keys = blockKeys(m.keys[:0], m.norm)
	sig := signatureOf(m.norm)
	if m.gen++; m.gen == 0 { // wrapped: stale stamps could alias
		clear(m.visited)
		m.gen = 1
	}
	best, bestScore, cutoff := -1, 0.0, threshold
	for _, k := range m.keys {
		for _, ci := range m.blocks[k] {
			if m.visited[ci] == m.gen {
				continue
			}
			m.visited[ci] = m.gen
			m.candidates++
			c := &m.cands[ci]
			if scoreBound(len(m.norm), sig, len(c.norm), c.sig) < cutoff {
				continue
			}
			m.scored++
			if score := m.jaro.JaroWinkler(m.norm, c.norm); best < 0 || score > bestScore {
				best, bestScore = int(ci), score
				cutoff = max(cutoff, score)
			}
		}
	}
	if best >= 0 && bestScore >= threshold {
		return m.cands[best].canon, true
	}
	return "", false
}
