package etl

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

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
	out, err := e.match(c, nil)
	if err == nil {
		c.Put(e.Out, out)
	}
	return err
}

// match runs the step over the input rows at the indices in dirty (nil =
// the whole input — a full Run; the delta path passes the changed rows):
// the integration check of every table the canon derives from, the canon
// index kept beside the canon's version, and the column rewritten. Its
// tallies go to the etl.er.* counters: canon indexes built, values looked
// up, exact hits, blocked candidates reached, candidates the bounds let
// through to scoring, values resolved and left unmatched.
func (e *EntityResolution) match(c *Context, dirty []int) (*relation.Table, error) {
	in, err := c.Get(e.Input)
	if err != nil {
		return nil, err
	}
	canon, err := c.Get(e.Canon)
	if err != nil {
		return nil, err
	}
	for _, donor := range canon.BaseTables() {
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
	ix, builds, err := e.indexOf(canon, ci)
	if err != nil {
		return nil, err
	}
	m := newMatcher(ix)
	ti := in.Schema.Index(e.Column)
	if ti < 0 {
		return nil, fmt.Errorf("entity-resolution: column %q not found", e.Column)
	}
	if dirty != nil {
		if in, err = relation.SliceRows(in, dirty); err != nil {
			return nil, err
		}
	}
	out, err := mapCol(c.Ctx(), in, ti, func(v relation.Value) relation.Value {
		if v.Kind != relation.TString {
			return v
		}
		best, ok := m.match(v.S, e.Threshold)
		if !ok {
			m.unmatched++
			return v
		}
		if best != v.S {
			m.resolved++
		}
		return relation.Str(best)
	})
	if err != nil {
		return nil, err
	}
	out.Name = e.Out
	for name, n := range map[string]int{
		"etl.er.index_builds": builds, "etl.er.values": m.values, "etl.er.exact": m.exactHits,
		"etl.er.candidates": m.candidates, "etl.er.scored": m.scored,
		"etl.er.resolved": m.resolved, "etl.er.unmatched": m.unmatched,
	} {
		c.Metrics.Counter(name).Add(uint64(n))
	}
	return out, nil
}

// indexOf returns the canon index of column ci of canon's version, and how
// many it built (0 or 1): the one kept beside that version under the step's
// output name, or a new one, which it keeps there.
func (e *EntityResolution) indexOf(canon *relation.Table, ci int) (*canonIndex, int, error) {
	if ix, ok := canon.Kept(e.Out).(*canonIndex); ok && ix.col == ci {
		return ix, 0, nil
	}
	vals := make([]string, 0, canon.NumRows())
	for ri := range canon.NumRows() {
		val, err := canon.ValueAt(ri, ci)
		if err != nil {
			return nil, 0, err
		}
		if val.Kind == relation.TString {
			vals = append(vals, val.S)
		}
	}
	ix := newCanonIndex(vals)
	ix.col = ci
	canon.Keep(e.Out, ix)
	return ix, 1, nil
}

// canonIndex is what entity resolution derives from one version of the
// canon column: each distinct normalized canonical once, in insertion
// order, and its block postings. It is immutable once built, so any number
// of look-ups (each with its own matcher) share it. It is stored flat: the
// normalizations back to back in one rune arena, and every block's
// postings in one array, each block's run ordered by normalized length and
// then insertion index, so a look-up can scan a block outward from its own
// length (matcher.match).
type canonIndex struct {
	exact    map[string]int32 // normalized -> index into cands
	cands    []candidate      // one per distinct normalized canonical, insertion order
	runes    []rune           // every candidate's normalization
	postings []posting        // block by block
	blocks   map[rune]span    // first rune of a word -> its run of postings
	col      int              // the canon column it was built from
}

// span is a block's run of postings, postings[lo:hi].
type span struct{ lo, hi int32 }

// posting is a candidate's entry in a block, carrying the length and
// signature the scan and the bound read, so a scan walks one array.
type posting struct {
	cand, n int32
	sig     uint64
}

// candidate is a canonical string and where its normalization lies in the
// rune arena, runes[off : off+n].
type candidate struct {
	canon  string
	off, n int32
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

// matchBound returns an upper bound of the Jaro matches of two normalized
// strings from their lengths and signatures alone: a rune of a whose
// bucket is absent from b cannot be one of the matches, and every absent
// bucket holds at least one rune, which bounds the matches from either
// side. With no absent buckets (both signatures 0) it is min(la, lb).
func matchBound(la int, a uint64, lb int, b uint64) int {
	return min(la-bits.OnesCount64(a&^b), lb-bits.OnesCount64(b&^a))
}

// scoreBound returns an upper bound of JaroWinkler over two strings of
// lengths la and lb with at most m Jaro matches and a common prefix of at
// most prefix runes: Jaro is at most (m/la + m/lb + 1)/3 (no
// transpositions) and Winkler adds prefix·0.1·(1 − Jaro), at most
// 0.4·(1 − Jaro) (four runes, the most it counts). The arithmetic mirrors
// textutil's, whose every step is monotone, so the bound also holds for
// the rounded values: when the true m equals the bound and nothing is
// transposed the two are bit-identical, and otherwise they differ by at
// least 1/(6·max(la, lb)), far above rounding error. It rises with m.
//
// With m = min(la, lb) and a prefix of 4 it is the length-only bound,
// which falls as lb moves away from la in either direction and is never
// below the bound of any pair of signatures and prefix at those lengths.
func scoreBound(m, la, lb, prefix int) float64 {
	if m <= 0 {
		return 0
	}
	fm := float64(m)
	j := (fm/float64(la) + fm/float64(lb) + 1) / 3
	return j + float64(prefix)*0.1*(1-j)
}

// minMatches returns the fewest matches m for which scoreBound(m, la, lb,
// 4) reaches cutoff, or min(la, lb)+1 when even the length-only bound
// falls below it. A pair with fewer possible matches is below the cutoff,
// so a scan compares matchBound with it instead of evaluating the bound.
func minMatches(la, lb int, cutoff float64) int {
	return 1 + sort.Search(min(la, lb), func(i int) bool { return scoreBound(i+1, la, lb, 4) >= cutoff })
}

// commonPrefix returns the length of the common prefix of a and b, up to
// the four runes Winkler counts.
func commonPrefix(a, b []rune) int {
	p := 0
	for p < len(a) && p < len(b) && p < 4 && a[p] == b[p] {
		p++
	}
	return p
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

// newCanonIndex builds the index of canonicals, in order. A canonical
// whose normalization is already indexed adds nothing.
func newCanonIndex(canonicals []string) *canonIndex {
	size := 0
	for _, s := range canonicals {
		size += len(s) // a normalization has at most as many runes as s has bytes
	}
	ix := &canonIndex{
		exact:  make(map[string]int32, len(canonicals)),
		cands:  make([]candidate, 0, len(canonicals)),
		runes:  make([]rune, 0, size),
		blocks: map[rune]span{},
	}
	var (
		buf  []byte
		keys []rune
		// order holds the block keys as they first occur, and each span's
		// hi counts its postings until the spans are laid out.
		order []rune
	)
	for _, s := range canonicals {
		buf = textutil.AppendNormalize(buf[:0], s)
		if _, ok := ix.exact[string(buf)]; ok {
			continue
		}
		ix.exact[string(buf)] = int32(len(ix.cands))
		off := len(ix.runes)
		for _, r := range string(buf) {
			ix.runes = append(ix.runes, r)
		}
		ix.cands = append(ix.cands, candidate{canon: s, off: int32(off), n: int32(len(ix.runes) - off)})
		keys = blockKeys(keys[:0], ix.runes[off:])
		for i, k := range keys {
			if !slices.Contains(keys[:i], k) {
				sp, ok := ix.blocks[k]
				if !ok {
					order = append(order, k)
				}
				sp.hi++
				ix.blocks[k] = sp
			}
		}
	}
	// Lay the blocks out back to back, then deal the candidates into them
	// by length and index, so that each block's run comes out ordered.
	lo := int32(0)
	for _, k := range order {
		n := ix.blocks[k].hi
		ix.blocks[k] = span{lo, lo}
		lo += n
	}
	byLen := make([]int32, len(ix.cands))
	for i := range byLen {
		byLen[i] = int32(i)
	}
	slices.SortFunc(byLen, func(a, b int32) int {
		return cmp.Or(cmp.Compare(ix.cands[a].n, ix.cands[b].n), cmp.Compare(a, b))
	})
	ix.postings = make([]posting, lo)
	for _, ci := range byLen {
		c := &ix.cands[ci]
		norm := ix.runes[c.off : c.off+c.n]
		p := posting{cand: ci, n: c.n, sig: signatureOf(norm)}
		keys = blockKeys(keys[:0], norm)
		for i, k := range keys {
			if !slices.Contains(keys[:i], k) {
				sp := ix.blocks[k]
				ix.postings[sp.hi] = p
				sp.hi++
				ix.blocks[k] = sp
			}
		}
	}
	return ix
}

// matcher resolves dirty strings to the most similar canonical of a
// shared canonIndex. Blocking keeps resolution near-linear: a canonical is
// a candidate for a value only when a word of each starts with the same
// rune. The winner is the candidate with the highest Jaro-Winkler score;
// among equal scores, the one whose block comes first in the value's word
// order (the position of the value's first word whose block holds it),
// and then the one added first. A matcher is one look-up scratch: it is
// not safe for concurrent use, and concurrent look-ups each take their own
// over the same index.
type matcher struct {
	ix *canonIndex

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
	values, exactHits, candidates, scored, resolved, unmatched int
}

func newMatcher(ix *canonIndex) *matcher {
	return &matcher{ix: ix, visited: make([]uint32, len(ix.cands))}
}

// band is one direction of a block scan: the length it last reached (-1
// before the first) and minMatches for that length at the cutoff it was
// computed for.
type band struct {
	n, need int
	cutoff  float64
}

// reaches reports whether a candidate of length n is within the length-only
// bound of a value of length la at cutoff, updating need to the fewest
// matches such a candidate must be able to have.
func (b *band) reaches(la, n int, cutoff float64) bool {
	if n != b.n || cutoff != b.cutoff {
		b.reset(la, n, cutoff)
	}
	return b.need <= min(la, n)
}

// reset recomputes the band for length n at cutoff; kept apart so that
// reaches, called per candidate, inlines.
func (b *band) reset(la, n int, cutoff float64) {
	b.n, b.cutoff, b.need = n, cutoff, minMatches(la, n, cutoff)
}

// match finds the best canonical candidate at or above the threshold.
// Each of the value's blocks is scanned outward from the value's own
// normalized length, the closer length first, and a direction stops once
// the length-only bound falls below the cutoff, max(threshold, best score
// so far): every candidate further out is bounded lower still. A candidate
// reached is skipped unscored when its bound is below the cutoff: first
// the bound from the signatures, then the one from its actual prefix.
// Neither cut changes the answer: what is cut can neither reach the
// threshold nor beat or tie the best, and a candidate cut in one block is
// cut again in any later block (the cutoff only rises), so a scored
// candidate is always scored in its first block.
func (m *matcher) match(s string, threshold float64) (string, bool) {
	ix := m.ix
	m.values++
	m.buf = textutil.AppendNormalize(m.buf[:0], s)
	if ci, ok := ix.exact[string(m.buf)]; ok {
		m.exactHits++
		return ix.cands[ci].canon, true
	}
	m.norm = m.norm[:0]
	for _, r := range string(m.buf) {
		m.norm = append(m.norm, r)
	}
	m.keys = blockKeys(m.keys[:0], m.norm)
	la, sig := len(m.norm), signatureOf(m.norm)
	if m.gen++; m.gen == 0 { // wrapped: stale stamps could alias
		clear(m.visited)
		m.gen = 1
	}
	best, bestPos, bestScore, cutoff := int32(-1), 0, 0.0, threshold
	for pos, k := range m.keys {
		sp, ok := ix.blocks[k]
		if !ok || slices.Contains(m.keys[:pos], k) {
			continue
		}
		block := ix.postings[sp.lo:sp.hi]
		// up is the first posting at least as long as the value, down the
		// last one shorter.
		up, _ := slices.BinarySearchFunc(block, la, func(p posting, la int) int { return cmp.Compare(int(p.n), la) })
		down := up - 1
		upBand, downBand := band{n: -1}, band{n: -1}
		for up < len(block) || down >= 0 {
			var p *posting
			var need int
			if up < len(block) && (down < 0 || int(block[up].n)-la <= la-int(block[down].n)) {
				if p = &block[up]; !upBand.reaches(la, int(p.n), cutoff) {
					up = len(block)
					continue
				}
				up, need = up+1, upBand.need
			} else {
				if p = &block[down]; !downBand.reaches(la, int(p.n), cutoff) {
					down = -1
					continue
				}
				down, need = down-1, downBand.need
			}
			ci := p.cand
			if m.visited[ci] == m.gen {
				continue
			}
			m.visited[ci] = m.gen
			m.candidates++
			mb := matchBound(la, sig, int(p.n), p.sig)
			if mb < need {
				continue
			}
			c := &ix.cands[ci]
			norm := ix.runes[c.off : c.off+c.n]
			if pre := commonPrefix(m.norm, norm); pre < 4 && scoreBound(mb, la, int(p.n), pre) < cutoff {
				continue
			}
			m.scored++
			// Blocks are scanned in word order, so a tie with the best
			// goes to the candidate added first only within its block.
			score := m.jaro.JaroWinkler(m.norm, norm)
			if best < 0 || score > bestScore || score == bestScore && pos == bestPos && ci < best {
				best, bestPos, bestScore = ci, pos, score
				cutoff = max(cutoff, score)
			}
		}
	}
	if best >= 0 && bestScore >= threshold {
		return ix.cands[best].canon, true
	}
	return "", false
}
