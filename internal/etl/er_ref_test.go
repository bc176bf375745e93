package etl

import "plabi/internal/textutil"

// refMatcher is the matcher as it stood before pruning and scratch reuse:
// every blocked candidate is scored through the string JaroWinkler and a
// per-call map dedupes them. It is the oracle the differential tests hold
// matcher.match to. It shares blockKeys with production on purpose — the
// blocking rule is part of the contract, not of the optimisation.
type refMatcher struct {
	exact  map[string]string       // normalized -> canonical
	blocks map[rune][]refCandidate // block key -> canonical candidates
}

// refCandidate is a canonical string plus its cached normalization.
type refCandidate struct {
	canon string
	norm  string
}

func newRefMatcher() *refMatcher {
	return &refMatcher{exact: map[string]string{}, blocks: map[rune][]refCandidate{}}
}

func (m *refMatcher) add(canonical string) {
	norm := textutil.Normalize(canonical)
	if _, ok := m.exact[norm]; ok {
		return
	}
	m.exact[norm] = canonical
	for _, k := range blockKeys(nil, []rune(norm)) {
		m.blocks[k] = append(m.blocks[k], refCandidate{canon: canonical, norm: norm})
	}
}

// match finds the best canonical candidate above the threshold. (It keeps
// the old answer for a threshold ≤ 0 with nothing scored — "", true — so
// the differential tests stay above 0; TestMatchNeedsScoredCandidate pins
// the fixed behaviour.)
func (m *refMatcher) match(s string, threshold float64) (string, bool) {
	norm := textutil.Normalize(s)
	if c, ok := m.exact[norm]; ok {
		return c, true
	}
	seen := map[string]bool{}
	best, bestScore := "", 0.0
	for _, k := range blockKeys(nil, []rune(norm)) {
		for _, cand := range m.blocks[k] {
			if seen[cand.canon] {
				continue
			}
			seen[cand.canon] = true
			score := textutil.JaroWinkler(norm, cand.norm)
			if score > bestScore {
				best, bestScore = cand.canon, score
			}
		}
	}
	if bestScore >= threshold {
		return best, true
	}
	return "", false
}
