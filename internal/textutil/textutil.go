// Package textutil provides small text utilities shared across the
// library: string-similarity metrics used by the ETL entity-resolution
// step, and name normalization helpers.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases, trims, and collapses internal whitespace — the
// canonical form compared during entity resolution.
func Normalize(s string) string {
	return string(AppendNormalize(nil, s))
}

// AppendNormalize appends Normalize(s) to dst, so a caller normalizing
// many values reuses one buffer.
func AppendNormalize(dst []byte, s string) []byte {
	start, gap := len(dst), false
	for _, r := range s {
		if unicode.IsSpace(r) {
			gap = true
			continue
		}
		if gap && len(dst) > start {
			dst = append(dst, ' ')
		}
		gap = false
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// StripDiacriticsASCII removes characters outside [a-z0-9 ] after
// normalization; a cheap stand-in for full Unicode folding that is
// sufficient for the synthetic workload.
func StripDiacriticsASCII(s string) string {
	var b strings.Builder
	for _, r := range Normalize(s) {
		if r == ' ' || unicode.IsDigit(r) || (r >= 'a' && r <= 'z') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Levenshtein computes the edit distance between two strings.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Scratch is the match-flag storage of the Jaro body. A caller scoring
// many pairs keeps one and scores without allocating; the zero value is
// ready, and a Scratch must not be shared between goroutines.
type Scratch struct {
	flags []bool
}

// Jaro computes the Jaro similarity in [0,1] of two rune slices.
func (s *Scratch) Jaro(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(max(len(ra), len(rb))/2-1, 0)
	if n := len(ra) + len(rb); cap(s.flags) < n {
		s.flags = make([]bool, n)
	} else {
		s.flags = s.flags[:n]
		clear(s.flags)
	}
	matchA, matchB := s.flags[:len(ra)], s.flags[len(ra):]
	matches := 0
	for i, c := range ra {
		lo := max(i-window, 0)
		hi := min(i+window+1, len(rb))
		for j := lo; j < hi; j++ {
			if c != rb[j] || matchB[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions.
	trans := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler computes the Jaro-Winkler similarity in [0,1] of two rune
// slices with the standard prefix scale 0.1 and max prefix 4.
func (s *Scratch) JaroWinkler(ra, rb []rune) float64 {
	j := s.Jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Jaro computes the Jaro similarity in [0,1].
func Jaro(a, b string) float64 {
	var s Scratch
	return s.Jaro([]rune(a), []rune(b))
}

// JaroWinkler computes the Jaro-Winkler similarity in [0,1] with the
// standard prefix scale 0.1 and max prefix 4.
func JaroWinkler(a, b string) float64 {
	var s Scratch
	return s.JaroWinkler([]rune(a), []rune(b))
}

// Similar reports whether two names refer to the same entity under the
// threshold used by the ETL matcher (Jaro-Winkler on normalized forms).
func Similar(a, b string, threshold float64) bool {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return true
	}
	return JaroWinkler(na, nb) >= threshold
}
