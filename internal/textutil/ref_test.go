package textutil

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// refNormalize, refJaro and refJaroWinkler are the string functions as
// they stood before Scratch and AppendNormalize: the oracles that hold
// the shared bodies to bit-identical scores.

func refNormalize(s string) string {
	fields := strings.Fields(strings.ToLower(strings.TrimSpace(s)))
	return strings.Join(fields, " ")
}

func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
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

func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// smallAlphabet maps arbitrary strings onto a few symbols, so random
// pairs share runes, transpose and repeat the way names do.
func smallAlphabet(s string) string {
	rs := []rune(s)
	if len(rs) > 40 {
		rs = rs[:40]
	}
	for i, r := range rs {
		rs[i] = []rune("abcde é")[int(r)%7]
	}
	return string(rs)
}

func TestScoresBitIdenticalToReference(t *testing.T) {
	var sc Scratch // one scratch across every pair: reuse must not leak flags
	same := func(a, b string) bool {
		for _, p := range [][2]string{{a, b}, {smallAlphabet(a), smallAlphabet(b)}} {
			if math.Float64bits(Jaro(p[0], p[1])) != math.Float64bits(refJaro(p[0], p[1])) ||
				math.Float64bits(JaroWinkler(p[0], p[1])) != math.Float64bits(refJaroWinkler(p[0], p[1])) ||
				math.Float64bits(sc.JaroWinkler([]rune(p[0]), []rune(p[1]))) != math.Float64bits(refJaroWinkler(p[0], p[1])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, p := range [][2]string{{"martha", "marhta"}, {"dixon", "dicksonx"}, {"alice rossi 12", "alcie rosi 21"}, {"", "a"}, {"\xff", "\xffa"}} {
		if !same(p[0], p[1]) {
			t.Errorf("scores of %q differ from the reference", p)
		}
	}
}

func TestNormalizeMatchesReference(t *testing.T) {
	same := func(s string) bool {
		spaced := strings.Map(func(r rune) rune {
			if r%5 == 0 {
				return []rune(" \t  \n")[int(r/5)%5]
			}
			return r
		}, s)
		return Normalize(s) == refNormalize(s) && Normalize(spaced) == refNormalize(spaced)
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"", " ", " İstanbul ΣΑΣ ", "a\xffB \xc3", "ǅ ǅ"} {
		if !same(s) {
			t.Errorf("Normalize(%q) = %q, reference %q", s, Normalize(s), refNormalize(s))
		}
	}
	if got := string(AppendNormalize([]byte("x "), "  B  c ")); got != "x b c" {
		t.Errorf("AppendNormalize onto a prefix = %q", got)
	}
}

func TestScratchScoreDoesNotAllocate(t *testing.T) {
	var sc Scratch
	a, b := []rune("alice rossi 1234"), []rune("alcie rosi 1243")
	sc.JaroWinkler(a, b)
	if n := testing.AllocsPerRun(100, func() { sc.JaroWinkler(a, b) }); n != 0 {
		t.Errorf("allocs per score on warm scratch = %v", n)
	}
}
