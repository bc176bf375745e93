// Package attack implements the adversary the paper's anonymizing release
// defends against (§3: data "that could be used to drill down from the
// provided data to the data of an actual individual"): a linkage attacker
// who holds an identified external registry (e.g. the municipal
// population) and tries to re-identify rows of the released, generalized
// table by matching quasi-identifier values, and to disclose sensitive
// attributes through equivalence-class homogeneity (the attack
// l-diversity exists to stop).
package attack

import (
	"fmt"
	"strconv"
	"strings"

	"plabi/internal/relation"
)

// Linkage describes one attack: the released table (QI possibly
// generalized by the Mondrian anonymizer), the attacker's identified
// external table with raw QI values, and the columns involved.
type Linkage struct {
	// Released is the table the BI provider published.
	Released *relation.Table
	// External is the attacker's identified side information.
	External *relation.Table
	// QI are the quasi-identifier columns present in both tables.
	QI []string
	// IdentityCol names the identifying column of the external table.
	IdentityCol string
	// SensitiveCol optionally names a sensitive column of the released
	// table for attribute-disclosure measurement ("" skips it).
	SensitiveCol string
}

// Result quantifies the attack.
type Result struct {
	ReleasedRows int
	// Reidentified counts released rows whose candidate set in the
	// external table has exactly one member.
	Reidentified int
	// ReidentRate is Reidentified / ReleasedRows.
	ReidentRate float64
	// AvgCandidates is the mean candidate-set size over matched rows
	// (higher = safer; k-anonymity aims for >= k).
	AvgCandidates float64
	// MinCandidates is the smallest non-zero candidate set observed.
	MinCandidates int
	// AttributeDisclosed counts external individuals whose sensitive
	// value the attacker learns with certainty: every released row they
	// are a candidate for shares one sensitive value (homogeneity).
	AttributeDisclosed int
	// AttributeRate is AttributeDisclosed / external individuals that are
	// candidates of at least one released row.
	AttributeRate float64
}

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("released=%d reidentified=%d (%.1f%%) avg-candidates=%.1f min=%d attr-disclosed=%d (%.1f%%)",
		r.ReleasedRows, r.Reidentified, 100*r.ReidentRate, r.AvgCandidates,
		r.MinCandidates, r.AttributeDisclosed, 100*r.AttributeRate)
}

// Run executes the linkage attack.
func Run(l Linkage) (Result, error) {
	var res Result
	var err error
	if l.Released, err = l.Released.Materialize(); err != nil {
		return res, err
	}
	if l.External, err = l.External.Materialize(); err != nil {
		return res, err
	}
	qiRel := make([]int, len(l.QI))
	qiExt := make([]int, len(l.QI))
	for i, q := range l.QI {
		ri := l.Released.Schema.Index(q)
		ei := l.External.Schema.Index(q)
		if ri < 0 || ei < 0 {
			return res, fmt.Errorf("attack: QI column %q missing (released %v, external %v)", q, ri >= 0, ei >= 0)
		}
		qiRel[i] = ri
		qiExt[i] = ei
	}
	idIdx := l.External.Schema.Index(l.IdentityCol)
	if idIdx < 0 {
		return res, fmt.Errorf("attack: identity column %q missing from external table", l.IdentityCol)
	}
	sensIdx := -1
	if l.SensitiveCol != "" {
		sensIdx = l.Released.Schema.Index(l.SensitiveCol)
		if sensIdx < 0 {
			return res, fmt.Errorf("attack: sensitive column %q missing from released table", l.SensitiveCol)
		}
	}

	res.ReleasedRows = l.Released.NumRows()
	totalCandidates := 0
	matchedRows := 0
	// sensitive values each external individual is consistent with.
	indivSens := map[string]map[string]bool{}

	for ri := range l.Released.Rows {
		var candidates []int
		for ei := range l.External.Rows {
			match := true
			for qi := range l.QI {
				if !GeneralizedMatch(l.Released.Rows[ri][qiRel[qi]], l.External.Rows[ei][qiExt[qi]]) {
					match = false
					break
				}
			}
			if match {
				candidates = append(candidates, ei)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		matchedRows++
		totalCandidates += len(candidates)
		if res.MinCandidates == 0 || len(candidates) < res.MinCandidates {
			res.MinCandidates = len(candidates)
		}
		if len(candidates) == 1 {
			res.Reidentified++
		}
		if sensIdx >= 0 {
			sv := l.Released.Rows[ri][sensIdx].Key()
			for _, ei := range candidates {
				id := l.External.Rows[ei][idIdx].Key()
				if indivSens[id] == nil {
					indivSens[id] = map[string]bool{}
				}
				indivSens[id][sv] = true
			}
		}
	}
	if res.ReleasedRows > 0 {
		res.ReidentRate = float64(res.Reidentified) / float64(res.ReleasedRows)
	}
	if matchedRows > 0 {
		res.AvgCandidates = float64(totalCandidates) / float64(matchedRows)
	}
	if sensIdx >= 0 && len(indivSens) > 0 {
		for _, vals := range indivSens {
			if len(vals) == 1 {
				res.AttributeDisclosed++
			}
		}
		res.AttributeRate = float64(res.AttributeDisclosed) / float64(len(indivSens))
	}
	return res, nil
}

// GeneralizedMatch reports whether a released (possibly generalized)
// value is consistent with a raw value: exact equality, "*", "{a,b,c}"
// sets, "[lo-hi]" / "[lo-hi)" numeric ranges, and "381**" prefix masks.
func GeneralizedMatch(released, raw relation.Value) bool {
	if released.IsNull() || raw.IsNull() {
		return false
	}
	if released.Equal(raw) {
		return true
	}
	if released.Kind != relation.TString {
		// Coerced comparison (e.g. INT raw vs numeric-string released).
		if c, ok := released.Coerce(raw.Kind); ok && c.Equal(raw) {
			return true
		}
		return false
	}
	s := released.S
	switch {
	case s == "*":
		return true
	case strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}"):
		for _, part := range strings.Split(s[1:len(s)-1], ",") {
			if strings.TrimSpace(part) == raw.String() {
				return true
			}
		}
		return false
	case strings.HasPrefix(s, "["):
		lo, hi, hiOpen, ok := parseRange(s)
		if !ok {
			return false
		}
		f, okF := raw.AsFloat()
		if !okF {
			return false
		}
		if hiOpen {
			return f >= lo && f < hi
		}
		return f >= lo && f <= hi
	case strings.ContainsRune(s, '*'):
		prefix := s[:strings.IndexRune(s, '*')]
		return strings.HasPrefix(raw.String(), prefix)
	default:
		return s == raw.String()
	}
}

// parseRange parses "[lo-hi]" or "[lo-hi)"; hiOpen reports the ')' form.
func parseRange(s string) (lo, hi float64, hiOpen, ok bool) {
	if len(s) < 5 || s[0] != '[' {
		return 0, 0, false, false
	}
	hiOpen = s[len(s)-1] == ')'
	if !hiOpen && s[len(s)-1] != ']' {
		return 0, 0, false, false
	}
	body := s[1 : len(s)-1]
	// Split at the dash separating the bounds (mind negative numbers).
	sep := -1
	for i := 1; i < len(body); i++ {
		if body[i] == '-' && body[i-1] != 'e' && body[i-1] != 'E' {
			sep = i
			break
		}
	}
	if sep < 0 {
		return 0, 0, false, false
	}
	var err1, err2 error
	lo, err1 = strconv.ParseFloat(strings.TrimSpace(body[:sep]), 64)
	hi, err2 = strconv.ParseFloat(strings.TrimSpace(body[sep+1:]), 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false, false
	}
	return lo, hi, hiOpen, true
}
