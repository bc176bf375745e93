package policy

import (
	"fmt"
	"strings"
)

// RuleCovers reports whether rule s matches every (attribute, role,
// purpose) triple rule r matches. It is the covering relation behind the
// dead-rule analysis (ShadowingDeny, CoveredEarlier) that plalint's PL001
// reports and render programs prune by: under most-restrictive-wins
// composition, an allow rule covered by an unconditional deny can never
// influence a decision, and a rule covered by an earlier unconditional
// rule of the same effect is redundant.
func RuleCovers(s, r AccessRule) bool {
	if s.Attribute != "*" && !strings.EqualFold(s.Attribute, r.Attribute) {
		return false
	}
	return SetCovers(s.Roles, r.Roles) && SetCovers(s.Purposes, r.Purposes)
}

// RuleCoversWhen is RuleCovers refined with intensional conditions: a
// conditioned rule releases (or denies) strictly less than an
// unconditional one, so s only covers r when s is unconditional or both
// carry the same condition. pladiff's expansion analysis uses this
// stricter relation — a new allow guarded only by a *different* condition
// than the old one is a potential widening, not a covered rewrite.
func RuleCoversWhen(s, r AccessRule) bool {
	if !RuleCovers(s, r) {
		return false
	}
	if s.When == nil {
		return true
	}
	if r.When == nil {
		return false
	}
	return fmt.Sprint(s.When) == fmt.Sprint(r.When)
}

// SetCovers reports whether the matcher set sup (empty = everything)
// accepts at least everything sub accepts. Matching is case-insensitive,
// mirroring rule evaluation.
func SetCovers(sup, sub []string) bool {
	if len(sup) == 0 {
		return true
	}
	if len(sub) == 0 {
		return false
	}
	for _, v := range sub {
		found := false
		for _, w := range sup {
			if strings.EqualFold(v, w) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ShadowingDeny returns the first agreement among plas, and its index in
// that agreement's access rules, whose deny covers every triple r matches
// (nil, -1 when none does). A deny's condition is ignored by decision
// composition, so any covering deny shadows unconditionally. The caller
// chooses plas: the agreements that govern wherever r's agreement does.
func ShadowingDeny(plas []*PLA, r AccessRule) (*PLA, int) {
	for _, q := range plas {
		for i, s := range q.Access {
			if s.Effect == Deny && RuleCovers(s, r) {
				return q, i
			}
		}
	}
	return nil, -1
}

// CoveredEarlier returns the index of an earlier unconditional rule in the
// same agreement with the same effect covering rule i, which must itself
// be unconditional for the subsumption to be outcome-neutral (-1 when
// none does).
func CoveredEarlier(pla *PLA, i int) int {
	r := pla.Access[i]
	if r.When != nil {
		return -1
	}
	for j := 0; j < i; j++ {
		s := pla.Access[j]
		if s.Effect == r.Effect && s.When == nil && RuleCovers(s, r) {
			return j
		}
	}
	return -1
}
