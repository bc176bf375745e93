// Package anon implements the anonymization techniques the paper's
// source-level release filters rely on (§3, Fig. 2a): k-anonymity via
// Mondrian-style multidimensional generalization with suppression
// (Sweeney [12]), distinct l-diversity (Machanavajjhala et al. [9]),
// per-attribute generalization hierarchies, keyed pseudonymization, and
// aggregate-preserving numeric perturbation (Verykios et al. [13]).
package anon

import (
	"fmt"
	"strings"

	"plabi/internal/relation"
)

// Hierarchy generalizes a value upward through numbered levels: level 0 is
// the raw value and MaxLevel() maps everything to "*".
type Hierarchy interface {
	// Generalize maps v to the given level. Levels beyond MaxLevel clamp.
	Generalize(v relation.Value, level int) relation.Value
	// MaxLevel is the level at which all values collapse to "*".
	MaxLevel() int
}

// DateHierarchy generalizes dates: 0 day, 1 month, 2 quarter, 3 year, 4 *.
type DateHierarchy struct{}

// MaxLevel implements Hierarchy.
func (DateHierarchy) MaxLevel() int { return 4 }

// Generalize implements Hierarchy.
func (DateHierarchy) Generalize(v relation.Value, level int) relation.Value {
	if v.IsNull() || v.Kind != relation.TDate || level <= 0 {
		return v
	}
	t := v.T.Time()
	switch level {
	case 1:
		return relation.Str(fmt.Sprintf("%04d-%02d", t.Year(), int(t.Month())))
	case 2:
		return relation.Str(fmt.Sprintf("%04d-Q%d", t.Year(), (int(t.Month())-1)/3+1))
	case 3:
		return relation.Str(fmt.Sprintf("%04d", t.Year()))
	default:
		return relation.Str("*")
	}
}

// IntRangeHierarchy generalizes integers into progressively wider buckets:
// level i uses width Base*2^(i-1); MaxLevel collapses to "*". The default
// Base 5 matches age-style attributes (5, 10, 20, 40 year bands).
type IntRangeHierarchy struct {
	Base   int
	Levels int
}

// NewAgeHierarchy returns the conventional age hierarchy (5/10/20/40-year
// bands, then *).
func NewAgeHierarchy() IntRangeHierarchy { return IntRangeHierarchy{Base: 5, Levels: 4} }

// MaxLevel implements Hierarchy.
func (h IntRangeHierarchy) MaxLevel() int { return h.Levels + 1 }

// Generalize implements Hierarchy.
func (h IntRangeHierarchy) Generalize(v relation.Value, level int) relation.Value {
	if v.IsNull() || level <= 0 {
		return v
	}
	n, ok := v.AsInt()
	if !ok {
		return v
	}
	if level > h.Levels {
		return relation.Str("*")
	}
	width := int64(h.Base)
	for i := 1; i < level; i++ {
		width *= 2
	}
	lo := (n / width) * width
	if n < 0 && n%width != 0 {
		lo -= width
	}
	return relation.Str(fmt.Sprintf("[%d-%d)", lo, lo+width))
}

// PrefixHierarchy generalizes strings by truncating suffix characters —
// the standard ZIP-code hierarchy. Level i removes i trailing characters.
type PrefixHierarchy struct {
	// Width is the full length of the code (e.g. 5 for ZIP codes).
	Width int
}

// MaxLevel implements Hierarchy.
func (h PrefixHierarchy) MaxLevel() int { return h.Width }

// Generalize implements Hierarchy.
func (h PrefixHierarchy) Generalize(v relation.Value, level int) relation.Value {
	if v.IsNull() || v.Kind != relation.TString || level <= 0 {
		return v
	}
	s := v.S
	if level >= h.Width || level >= len(s) {
		return relation.Str("*")
	}
	keep := len(s) - level
	return relation.Str(s[:keep] + strings.Repeat("*", level))
}

// CategoryHierarchy generalizes categorical values through an explicit
// parent map (e.g. disease -> disease category -> *).
type CategoryHierarchy struct {
	// Parents maps a value to its parent at the next level.
	Parents map[string]string
	// Depth is the number of generalization steps before "*".
	Depth int
}

// MaxLevel implements Hierarchy.
func (h CategoryHierarchy) MaxLevel() int { return h.Depth + 1 }

// Generalize implements Hierarchy.
func (h CategoryHierarchy) Generalize(v relation.Value, level int) relation.Value {
	if v.IsNull() || v.Kind != relation.TString || level <= 0 {
		return v
	}
	if level > h.Depth {
		return relation.Str("*")
	}
	cur := v.S
	for i := 0; i < level; i++ {
		p, ok := h.Parents[cur]
		if !ok {
			return relation.Str("*")
		}
		cur = p
	}
	return relation.Str(cur)
}

// SuppressHierarchy maps every value to "*" at level >= 1.
type SuppressHierarchy struct{}

// MaxLevel implements Hierarchy.
func (SuppressHierarchy) MaxLevel() int { return 1 }

// Generalize implements Hierarchy.
func (SuppressHierarchy) Generalize(v relation.Value, level int) relation.Value {
	if level <= 0 {
		return v
	}
	return relation.Str("*")
}

// HierarchySet maps column names to their generalization hierarchies; the
// per-deployment registry PLA anonymize rules resolve against.
type HierarchySet map[string]Hierarchy

// For returns the hierarchy for a column, defaulting to suppression so a
// generalize rule on an unconfigured column is always safe.
func (h HierarchySet) For(col string) Hierarchy {
	if hier, ok := h[strings.ToLower(col)]; ok {
		return hier
	}
	return SuppressHierarchy{}
}

// DefaultHierarchies returns the hierarchy set for the healthcare
// workload: dates, ages, ZIPs and diseases.
func DefaultHierarchies() HierarchySet {
	return HierarchySet{
		"date": DateHierarchy{},
		"age":  NewAgeHierarchy(),
		"zip":  PrefixHierarchy{Width: 5},
		"disease": CategoryHierarchy{
			Depth: 1,
			Parents: map[string]string{
				"HIV":          "infectious",
				"hepatitis":    "infectious",
				"flu":          "infectious",
				"asthma":       "respiratory",
				"bronchitis":   "respiratory",
				"diabetes":     "metabolic",
				"obesity":      "metabolic",
				"hypertension": "cardiovascular",
				"arrhythmia":   "cardiovascular",
			},
		},
	}
}
