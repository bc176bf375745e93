package anon

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"

	"plabi/internal/relation"
)

// Pseudonymizer replaces identifying values with stable keyed pseudonyms:
// the same input always maps to the same pseudonym (so joins and
// aggregations over the pseudonymized column still work), but the mapping
// cannot be inverted without the key.
type Pseudonymizer struct {
	key []byte
}

// NewPseudonymizer creates a pseudonymizer with the given secret key.
func NewPseudonymizer(key []byte) *Pseudonymizer {
	k := make([]byte, len(key))
	copy(k, key)
	return &Pseudonymizer{key: k}
}

// Pseudonym maps one value to its pseudonym; NULL stays NULL.
func (p *Pseudonymizer) Pseudonym(v relation.Value) relation.Value {
	if v.IsNull() {
		return v
	}
	mac := hmac.New(sha256.New, p.key)
	mac.Write([]byte(v.Key()))
	sum := mac.Sum(nil)
	return relation.Str("anon-" + hex.EncodeToString(sum[:6]))
}

// PseudonymizeColumn returns a copy of t with the named column replaced by
// pseudonyms; lineage and column origins are preserved.
func (p *Pseudonymizer) PseudonymizeColumn(t *relation.Table, col string) (*relation.Table, error) {
	return mapColumn(t, col, relation.TString, p.Pseudonym)
}

// SuppressColumn returns a copy of t with the named column replaced by
// NULLs.
func SuppressColumn(t *relation.Table, col string) (*relation.Table, error) {
	return mapColumn(t, col, relation.TNull, func(relation.Value) relation.Value {
		return relation.Null()
	})
}

// GeneralizeColumn returns a copy of t with the named column generalized
// to the given level of hierarchy h.
func GeneralizeColumn(t *relation.Table, col string, h Hierarchy, level int) (*relation.Table, error) {
	return mapColumn(t, col, relation.TString, func(v relation.Value) relation.Value {
		return h.Generalize(v, level)
	})
}

// PerturbColumn adds deterministic (seeded), zero-sum numeric noise of up
// to ±pct percent of the column's value range to the named column: the
// column total is preserved exactly for floats and up to rounding for
// ints, so aggregate reports keep their shape while individual values are
// masked (Verykios et al. [13]).
func PerturbColumn(t *relation.Table, col string, pct int, seed int64) (*relation.Table, error) {
	t, err := t.Materialize() // reads rows
	if err != nil {
		return nil, err
	}
	ci := t.Schema.Index(col)
	if ci < 0 {
		return nil, colErr(t, col)
	}
	// Compute value range for noise scaling.
	var lo, hi float64
	first := true
	for _, r := range t.Rows {
		f, ok := r[ci].AsFloat()
		if !ok {
			continue
		}
		if first {
			lo, hi = f, f
			first = false
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	scale := (hi - lo) * float64(pct) / 100
	rng := rand.New(rand.NewSource(seed))
	noise := make([]float64, len(t.Rows))
	var sum float64
	n := 0
	for i, r := range t.Rows {
		if _, ok := r[ci].AsFloat(); !ok {
			continue
		}
		noise[i] = (rng.Float64()*2 - 1) * scale
		sum += noise[i]
		n++
	}
	if n > 0 {
		mean := sum / float64(n)
		for i := range noise {
			noise[i] -= mean // zero-sum correction preserves the total
		}
	}
	i := -1
	return mapColumn(t, col, t.Schema.Columns[ci].Type, func(v relation.Value) relation.Value {
		i++
		f, ok := v.AsFloat()
		if !ok {
			return v
		}
		perturbed := f + noise[i]
		if v.Kind == relation.TInt {
			return relation.Int(int64(perturbed + 0.5))
		}
		return relation.Float(perturbed)
	})
}

// mapColumn applies fn to every value of the named column, returning a new
// table with preserved lineage and origins. newType of TNull keeps the
// original column type.
func mapColumn(t *relation.Table, col string, newType relation.Type, fn func(relation.Value) relation.Value) (*relation.Table, error) {
	ci := t.Schema.Index(col)
	if ci < 0 {
		return nil, colErr(t, col)
	}
	out, err := relation.MapColumn(t, ci, func(_ int, v relation.Value) (relation.Value, error) { return fn(v), nil })
	if err != nil {
		return nil, err
	}
	if newType != relation.TNull {
		out.Schema.Columns[ci].Type = newType
	}
	return out, nil
}

func colErr(t *relation.Table, col string) error {
	return &UnknownColumnError{Table: t.Name, Column: col}
}

// UnknownColumnError reports a reference to a missing column.
type UnknownColumnError struct {
	Table  string
	Column string
}

// Error implements error.
func (e *UnknownColumnError) Error() string {
	return "anon: unknown column " + e.Column + " in table " + e.Table
}
