// Package metadata implements the paper's source-level privacy metadata
// (§3, Fig. 2b): privacy information kept in tables completely separate
// from the data, bound to data rows either extensionally (a policies table
// joined on a key, as in the paper's Policies example) or intensionally —
// via generic predicates, so that a newly inserted row satisfying the
// predicate is automatically covered with no further registration
// (cf. Srivastava & Velegrakis, SIGMOD 2007 [21]).
package metadata

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"plabi/internal/relation"
)

// Association intensionally binds metadata to the rows of a data table
// that satisfy a predicate.
type Association struct {
	// Name identifies the association.
	Name string
	// Data is the data table the association ranges over.
	Data string
	// When selects the associated rows; nil associates every row.
	When relation.Expr
	// Metadata is the arbitrary payload attached to matching rows.
	Metadata map[string]relation.Value
	// PLARef optionally links the association to a PLA id.
	PLARef string
}

// Matches evaluates the association's predicate on one row.
func (a *Association) Matches(t *relation.Table, row int) (bool, error) {
	if !strings.EqualFold(a.Data, t.Name) {
		return false, nil
	}
	if a.When == nil {
		return true, nil
	}
	return relation.EvalPredicate(a.When, t.Row(row), t.Schema)
}

// Store holds intensional associations and extensional keyed-policy
// lookups. It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	assocs []*Association
	keyed  []*KeyedMetadata
}

// NewStore returns an empty metadata store.
func NewStore() *Store { return &Store{} }

// AddAssociation registers an intensional association.
func (s *Store) AddAssociation(a *Association) error {
	if a.Name == "" || a.Data == "" {
		return fmt.Errorf("metadata: association needs a name and a data table")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.assocs {
		if e.Name == a.Name {
			return fmt.Errorf("metadata: duplicate association %q", a.Name)
		}
	}
	s.assocs = append(s.assocs, a)
	return nil
}

// KeyedMetadata binds a separate metadata table to data rows by joining a
// key column — the paper's extensional Policies table (Fig. 2b): one
// metadata row per patient.
type KeyedMetadata struct {
	// Name identifies the binding.
	Name string
	// Data is the data table; DataKey its join column.
	Data    string
	DataKey string
	// Meta is the metadata table; MetaKey its join column.
	Meta    *relation.Table
	MetaKey string
}

// AddKeyed registers an extensional keyed-metadata binding.
func (s *Store) AddKeyed(k *KeyedMetadata) error {
	if k.Meta == nil || k.Meta.Schema.Index(k.MetaKey) < 0 {
		return fmt.Errorf("metadata: keyed binding %q: bad metadata key %q", k.Name, k.MetaKey)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyed = append(s.keyed, k)
	return nil
}

// Tag is one piece of metadata attached to a row, with its origin.
type Tag struct {
	Source string // association or binding name
	PLARef string
	Key    string
	Value  relation.Value
}

// RowMetadata computes all metadata attached to row i of t: intensional
// associations whose predicate holds, plus keyed rows from extensional
// bindings. Tags are returned sorted by (source, key) for determinism.
func (s *Store) RowMetadata(t *relation.Table, i int) ([]Tag, error) {
	if i < 0 || i >= t.NumRows() {
		return nil, fmt.Errorf("metadata: row %d out of range", i)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var tags []Tag
	for _, a := range s.assocs {
		ok, err := a.Matches(t, i)
		if err != nil {
			return nil, fmt.Errorf("metadata: association %q: %w", a.Name, err)
		}
		if !ok {
			continue
		}
		for k, v := range a.Metadata {
			tags = append(tags, Tag{Source: a.Name, PLARef: a.PLARef, Key: k, Value: v})
		}
		if len(a.Metadata) == 0 {
			tags = append(tags, Tag{Source: a.Name, PLARef: a.PLARef})
		}
	}
	for _, k := range s.keyed {
		if !strings.EqualFold(k.Data, t.Name) {
			continue
		}
		di := t.Schema.Index(k.DataKey)
		if di < 0 {
			continue
		}
		key, _ := t.ValueAt(i, di)
		if key.IsNull() {
			continue
		}
		mi := k.Meta.Schema.Index(k.MetaKey)
		for r := 0; r < k.Meta.NumRows(); r++ {
			meta := k.Meta.Row(r)
			if !meta[mi].Equal(key) {
				continue
			}
			for c, col := range k.Meta.Schema.Columns {
				if c == mi {
					continue
				}
				tags = append(tags, Tag{Source: k.Name, Key: col.Name, Value: meta[c]})
			}
		}
	}
	sort.Slice(tags, func(a, b int) bool {
		if tags[a].Source != tags[b].Source {
			return tags[a].Source < tags[b].Source
		}
		return tags[a].Key < tags[b].Key
	})
	return tags, nil
}

// Lookup returns the value of one metadata key for a row, and whether any
// binding supplied it. When several bindings supply the same key, the
// most restrictive boolean wins (false beats true); otherwise the first in
// sort order is returned.
func (s *Store) Lookup(t *relation.Table, i int, key string) (relation.Value, bool, error) {
	tags, err := s.RowMetadata(t, i)
	if err != nil {
		return relation.Null(), false, err
	}
	var out relation.Value
	found := false
	for _, tag := range tags {
		if !strings.EqualFold(tag.Key, key) {
			continue
		}
		if !found {
			out = tag.Value
			found = true
			continue
		}
		if tag.Value.Kind == relation.TBool && out.Kind == relation.TBool && !tag.Value.B {
			out = tag.Value
		}
	}
	return out, found, nil
}

// MatchingRows returns the data rows of t covered by the named
// association — the "which rows does this policy govern" view used in
// elicitation discussions.
func (s *Store) MatchingRows(t *relation.Table, name string) ([]int, error) {
	s.mu.RLock()
	var assoc *Association
	for _, a := range s.assocs {
		if a.Name == name {
			assoc = a
			break
		}
	}
	s.mu.RUnlock()
	if assoc == nil {
		return nil, fmt.Errorf("metadata: unknown association %q", name)
	}
	var rows []int
	for i := 0; i < t.NumRows(); i++ {
		ok, err := assoc.Matches(t, i)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, i)
		}
	}
	return rows, nil
}
