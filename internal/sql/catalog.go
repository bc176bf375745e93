package sql

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"plabi/internal/relation"
)

// ErrUnknownTable is the sentinel wrapped by every "no such table or
// view" failure, so callers can errors.Is across the whole stack.
var ErrUnknownTable = errors.New("unknown table or view")

// Catalog is a thread-safe namespace of base tables and views against which
// statements execute. Its state is one immutable Snapshot, which each
// commit replaces with one atomic store.
type Catalog struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[Snapshot]
}

// Snapshot is one published state of a catalog: its tables, views and
// generation. Nothing writes it after it is published, so every read
// through it sees each table at the version one commit left it.
type Snapshot struct {
	gen    uint64
	tables map[string]*relation.Table
	views  map[string]*SelectStmt
}

// Source is what statements resolve names through: a Snapshot, or a
// Catalog, whose current snapshot each call loads.
type Source interface{ Snapshot() *Snapshot }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.snap.Store(&Snapshot{tables: map[string]*relation.Table{}, views: map[string]*SelectStmt{}})
	return c
}

// Snapshot returns the catalog's current snapshot.
func (c *Catalog) Snapshot() *Snapshot { return c.snap.Load() }

// Snapshot returns s itself.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// Generation returns a counter that moves on every Register, RegisterView
// and DropView, and on a Refresh that adds a name or changes a table's
// header (schema, column origins). Plan and decision caches key on it.
func (s *Snapshot) Generation() uint64 { return s.gen }

// commit publishes what edit makes of a copy of the current snapshot.
func (c *Catalog) commit(edit func(next *Snapshot)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snap.Load()
	next := &Snapshot{gen: cur.gen, tables: maps.Clone(cur.tables), views: maps.Clone(cur.views)}
	edit(next)
	c.snap.Store(next)
}

// Register adds or replaces tables in one snapshot, moving the generation
// for each. From here on they belong to the catalog's readers: each is
// frozen (see relation.Table.Freeze), and its cells and lineage must not
// be written again — a new version is a new table.
func (c *Catalog) Register(ts ...*relation.Table) { c.publish(ts, true) }

// Refresh is Register for new versions of tables, as a delta commits them:
// the generation moves only for a name that is new or whose header
// changes, so cached plans survive.
func (c *Catalog) Refresh(ts ...*relation.Table) { c.publish(ts, false) }

func (c *Catalog) publish(ts []*relation.Table, bump bool) {
	c.commit(func(s *Snapshot) {
		for _, t := range ts {
			t.Freeze()
			key := strings.ToLower(t.Name)
			if old, ok := s.tables[key]; bump || !ok || !sameHeader(old, t) {
				s.gen++
			}
			s.tables[key] = t
		}
	})
}

// sameHeader reports whether two versions of a table type every query over
// them alike, down to the base tables a profile finds them derived from.
func sameHeader(a, b *relation.Table) bool {
	return a.Base == b.Base && a.Schema.Equal(b.Schema) &&
		slices.EqualFunc(a.ColOrigin, b.ColOrigin, slices.Equal[relation.ColRefSet]) &&
		slices.Equal(a.BaseTables(), b.BaseTables())
}

// RegisterView adds or replaces a named view.
func (c *Catalog) RegisterView(name string, sel *SelectStmt) {
	c.commit(func(s *Snapshot) {
		s.views[strings.ToLower(name)] = sel
		s.gen++
	})
}

// DropView removes a view if present.
func (c *Catalog) DropView(name string) {
	c.commit(func(s *Snapshot) {
		delete(s.views, strings.ToLower(name))
		s.gen++
	})
}

// Table returns the base table with the given name.
func (s *Snapshot) Table(name string) (*relation.Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// Table returns the current snapshot's table with the given name.
func (c *Catalog) Table(name string) (*relation.Table, bool) { return c.Snapshot().Table(name) }

// View returns the view definition with the given name.
func (s *Snapshot) View(name string) (*SelectStmt, bool) {
	v, ok := s.views[strings.ToLower(name)]
	return v, ok
}

// TableNames returns the sorted base-table names.
func (s *Snapshot) TableNames() []string { return sortedKeys(s.tables) }

// TableNames returns the current snapshot's sorted base-table names.
func (c *Catalog) TableNames() []string { return c.Snapshot().TableNames() }

// ViewNames returns the sorted view names.
func (s *Snapshot) ViewNames() []string { return sortedKeys(s.views) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolve returns the relation for a FROM-clause name: a base table
// directly (its rowless shell when only the header is wanted), or the
// materialization of a view. Views may reference other views; cycles are
// detected.
func (s *Snapshot) resolve(name string, seen map[string]bool, header bool) (*relation.Table, error) {
	key := strings.ToLower(name)
	if t, ok := s.tables[key]; ok {
		if header {
			return t.Shell(), nil
		}
		return t, nil
	}
	if v, ok := s.views[key]; ok {
		if seen[key] {
			return nil, fmt.Errorf("sql: view cycle through %q", name)
		}
		seen[key] = true
		t, err := s.exec(v, seen, header)
		if err != nil {
			return nil, fmt.Errorf("sql: view %q: %w", name, err)
		}
		seen[key] = false
		t.Name = key
		return t, nil
	}
	return nil, fmt.Errorf("sql: %w %q", ErrUnknownTable, name)
}

// Exec executes a SELECT over the snapshot and returns its result.
func (s *Snapshot) Exec(sel *SelectStmt) (*relation.Table, error) {
	return s.exec(sel, map[string]bool{}, false)
}

// Exec executes a statement. SELECT returns its result table, read from
// one snapshot; CREATE VIEW registers the view and returns nil.
func (c *Catalog) Exec(stmt Statement) (*relation.Table, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return c.Snapshot().Exec(s)
	case *CreateViewStmt:
		c.RegisterView(s.Name, s.Select)
		return nil, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

// Header returns what Exec's result would carry besides its rows — name,
// schema, column origins — without reading any: the same executor runs
// over the rowless shells of the base tables, so every operator types its
// output exactly as it does over data, and a definition error (unknown
// table or column, non-grouped column, view cycle) is Exec's.
func (s *Snapshot) Header(sel *SelectStmt) (*relation.Table, error) {
	t, err := s.exec(sel, map[string]bool{}, true)
	if err != nil {
		return nil, err
	}
	// An aggregate without GROUP BY emits its one row over empty input too.
	return t.Shell(), nil
}

// Query parses and executes a SELECT, returning its result.
func (c *Catalog) Query(src string) (*relation.Table, error) {
	sel, err := ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return c.Snapshot().Exec(sel)
}

// Run parses and executes any statement.
func (c *Catalog) Run(src string) (*relation.Table, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Exec(stmt)
}
