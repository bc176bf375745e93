package sql

import (
	"errors"
	"fmt"
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
// statements execute.
type Catalog struct {
	mu     sync.RWMutex
	gen    atomic.Uint64
	tables map[string]*relation.Table
	views  map[string]*SelectStmt
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: map[string]*relation.Table{},
		views:  map[string]*SelectStmt{},
	}
}

// Generation returns a counter that increases on every catalog mutation
// (table or view registration/removal). Plan and decision caches key on it
// to invalidate when the schema landscape changes.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// Register adds or replaces a base table under its own name. From here on
// the table belongs to the catalog's readers: it is frozen (stored as
// column vectors, with what queries derive from it kept beside it, see
// relation.Table.Freeze), and its cells and lineage must not be written
// again — a new version is a new table, handed to Register or Refresh.
func (c *Catalog) Register(t *relation.Table) {
	t.Freeze()
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	c.tables[key] = t
	c.gen.Add(1)
}

// Refresh replaces the data of an already-registered table with a new
// version of the same relation (same name, same schema) without moving the
// global generation. Incremental ETL uses it to commit a delta: cached
// plans survive, and the next render reads the new version's resident
// columns. Like Register it freezes t, which must not be written afterwards.
func (c *Catalog) Refresh(t *relation.Table) error {
	t.Freeze()
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	old, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("sql: refresh of unregistered table %q", t.Name)
	}
	if !old.Schema.Equal(t.Schema) {
		return fmt.Errorf("sql: refresh of %q changes schema (%s -> %s); use Register", t.Name, old.Schema, t.Schema)
	}
	c.tables[key] = t
	return nil
}

// RegisterView adds or replaces a named view.
func (c *Catalog) RegisterView(name string, sel *SelectStmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.views[strings.ToLower(name)] = sel
	c.gen.Add(1)
}

// DropView removes a view if present.
func (c *Catalog) DropView(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.views, strings.ToLower(name))
	c.gen.Add(1)
}

// Table returns the base table with the given name.
func (c *Catalog) Table(name string) (*relation.Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// View returns the view definition with the given name.
func (c *Catalog) View(name string) (*SelectStmt, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[strings.ToLower(name)]
	return v, ok
}

// TableNames returns the sorted base-table names.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ViewNames returns the sorted view names.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.views))
	for n := range c.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolve returns the relation for a FROM-clause name: a base table
// directly (its rowless shell when only the header is wanted), or the
// materialization of a view. Views may reference other views; cycles are
// detected.
func (c *Catalog) resolve(name string, seen map[string]bool, header bool) (*relation.Table, error) {
	key := strings.ToLower(name)
	if t, ok := c.Table(key); ok {
		if header {
			return t.Shell(), nil
		}
		return t, nil
	}
	if v, ok := c.View(key); ok {
		if seen[key] {
			return nil, fmt.Errorf("sql: view cycle through %q", name)
		}
		seen[key] = true
		t, err := c.exec(v, seen, header)
		if err != nil {
			return nil, fmt.Errorf("sql: view %q: %w", name, err)
		}
		seen[key] = false
		t.Name = key
		return t, nil
	}
	return nil, fmt.Errorf("sql: %w %q", ErrUnknownTable, name)
}

// Exec executes a statement. SELECT returns its result table; CREATE VIEW
// registers the view and returns nil.
func (c *Catalog) Exec(stmt Statement) (*relation.Table, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return c.exec(s, map[string]bool{}, false)
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
func (c *Catalog) Header(sel *SelectStmt) (*relation.Table, error) {
	t, err := c.exec(sel, map[string]bool{}, true)
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
	return c.exec(sel, map[string]bool{}, false)
}

// Run parses and executes any statement.
func (c *Catalog) Run(src string) (*relation.Table, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Exec(stmt)
}
