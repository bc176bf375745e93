package sql

import (
	"fmt"
	"sync"
	"testing"

	"plabi/internal/relation"
)

// version returns base table name with one row per key 0..n-1, each
// holding col = val.
func version(name, col string, n int, val int64) *relation.Table {
	t := relation.NewBase(name, relation.NewSchema(relation.Col("k", relation.TInt), relation.Col(col, relation.TInt)))
	for k := 0; k < n; k++ {
		t.AppendVals(relation.Int(int64(k)), relation.Int(val))
	}
	return t
}

// TestSnapshotIsImmutable: what a snapshot answers — its tables, its views,
// what a query over them returns, its generation — is fixed when it is
// taken. Register, Refresh, RegisterView and DropView publish later
// snapshots and leave it as it was.
func TestSnapshotIsImmutable(t *testing.T) {
	c := NewCatalog()
	c.Register(version("a", "v", 3, 1))
	if _, err := c.Run("CREATE VIEW wide AS SELECT k, v FROM a WHERE k > 0"); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	answers := func() string {
		a, ok := snap.Table("a")
		if !ok {
			return "no table a"
		}
		out := fmt.Sprint(a, snap.TableNames(), snap.ViewNames(), snap.Generation())
		for _, q := range []string{"SELECT k, v FROM a", "SELECT k, v FROM wide"} {
			sel, err := ParseSelect(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := snap.Exec(sel)
			out += fmt.Sprint(res, err)
		}
		return out
	}
	before := answers()

	c.Register(version("a", "v", 5, 2), version("b", "w", 1, 2))
	c.Refresh(version("a", "v", 7, 3))
	sel, err := ParseSelect("SELECT k, w FROM b")
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterView("wide", sel)
	c.DropView("wide")

	if after := answers(); after != before {
		t.Errorf("a snapshot's answers changed after later commits:\n%s\nwere:\n%s", after, before)
	}
	if a, _ := c.Table("a"); a.NumRows() != 7 {
		t.Errorf("the catalog's current a has %d rows, want the refreshed version's 7", a.NumRows())
	}
	if _, ok := c.Snapshot().View("wide"); ok {
		t.Error("the dropped view is still in the catalog")
	}
}

// TestRefreshMovesGenerationOnlyForNewHeaders: Register always moves the
// generation; Refresh moves it only for a name that is new or whose header
// changes, so cached plans outlive a new version of a table.
func TestRefreshMovesGenerationOnlyForNewHeaders(t *testing.T) {
	c := NewCatalog()
	gen := func() uint64 { return c.Snapshot().Generation() }
	c.Register(version("a", "v", 3, 1))
	g := gen()
	if c.Refresh(version("a", "v", 4, 2)); gen() != g {
		t.Errorf("a new version with the same header moved the generation %d -> %d", g, gen())
	}
	for _, next := range []*relation.Table{
		version("b", "w", 1, 1),                       // a new name
		version("a", "x", 4, 2),                       // another schema
		relation.Rename(version("z", "x", 4, 2), "a"), // derived, not base
		relation.Rename(version("y", "x", 4, 2), "a"), // other column origins
		rowsAlsoFrom(t, version("y", "x", 4, 2), "q"), // rows derived from q too
	} {
		g = gen()
		if c.Refresh(next); gen() == g {
			t.Errorf("Refresh of %s %s left the generation at %d", next.Name, next.Schema, g)
		}
	}
	g = gen()
	if c.Register(version("a", "x", 4, 2)); gen() == g {
		t.Error("Register of an unchanged header left the generation where it was")
	}
}

// TestTwoTableCommitIsAtomic: one commit publishes new versions of two
// tables; a join racing the commits reads both versions from the commit
// that made them, never one table's new version beside the other's old one.
func TestTwoTableCommitIsAtomic(t *testing.T) {
	c := NewCatalog()
	c.Register(version("a", "v", 8, 0), version("b", "w", 8, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := c.Query("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k")
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < res.NumRows(); i++ {
					if v, w := res.Get(i, "v"), res.Get(i, "w"); v.I != w.I {
						t.Errorf("a join read a at version %d beside b at version %d", v.I, w.I)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := int64(1); i <= 200; i++ {
		if i%2 == 0 {
			c.Register(version("a", "v", 8, i), version("b", "w", 8, i))
		} else {
			c.Refresh(version("b", "w", 8, i), version("a", "v", 8, i))
		}
	}
	close(done)
	wg.Wait()
}

// rowsAlsoFrom returns, as table a, y's columns of y joined with a base
// table q on k: y's header, but every row also derives from q.
func rowsAlsoFrom(t *testing.T, y *relation.Table, q string) *relation.Table {
	t.Helper()
	j, err := relation.Join(relation.Rename(y, "l"), relation.Rename(version(q, "z", 4, 1), "r"),
		relation.Eq(relation.ColRefExpr("l.k"), relation.ColRefExpr("r.k")), relation.InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	out, err := relation.ProjectCols(j, "l.k", "l.x")
	if err != nil {
		t.Fatal(err)
	}
	out = relation.Rename(out, "a")
	if out.Schema.String() != relation.Rename(y, "a").Schema.String() {
		t.Fatalf("header %s, want %s", out.Schema, relation.Rename(y, "a").Schema)
	}
	return out
}
