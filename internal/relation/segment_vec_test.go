package relation

// segment_vec_test.go holds what pins the per-column vector decode of
// segment batches: the new decoder against the old one (segment_ref_test.go)
// on every encoding, the operators over a spilled table against the same
// operators in memory, the fail-closed behaviour that lazy decoding must
// not weaken, the header identity check, and an allocation budget.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"plabi/internal/obs"
)

// segReframe parses a segment file, lets mutate change the header and the
// column blocks, and frames the result again with fresh checksums — the way
// to build a file that is wrong under valid CRCs.
func segReframe(tb testing.TB, data []byte, mutate func(h *segHeader, blocks [][]byte) [][]byte) []byte {
	tb.Helper()
	h, blocks, err := parseSegment(data)
	if err != nil {
		tb.Fatal(err)
	}
	for i, b := range blocks {
		blocks[i] = append([]byte(nil), b...)
	}
	blocks = mutate(h, blocks)
	hb, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), segMagic...)
	out = appendU32(out, uint32(len(hb)))
	out = append(out, hb...)
	out = appendU32(out, crc32.ChecksumIEEE(hb))
	for _, b := range blocks {
		out = appendU32(out, uint32(len(b)))
		out = append(out, b...)
		out = appendU32(out, crc32.ChecksumIEEE(b))
	}
	return out
}

// rewritePart applies segReframe to partition pi of a spilled table, in
// place, and forgets whatever the backing had cached.
func rewritePart(t *testing.T, seg *Table, pi int, mutate func(h *segHeader, blocks [][]byte) [][]byte) {
	t.Helper()
	path := seg.seg.parts[pi].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, segReframe(t, data, mutate), 0o644); err != nil {
		t.Fatal(err)
	}
	seg.seg.cache.all, seg.seg.cache.lastPart, seg.seg.cache.last = nil, -1, nil
}

// badDictCode points the first non-null cell of string column ci one past
// its dictionary.
func badDictCode(ci, rows int) func(*segHeader, [][]byte) [][]byte {
	return func(h *segHeader, blocks [][]byte) [][]byte {
		if h.Cols[ci].Enc != encString {
			panic("badDictCode: not a dictionary column")
		}
		b := blocks[ci]
		codes := b[len(b)-4*rows:]
		for i := 0; i < rows; i++ {
			if c := codes[4*i : 4*i+4]; c[0]|c[1]|c[2]|c[3] != 0 {
				copy(c, []byte{0xff, 0xff, 0xff, 0x7f})
				return blocks
			}
		}
		panic("badDictCode: all-null column")
	}
}

// encodingsTable builds n rows over one column per block shape: every
// typed encoding with and without NULLs (floats including NaN, ±Inf and
// -0, strings including "" and repeats), a mixed-kind generic column and
// an all-null one. One time in three the table is derived, with explicit
// multi-ref lineage and column origins.
func encodingsTable(rng *rand.Rand, name string, n int) *Table {
	kinds := []Type{TInt, TFloat, TString, TBool, TDate}
	var cols []Column
	for _, k := range kinds {
		cols = append(cols, Col(k.String(), k), Col(k.String()+"_null", k))
	}
	cols = append(cols, Col("mixed", TString), Col("allnull", TInt))
	tab := NewBase(name, NewSchema(cols...))
	notNull := func(k Type) Value {
		for {
			if v := randValue(rng, k); !v.IsNull() {
				return v
			}
		}
	}
	for r := 0; r < n; r++ {
		row := make(Row, 0, len(cols))
		for _, k := range kinds {
			row = append(row, notNull(k), randValue(rng, k))
		}
		row = append(row, randValue(rng, kinds[rng.Intn(len(kinds))]), Null())
		tab.Rows = append(tab.Rows, row)
	}
	if n > 0 { // randValue's float pool has NaN and +Inf but no -Inf
		tab.Rows[n-1][tab.Schema.Index("float")] = Float(math.Inf(-1))
	}
	if rng.Intn(3) == 0 {
		deriveSynthetic(rng, tab)
	}
	return tab
}

// TestVectorDecodeMatchesReference is the decoder property: over random
// tables of every encoding — zero rows, one row, a partition boundary at 1
// and at partRows — every cell of every decoded vector equals the reference
// row decode of the same file, and every operator that reads a spilled
// table emits what it emits over the in-memory one, lineage and origins
// included.
func TestVectorDecodeMatchesReference(t *testing.T) {
	const partRows = 8
	sizes := []int{0, 1, partRows - 1, partRows, partRows + 1, 3*partRows + 2}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 18000))
		n := sizes[int(seed)%len(sizes)]
		pr := partRows
		if seed%4 == 3 {
			pr = 1
		}
		mem := encodingsTable(rng, "enc", n)
		seg, _ := segSpill(t, mem, pr)
		label := fmt.Sprintf("seed=%d rows=%d partRows=%d", seed, n, pr)

		for _, p := range seg.seg.parts {
			data, err := os.ReadFile(p.path)
			if err != nil {
				t.Fatal(err)
			}
			h, blocks, err := parseSegment(data)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for ci, block := range blocks {
				want, err := decodeColumn(block, ci, h.Cols[ci].Enc, h.Rows)
				if err != nil {
					t.Fatalf("%s: reference decode of column %d: %v", label, ci, err)
				}
				vec, err := decodeVector(block, ci, h.Cols[ci].Enc, h.Rows)
				if err != nil {
					t.Fatalf("%s: vector decode of column %d: %v", label, ci, err)
				}
				if vec.Len() != len(want) {
					t.Fatalf("%s: column %d has %d cells, want %d", label, ci, vec.Len(), len(want))
				}
				for i, w := range want {
					if got := vec.Value(i); !sameRow(Row{got}, Row{w}) || vec.IsNull(i) != w.IsNull() {
						t.Fatalf("%s: column %d (%s, enc %d) cell %d = %v (null=%v), want %v",
							label, ci, h.Cols[ci].Name, h.Cols[ci].Enc, i, got, vec.IsNull(i), w)
					}
				}
			}
		}

		other := randTable(rng, "u", 2, rng.Intn(12))
		onStr := Eq(ColRefExpr("string"), ColRefExpr(other.Schema.Columns[0].Name))
		aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "float_null"}, {Kind: AggAvg, Col: "int"},
			{Kind: AggMin, Col: "date_null"}, {Kind: AggMax, Col: "mixed"}, {Kind: AggCountDistinct, Col: "bool_null"}}
		ops := map[string]func(*Table) (*Table, error){
			"select kernel": func(x *Table) (*Table, error) { return Select(x, ColEqStr("string_null", "a")) },
			"select fallback": func(x *Table) (*Table, error) {
				return Select(x, Bin(OpGt, Bin(OpAdd, ColRefExpr("int"), Lit(Int(1))), Lit(Int(0))))
			},
			"select random": func(x *Table) (*Table, error) {
				return Select(x, randPredicate(rand.New(rand.NewSource(seed)), mem.Schema, 2))
			},
			"groupby string": func(x *Table) (*Table, error) { return GroupBy(x, []string{"string"}, aggs) },
			"groupby 3 keys": func(x *Table) (*Table, error) { return GroupBy(x, []string{"mixed", "bool", "date_null"}, aggs) },
			"groupby no key": func(x *Table) (*Table, error) { return GroupBy(x, nil, aggs) },
			"join left":      func(x *Table) (*Table, error) { return Join(x, other, onStr, LeftJoin) },
			"join right":     func(x *Table) (*Table, error) { return Join(other, x, onStr, InnerJoin) },
			"materialize":    func(x *Table) (*Table, error) { return Rename(x, "m").Materialize() },
		}
		for name, op := range ops {
			want, wantErr := op(mem)
			got, gotErr := op(seg)
			requireSameOutcome(t, label+" "+name, got, want, gotErr, wantErr)
		}
		for ri := -1; ri <= n; ri++ {
			for ci := 0; ci <= mem.Schema.Len(); ci++ {
				want, _ := mem.ValueAt(ri, ci)
				got, err := seg.ValueAt(ri, ci)
				if err != nil || !sameRow(Row{got}, Row{want}) {
					t.Fatalf("%s: ValueAt(%d, %d) = %v, %v; want %v", label, ri, ci, got, err, want)
				}
			}
		}
	}
}

// wideSegTable spills a 12-column table of n rows at partRows per
// partition: the shape of the integrated warehouse table a report reads
// one or two columns of.
func wideSegTable(t *testing.T, n, partRows int) (mem, seg *Table, store *SegmentStore) {
	t.Helper()
	cols := []Column{Col("drug", TString), Col("patient", TString)}
	for c := 2; c < 12; c++ {
		cols = append(cols, Col(fmt.Sprintf("c%d", c), []Type{TInt, TFloat, TString, TDate}[c%4]))
	}
	mem = NewBase("wide", NewSchema(cols...))
	for r := 0; r < n; r++ {
		row := Row{Str(fmt.Sprintf("drug-%02d", r%25)), Str(fmt.Sprintf("patient-%05d", r%997))}
		for c := 2; c < 12; c++ {
			switch c % 4 {
			case 0:
				row = append(row, Int(int64(r*c)))
			case 1:
				row = append(row, Float(float64(r)/float64(c)))
			case 2:
				row = append(row, Str(fmt.Sprintf("v%d-%d", c, r%113)))
			default:
				row = append(row, DateYMD(2007, time.Month(1+r%12), 1+r%28))
			}
		}
		mem.Rows = append(mem.Rows, row)
	}
	seg, store = segSpill(t, mem, partRows)
	store.SetScanWorkers(1)
	return mem, seg, store
}

// TestSegmentUnreadColumnsStillFailClosed pins the two halves of the
// failure model. A partition is verified whole on every read, so a bit
// flipped in a block the query never decodes still fails it. A block that
// is wrong under a valid checksum is caught when its column is decoded, as
// a *CorruptError naming the file — from the scan operators and from
// ValueAt alike, never a panic or a shortened result.
func TestSegmentUnreadColumnsStillFailClosed(t *testing.T) {
	_, seg, _ := wideSegTable(t, 40, 16)
	count := []AggSpec{{Kind: AggCount}}
	if _, err := GroupBy(seg, []string{"drug"}, count); err != nil {
		t.Fatal(err)
	}

	path := seg.seg.parts[1].path
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), orig...)
	flipped[len(flipped)-9] ^= 0x04 // inside the last column's block; the query reads the first
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GroupBy(seg, []string{"drug"}, count); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("bit flip in an unread block: GroupBy err = %v, want ErrSegmentCorrupt", err)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	seg.seg.store.SetMetrics(m)
	rewritePart(t, seg, 1, badDictCode(0, 16))
	readers := map[string]func() error{
		"GroupBy": func() error { _, err := GroupBy(seg, []string{"drug"}, count); return err },
		"Select":  func() error { _, err := Select(seg, ColEqStr("drug", "drug-03")); return err },
		"ValueAt": func() error { _, err := seg.ValueAt(20, 0); return err },
		"Join":    func() error { _, err := Join(seg, seg, Eq(ColRefExpr("c2"), ColRefExpr("c4")), InnerJoin); return err },
		"Materialize": func() error {
			_, err := seg.Materialize()
			return err
		},
	}
	for _, workers := range []int{1, 3} {
		seg.seg.store.SetScanWorkers(workers)
		for name, read := range readers {
			err := read()
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Path != path {
				t.Errorf("%s (%d workers) over an out-of-range dictionary code: err = %v, want *CorruptError for %s", name, workers, err, path)
			}
		}
	}
	if m.Counter("segment.read.errors").Value() == 0 {
		t.Error("segment.read.errors did not advance")
	}
	// The damage is confined to what reads it: another column of the same
	// partition, and the same column of another partition, still read.
	if v, err := seg.ValueAt(20, 1); err != nil || v.S != "patient-00020" {
		t.Errorf("ValueAt of an intact column = %v, %v", v, err)
	}
	if v, err := seg.ValueAt(3, 0); err != nil || v.S != "drug-03" {
		t.Errorf("ValueAt in an intact partition = %v, %v", v, err)
	}
}

// TestSegmentHeaderIdentity is the regression for a well-formed partition
// file in the wrong place. Positional lineage says row i of partition p is
// origin#(p.start+i); a file accepted on its row count alone attaches
// thresholds and provenance evidence to the wrong rows.
func TestSegmentHeaderIdentity(t *testing.T) {
	newTab := func(name string, base int64) *Table {
		tab := NewBase(name, NewSchema(Col("id", TInt), Col("tag", TString)))
		for i := int64(0); i < 16; i++ {
			tab.AppendVals(Int(base+i), Str("t"))
		}
		return tab
	}
	requireCorrupt := func(label string, seg *Table) {
		t.Helper()
		seg.seg.cache.all, seg.seg.cache.lastPart = nil, -1
		for name, read := range map[string]func() error{
			"Materialize": func() error { _, err := seg.Materialize(); return err },
			"GroupBy":     func() error { _, err := GroupBy(seg, []string{"tag"}, []AggSpec{{Kind: AggCount}}); return err },
			"ValueAt":     func() error { _, err := seg.ValueAt(0, 0); return err },
		} {
			var ce *CorruptError
			if err := read(); !errors.As(err, &ce) || ce.Path == "" {
				t.Errorf("%s: %s err = %v, want *CorruptError", label, name, err)
			}
		}
	}

	// Two partitions of one table, swapped: equal row counts, so only
	// the partition index and start row tell them apart.
	seg, _ := segSpill(t, newTab("origin", 0), 8)
	p0, p1 := seg.seg.parts[0].path, seg.seg.parts[1].path
	d0, _ := os.ReadFile(p0)
	d1, _ := os.ReadFile(p1)
	os.WriteFile(p0, d1, 0o644)
	os.WriteFile(p1, d0, 0o644)
	requireCorrupt("swapped partitions", seg)

	// The first partition of another table with the same shape.
	seg, _ = segSpill(t, newTab("origin", 0), 8)
	alien, _ := segSpill(t, newTab("other", 100), 8)
	da, _ := os.ReadFile(alien.seg.parts[0].path)
	os.WriteFile(seg.seg.parts[0].path, da, 0o644)
	requireCorrupt("segment of another table", seg)

	// A header that declares fewer columns than the schema, and one whose
	// column has another name: neither may reach an index expression.
	seg, _ = segSpill(t, newTab("origin", 0), 8)
	rewritePart(t, seg, 0, func(h *segHeader, blocks [][]byte) [][]byte {
		h.Cols = h.Cols[:1]
		return blocks[:1]
	})
	requireCorrupt("column-count mismatch", seg)
	seg, _ = segSpill(t, newTab("origin", 0), 8)
	rewritePart(t, seg, 0, func(h *segHeader, blocks [][]byte) [][]byte {
		h.Cols[1].Name = "label"
		return blocks
	})
	requireCorrupt("column-name mismatch", seg)

	// A rename reads the files under the name they were written with.
	seg, _ = segSpill(t, newTab("origin", 0), 8)
	if _, err := Rename(seg, "r").Materialize(); err != nil {
		t.Fatalf("renamed table: %v", err)
	}
}

// TestSegmentScanAllocationBudget holds the scan to what it reads. An
// aggregate over one string column of a spilled 12-column table allocates no
// more than the same aggregate over the table in memory plus a constant per
// partition: it decodes one column, builds no row, and reads into the
// buffers an earlier pass handed back. A bare scan pass allocates the file
// bytes plus a constant per partition — no row arena, no vector. (It
// allocates the file bytes because a read buffer is sized to its file and
// each partition here is a few bytes larger than the one before.)
//
// The passes run on one P. Read buffers are recycled through a sync.Pool,
// which is per P: after the collection each measurement starts with, the
// buffer one P handed back sits in that P's private victim slot, where a
// reader on another P cannot take it. The aggregate then reads every
// partition into a new buffer, and allocates the file bytes again on some
// runs and not on others. Under the race detector the pool drops a share of
// what is handed back at random, so there the aggregate may read into new
// buffers: the file bytes once more.
func TestSegmentScanAllocationBudget(t *testing.T) {
	const rows, partRows = 8192, 2048
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem, seg, _ := wideSegTable(t, rows, partRows)
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var fileBytes uint64
	for _, p := range seg.seg.parts {
		st, err := os.Stat(p.path)
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += uint64(st.Size())
	}
	groupBy := func(tab *Table) {
		out, err := GroupBy(tab, []string{"drug"}, []AggSpec{{Kind: AggCount}})
		if err != nil || out.NumRows() != 25 {
			t.Fatalf("GroupBy = %v rows, %v", out.NumRows(), err)
		}
	}

	scan := allocated(func() {
		sc := NewScanner(seg, nil)
		defer sc.Close()
		n := 0
		for {
			b, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			n += b.Len()
		}
		if n != rows {
			t.Fatalf("scanned %d rows, want %d", n, rows)
		}
	})
	group := allocated(func() { groupBy(seg) })
	inMem := allocated(func() { groupBy(mem) })
	t.Logf("file bytes %d; allocated: bare scan %d, GroupBy(drug) %d spilled and %d in memory", fileBytes, scan, group, inMem)
	perPart := uint64(32 << 10)
	parts := uint64(len(seg.seg.parts))
	if scan > fileBytes+perPart*parts {
		t.Errorf("bare scan allocated %d bytes for %d file bytes in %d partitions: something is decoded", scan, fileBytes, parts)
	}
	limit := inMem + perPart*parts
	if raceBuild() {
		limit += fileBytes
	}
	if group > limit {
		t.Errorf("GroupBy on one column allocated %d bytes spilled, %d in memory, over %d partitions: more than one column decoded, or the read buffers not reused", group, inMem, parts)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSegmentBatchLifetime pins what recycling the read buffers rests on:
// a vector decoded while the scan stood on its batch outlives the
// partition's bytes, and a column first asked for after the scan moved on
// is an error — not whatever a later read left in the buffer.
func TestSegmentBatchLifetime(t *testing.T) {
	mem, seg, _ := wideSegTable(t, 40, 16) // 3 partitions, read one at a time
	sc := NewScanner(seg, nil)
	defer sc.Close()
	first, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	drug, err := first.Col(0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if _, err := b.Col(1); err != nil { // read through the recycled bytes
			t.Fatal(err)
		}
	}
	for i := 0; i < first.Len(); i++ {
		if got, want := drug.Value(i), mem.Rows[i][0]; !got.Equal(want) {
			t.Fatalf("row %d of a vector decoded before the scan moved on = %v, want %v", i, got, want)
		}
	}
	if again, err := first.Col(0); err != nil || again != drug {
		t.Errorf("an extracted column asked for again = %p, %v; want %p", again, err, drug)
	}
	if v, err := first.Col(1); err == nil {
		t.Errorf("a column first asked for after the scan moved on = %v, want an error", v.Value(0))
	}
}

// TestSegmentColumnCounters pins the two counters that say how much of what
// was read was decoded, on each way a partition is read.
func TestSegmentColumnCounters(t *testing.T) {
	_, seg, store := wideSegTable(t, 40, 16) // 3 partitions of 12 columns
	m := obs.New()
	store.SetMetrics(m)
	delta := func(fn func()) (decoded, skipped uint64) {
		d0, s0 := m.Counter("segment.read.columns").Value(), m.Counter("segment.read.columns_skipped").Value()
		fn()
		return m.Counter("segment.read.columns").Value() - d0, m.Counter("segment.read.columns_skipped").Value() - s0
	}
	if d, s := delta(func() { GroupBy(seg, []string{"drug"}, []AggSpec{{Kind: AggSum, Col: "c4"}}) }); d != 6 || s != 30 {
		t.Errorf("GroupBy on 2 of 12 columns: decoded %d, skipped %d; want 6, 30", d, s)
	}
	if d, s := delta(func() { Select(seg, ColEqStr("drug", "drug-10")) }); d != 12+1+12 || s != 11 {
		// The middle partition's zone (drug-00..drug-24) admits drug-10 but
		// no row has it: the predicate's column is decoded and nothing else.
		t.Errorf("Select missing one partition: decoded %d, skipped %d; want 25, 11", d, s)
	}
	if d, s := delta(func() {
		sc := NewScanner(seg, nil)
		for b, _ := sc.Next(); b != nil; b, _ = sc.Next() {
		}
		sc.Close()
	}); d != 0 || s != 36 {
		t.Errorf("bare scan: decoded %d, skipped %d; want 0, 36", d, s)
	}
	if d, s := delta(func() {
		seg.ValueAt(0, 1)
		seg.ValueAt(1, 1)
		seg.ValueAt(17, 1) // moving on tallies the first partition
	}); d != 1 || s != 11 {
		t.Errorf("ValueAt: decoded %d, skipped %d; want 1, 11", d, s)
	}
	if d, s := delta(func() { seg.Materialize() }); d != 36 || s != 0 {
		t.Errorf("Materialize: decoded %d, skipped %d; want 36, 0", d, s)
	}
}
