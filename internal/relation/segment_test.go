package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plabi/internal/fault"
	"plabi/internal/obs"
)

// segSpill writes tab into a fresh store with the given partition size
// and returns the segment-backed view plus its store.
func segSpill(t *testing.T, tab *Table, partRows int) (*Table, *SegmentStore) {
	t.Helper()
	store := NewSegmentStore(t.TempDir())
	store.SetPartitionRows(partRows)
	seg, err := store.Spill(tab)
	if err != nil {
		t.Fatal(err)
	}
	return seg, store
}

// typesFixture covers every encoding: typed columns of each kind,
// null-bearing columns, an all-null column, a mixed-kind column and
// float edge values (NaN, ±Inf, -0) that the zone maps must refuse.
func typesFixture() *Table {
	tab := NewBase("alltypes", NewSchema(
		Col("s", TString),
		Col("i", TInt),
		Col("f", TFloat),
		Col("b", TBool),
		Col("d", TDate),
		Col("allnull", TString),
		Col("mixed", TString),
	))
	tab.AppendVals(Str(""), Int(-3), Float(math.NaN()), Bool(true), DateYMD(2007, 2, 12), Null(), Str("x"))
	tab.AppendVals(Str("alice"), Int(0), Float(math.Inf(1)), Bool(false), DateYMD(2008, 4, 15), Null(), Int(7))
	tab.AppendVals(Null(), Null(), Null(), Null(), Null(), Null(), Null())
	tab.AppendVals(Str("alice"), Int(42), Float(math.Copysign(0, -1)), Bool(true), DateYMD(2007, 10, 15), Null(), Float(1.5))
	tab.AppendVals(Str("bob"), Int(7), Float(-2.25), Bool(false), DateYMD(2007, 3, 10), Null(), Bool(true))
	return tab
}

func TestSegmentRoundTripAllTypes(t *testing.T) {
	tab := typesFixture()
	for _, partRows := range []int{1, 2, 5, 100} {
		seg, _ := segSpill(t, tab, partRows)
		if seg.NumRows() != tab.NumRows() {
			t.Fatalf("partRows=%d: NumRows=%d, want %d", partRows, seg.NumRows(), tab.NumRows())
		}
		mt, err := seg.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for i := range tab.Rows {
			if !sameRow(mt.Rows[i], tab.Rows[i]) {
				t.Fatalf("partRows=%d row %d: got %v want %v", partRows, i, mt.Rows[i], tab.Rows[i])
			}
		}
	}
}

func TestSegmentRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 7000))
		tab := randTable(rng, "rt", 2+rng.Intn(4), rng.Intn(60))
		seg, _ := segSpill(t, tab, 1+rng.Intn(9))
		mt, err := seg.Materialize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameTable(t, fmt.Sprintf("roundtrip seed=%d", seed), mt, tab)
	}
}

func TestSegmentWriterPartitionBoundaries(t *testing.T) {
	tab := NewBase("n", NewSchema(Col("id", TInt)))
	for i := 0; i < 10; i++ {
		tab.AppendVals(Int(int64(i)))
	}
	seg, _ := segSpill(t, tab, 3)
	parts := seg.seg.parts
	if len(parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(parts))
	}
	wantStart := []int{0, 3, 6, 9}
	wantRows := []int{3, 3, 3, 1}
	for i, p := range parts {
		if p.start != wantStart[i] || p.rows != wantRows[i] {
			t.Errorf("part %d: start=%d rows=%d, want %d/%d", i, p.start, p.rows, wantStart[i], wantRows[i])
		}
	}
	// Point access across partitions, including the short tail.
	for i := 0; i < 10; i++ {
		if got := seg.Get(i, "id"); got.I != int64(i) {
			t.Errorf("Get(%d) = %v", i, got)
		}
	}
	if !seg.Get(10, "id").IsNull() || !seg.Get(-1, "id").IsNull() || !seg.Get(0, "nope").IsNull() {
		t.Error("out-of-range Get must be NULL")
	}
}

func TestSegmentSpillPreservesProvenance(t *testing.T) {
	p := prescriptionsFixture()
	der, err := Select(p, ColEqStr("disease", "HIV"))
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := segSpill(t, der, 1)
	if seg.Base {
		t.Error("spilled derived table must stay derived")
	}
	for i := 0; i < der.NumRows(); i++ {
		if got, want := seg.RowLineage(i), der.RowLineage(i); !got.Contains(want[0]) || len(got) != len(want) {
			t.Errorf("row %d lineage = %v, want %v", i, got, want)
		}
	}
	for c := range der.Schema.Columns {
		if got, want := seg.ColumnOrigin(c), der.ColumnOrigin(c); !got.Contains(want[0]) {
			t.Errorf("col %d origin = %v, want %v", c, got, want)
		}
	}
	// Spilling a base table keeps it base with implicit lineage.
	segBase, _ := segSpill(t, p, 2)
	if !segBase.Base {
		t.Error("spilled base table must stay base")
	}
	if got := segBase.RowLineage(3); !got.Contains(RowRef{"prescriptions", 3}) {
		t.Errorf("base lineage = %v", got)
	}
	// Already segment-backed: Spill is the identity.
	again, err := segBase.seg.store.Spill(segBase)
	if err != nil || again != segBase {
		t.Errorf("re-spill = (%p, %v), want identity", again, err)
	}
}

// TestSegmentOpsEquivalence is the load-bearing property: every operator
// over a segment-backed table must be byte-identical — rows, lineage,
// origins, errors — to the same operator over the in-memory original,
// and, where the operator has a row-at-a-time reference, to that too.
func TestSegmentOpsEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed + 9000))
		mem := randTable(rng, "t", 2+rng.Intn(3), rng.Intn(50))
		other := randTable(rng, "u", 2, rng.Intn(20))
		seg, _ := segSpill(t, mem, 1+rng.Intn(7))
		pred := randPredicate(rng, mem.Schema, rng.Intn(3))
		joinPred := Bin(OpEq, ColRefExpr(mem.Schema.Columns[0].Name), ColRefExpr(other.Schema.Columns[1].Name))
		aggs := []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Col: mem.Schema.Columns[1].Name},
			{Kind: AggMin, Col: mem.Schema.Columns[0].Name},
			{Kind: AggCountDistinct, Col: mem.Schema.Columns[1].Name},
		}
		keys := []string{mem.Schema.Columns[0].Name}
		type op func(*Table) (*Table, error)
		ops := []struct {
			name string
			run  op
			ref  op // nil: the operator has no separate reference
		}{
			{"select", func(x *Table) (*Table, error) { return Select(x, pred) },
				func(x *Table) (*Table, error) { return selectRows(x, pred) }},
			{"project", func(x *Table) (*Table, error) { return ProjectCols(x, mem.Schema.Columns[0].Name) },
				func(x *Table) (*Table, error) { return projectRows(x, P(mem.Schema.Columns[0].Name)) }},
			{"extend", func(x *Table) (*Table, error) { return Extend(x, "x", pred) },
				func(x *Table) (*Table, error) { return extendRows(x, "x", pred) }},
			{"groupby", func(x *Table) (*Table, error) { return GroupBy(x, keys, aggs) },
				func(x *Table) (*Table, error) { return groupByRows(x, keys, aggs) }},
			{"join-left", func(x *Table) (*Table, error) { return Join(x, other, joinPred, InnerJoin) },
				func(x *Table) (*Table, error) { return joinRows(x, other, joinPred, InnerJoin) }},
			{"leftjoin", func(x *Table) (*Table, error) { return Join(x, other, joinPred, LeftJoin) },
				func(x *Table) (*Table, error) { return joinRows(x, other, joinPred, LeftJoin) }},
			// Segment table on the build (right) side of a join.
			{"join-right", func(x *Table) (*Table, error) { return Join(other, x, joinPred, InnerJoin) },
				func(x *Table) (*Table, error) { return joinRows(other, x, joinPred, InnerJoin) }},
			{"sort", func(x *Table) (*Table, error) {
				return Sort(x, SortKey{Col: mem.Schema.Columns[0].Name}, SortKey{Col: mem.Schema.Columns[1].Name, Desc: true})
			}, nil},
			{"distinct", func(x *Table) (*Table, error) { return Distinct(x), nil },
				func(x *Table) (*Table, error) { return distinctRows(x), nil }},
			{"limit", func(x *Table) (*Table, error) { return Limit(x, 5), nil }, nil},
			{"union", func(x *Table) (*Table, error) { return Union(x, mem) }, nil},
			{"rename", func(x *Table) (*Table, error) { return Rename(x, "rn").Materialize() }, nil},
		}
		for _, op := range ops {
			want, wantErr := op.run(mem)
			got, gotErr := op.run(seg)
			requireSameOutcome(t, fmt.Sprintf("%s seed=%d", op.name, seed), got, want, gotErr, wantErr)
			if op.ref != nil {
				ref, refErr := op.ref(mem)
				requireSameOutcome(t, fmt.Sprintf("%s-vs-reference seed=%d", op.name, seed), got, ref, gotErr, refErr)
			}
		}
	}

	// A segment-backed left side over many partitions: the build side is
	// indexed once and probed partition by partition, under every plan.
	// NaN costs land in most 64-row partitions but not all, so the NaN
	// predicates mix hash-probed and nested-loop batches in one join.
	rx, _, drug := workloadTables(rand.New(rand.NewSource(9100)), 600)
	seg, _ := segSpill(t, rx, 64)
	if n := len(seg.seg.parts); n < 3 {
		t.Fatalf("left side has %d partitions, want >= 3", n)
	}
	memL, segL, dq := Rename(rx, "rx"), Rename(seg, "rx"), Rename(drug, "d")
	byName := Eq(ColRefExpr("rx.drug"), ColRefExpr("d.name"))
	for name, pred := range map[string]Expr{
		"single pair":      byName,
		"multi-pair hash":  And(byName, Eq(ColRefExpr("rx.qty"), ColRefExpr("d.pack"))),
		"NaN nested loop":  And(Eq(ColRefExpr("rx.cost"), ColRefExpr("d.price")), byName),
		"unsafe residual":  And(byName, Eq(ColRefExpr("rx.zzz"), Lit(Int(1)))),
		"non-equi":         Bin(OpLt, ColRefExpr("rx.qty"), ColRefExpr("d.pack")),
		"pair + residual":  And(byName, Bin(OpGt, ColRefExpr("rx.qty"), Lit(Int(2)))),
		"NaN single pair":  Eq(ColRefExpr("rx.cost"), ColRefExpr("d.price")),
		"nullable FK left": Eq(ColRefExpr("rx.patient"), ColRefExpr("d.pack")),
	} {
		for _, kind := range []JoinKind{InnerJoin, LeftJoin} {
			got, gotErr := Join(segL, dq, pred, kind)
			ref, refErr := joinRows(memL, dq, pred, kind)
			requireSameOutcome(t, fmt.Sprintf("segment-left join %s kind=%d", name, kind), got, ref, gotErr, refErr)
		}
	}
}

// TestGroupByStateFeeding pins the one accumulator on workload-shaped
// input: however the rows arrive — one batch, 64-row partitions scanned
// by one or four workers, or a prefix then the tail (each in memory, and
// each spilled) — the grouped table is the reference's, a table emitted
// mid-way is never touched by later feeding, and neither is the input, whose
// lineage the accumulator reads in place until it emits.
func TestGroupByStateFeeding(t *testing.T) {
	rx, patient, _ := workloadTables(rand.New(rand.NewSource(7100)), 5000)
	wide, err := Join(Rename(patient, "p"), Rename(rx, "rx"), Eq(ColRefExpr("rx.patient"), ColRefExpr("p.pid")), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	aggsOver := func(prefix string) []AggSpec {
		return []AggSpec{
			{Kind: AggCount}, {Kind: AggSum, Col: prefix + "qty"}, {Kind: AggAvg, Col: prefix + "cost"},
			{Kind: AggMin, Col: prefix + "day"}, {Kind: AggMax, Col: prefix + "drug"},
			{Kind: AggCountDistinct, Col: prefix + "patient", As: "patients"},
		}
	}
	inputs := []struct {
		tab  *Table // wide: derived, multi-table lineage; rx: base, positional lineage
		aggs []AggSpec
		keys [][]string
	}{
		{wide, aggsOver("rx."), [][]string{
			{"rx.drug"}, {"rx.year", "p.region"}, {"rx.id"}, {"p.region", "rx.year", "rx.qty"}, {"rx.cost"}, nil}},
		{rx, aggsOver(""), [][]string{{"drug"}, {"patient"}, {"cost"}}},
	}
	for _, in := range inputs {
		tab := in.tab
		input := tab.Clone()
		cut := tab.NumRows()*2/3 + 5 // not a partition boundary
		head := headOf(tab, cut)
		idx := make([]int, 0, tab.NumRows()-cut)
		for i := cut; i < tab.NumRows(); i++ {
			idx = append(idx, i)
		}
		tail, err := SliceRows(tab, idx)
		if err != nil {
			t.Fatal(err)
		}
		seg, store := segSpill(t, tab, 64)
		headSeg, _ := segSpill(t, head, 64)
		tailSeg, _ := segSpill(t, tail, 64)
		for _, keys := range in.keys {
			label := func(what string) string { return fmt.Sprintf("%s %s keys=%v", tab.Name, what, keys) }
			ref, err := groupByRows(tab, keys, in.aggs)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) == 1 && keys[0] == "rx.id" && len(ref.Rows) <= 1024 {
				t.Fatalf("want > 1024 groups, got %d", len(ref.Rows))
			}
			all, err := GroupBy(tab, keys, in.aggs)
			requireSameOutcome(t, label("feed-all"), all, ref, err, nil)

			for _, workers := range []int{1, 4} {
				store.SetScanWorkers(workers)
				got, err := GroupBy(seg, keys, in.aggs)
				requireSameOutcome(t, label(fmt.Sprintf("64-row partitions, %d workers", workers)), got, ref, err, nil)
			}

			for _, spilled := range []bool{false, true} {
				st, err := NewGroupByState(tab, keys, in.aggs)
				if err != nil {
					t.Fatal(err)
				}
				first, rest := head, tail
				if spilled {
					first, rest = headSeg, tailSeg
				}
				if err := st.AddTable(first); err != nil {
					t.Fatal(err)
				}
				mid := st.Result()
				midRef, _ := groupByRows(head, keys, in.aggs)
				requireSameTable(t, label("prefix"), mid, midRef)
				snapshot := mid.Clone()
				if err := st.AddTable(rest); err != nil {
					t.Fatal(err)
				}
				if st.SourceRows() != tab.NumRows() {
					t.Fatalf("%s: absorbed %d rows, want %d", label("prefix+tail"), st.SourceRows(), tab.NumRows())
				}
				requireSameTable(t, label("prefix+tail"), st.Result(), ref)
				requireSameTable(t, label("emitted table after further feeding"), mid, snapshot)
				requireSameTable(t, label("re-emit without feeding"), st.Result(), ref)
			}
		}
		requireSameTable(t, tab.Name+" after being grouped", tab, input)
	}
}

func TestSegmentRenameLineage(t *testing.T) {
	p := prescriptionsFixture()
	seg, _ := segSpill(t, p, 2)
	rn := Rename(seg, "rx")
	if rn.seg == nil {
		t.Fatal("rename must stay segment-backed")
	}
	memRn := Rename(p, "rx")
	for i := 0; i < p.NumRows(); i++ {
		if got, want := rn.RowLineage(i), memRn.RowLineage(i); len(got) != 1 || got[0] != want[0] {
			t.Fatalf("row %d: lineage %v, want %v", i, got, want)
		}
	}
	// Double rename keeps pointing at the original base rows.
	rn2, err := Rename(rn, "ry").Materialize()
	if err != nil {
		t.Fatal(err)
	}
	memRn2, _ := Rename(memRn, "ry").Materialize()
	requireSameTable(t, "double rename", rn2, memRn2)
	if !rn2.RowLineage(0).Contains(RowRef{"prescriptions", 0}) {
		t.Errorf("double-rename lineage = %v", rn2.RowLineage(0))
	}
}

func TestSegmentPruning(t *testing.T) {
	tab := NewBase("events", NewSchema(Col("id", TInt), Col("tag", TString)))
	for i := 0; i < 100; i++ {
		tab.AppendVals(Int(int64(i)), Str(fmt.Sprintf("t%d", i%7)))
	}
	store := NewSegmentStore(t.TempDir())
	store.SetPartitionRows(10)
	m := obs.New()
	store.SetMetrics(m)
	seg, err := store.Spill(tab)
	if err != nil {
		t.Fatal(err)
	}

	pred := Bin(OpLt, ColRefExpr("id"), Lit(Int(25)))
	sc := NewScanner(seg, pred)
	defer sc.Close()
	if sc.Pruned() != 7 {
		t.Fatalf("pruned = %d, want 7", sc.Pruned())
	}
	var rows int
	for {
		b, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += b.Len()
	}
	if rows != 30 { // three surviving partitions, unfiltered
		t.Fatalf("scanned %d rows, want 30", rows)
	}
	if got := m.Counter("segment.read.pruned").Value(); got != 7 {
		t.Errorf("segment.read.pruned = %d", got)
	}
	if got := m.Counter("segment.read.segments").Value(); got != 3 {
		t.Errorf("segment.read.segments = %d", got)
	}

	// The filtered result itself is still exact.
	out, err := Select(seg, pred)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Select(tab, pred)
	requireSameTable(t, "pruned select", out, want)

	// Equality on the string dictionary column prunes nothing (every
	// partition holds all seven tags) but stays correct.
	out2, err := Select(seg, ColEqStr("tag", "t3"))
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := Select(tab, ColEqStr("tag", "t3"))
	requireSameTable(t, "tag select", out2, want2)
}

// TestZonePruningNeverUnderScans is the one-sided soundness property:
// whenever zonesMayMatch says "prune", a brute-force Select over exactly
// that partition's rows must come back empty.
func TestZonePruningNeverUnderScans(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 11000))
		tab := randTable(rng, "z", 2+rng.Intn(3), 1+rng.Intn(40))
		seg, _ := segSpill(t, tab, 1+rng.Intn(6))
		pred := randPredicate(rng, tab.Schema, rng.Intn(3))
		if !predTotal(pred, tab.Schema) {
			continue
		}
		for _, p := range seg.seg.parts {
			if zonesMayMatch(pred, tab.Schema, p.zones) {
				continue
			}
			sub := NewBase("sub", tab.Schema)
			sub.Rows = tab.Rows[p.start : p.start+p.rows]
			out, err := Select(sub, pred)
			if err != nil {
				t.Fatalf("seed %d: total predicate %s errored: %v", seed, pred, err)
			}
			if len(out.Rows) > 0 {
				t.Fatalf("seed %d: pruned partition [%d,%d) has %d matches for %s",
					seed, p.start, p.start+p.rows, len(out.Rows), pred)
			}
		}
	}
}

func TestPredTotal(t *testing.T) {
	s := NewSchema(Col("a", TInt), Col("b", TString))
	cases := []struct {
		pred Expr
		want bool
	}{
		{ColEqStr("b", "x"), true},
		{Bin(OpLt, ColRefExpr("a"), Lit(Int(3))), true},
		{Bin(OpEq, ColRefExpr("missing"), Lit(Int(3))), false},
		{And(Bin(OpGt, ColRefExpr("a"), Lit(Int(100))), ColRefExpr("missing")), false},
		{Fn("UPPER", ColRefExpr("b")), false}, // functions: conservatively non-total
		{In(ColRefExpr("a"), Lit(Int(1)), Lit(Int(2))), true},
		{IsNull(ColRefExpr("a")), true},
		{Not(Bin(OpAdd, ColRefExpr("a"), Lit(Int(1)))), true},
	}
	for i, c := range cases {
		if got := predTotal(c.pred, s); got != c.want {
			t.Errorf("case %d %s: predTotal = %v, want %v", i, c.pred, got, c.want)
		}
	}
}

// TestPruningDoesNotSuppressErrors pins the error-transparency contract:
// a predicate that errors must error identically on the segment path even
// when its prunable half rejects every partition.
func TestPruningDoesNotSuppressErrors(t *testing.T) {
	tab := NewBase("e", NewSchema(Col("a", TInt)))
	for i := 0; i < 10; i++ {
		tab.AppendVals(Int(int64(i)))
	}
	seg, _ := segSpill(t, tab, 2)
	// a > 1000 alone would prune every partition; the unknown column must
	// still surface, exactly as in memory.
	pred := And(Bin(OpGt, ColRefExpr("a"), Lit(Int(1000))), ColRefExpr("missing"))
	_, memErr := Select(tab, pred)
	_, segErr := Select(seg, pred)
	if memErr == nil || segErr == nil {
		t.Fatalf("want errors, got mem=%v seg=%v", memErr, segErr)
	}
	if memErr.Error() != segErr.Error() {
		t.Fatalf("error mismatch:\n  mem: %v\n  seg: %v", memErr, segErr)
	}
}

func TestScannerParallelDeterministicOrder(t *testing.T) {
	tab := NewBase("big", NewSchema(Col("id", TInt)))
	for i := 0; i < 1000; i++ {
		tab.AppendVals(Int(int64(i)))
	}
	store := NewSegmentStore(t.TempDir())
	store.SetPartitionRows(10) // 100 partitions
	store.SetScanWorkers(8)
	seg, err := store.Spill(tab)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		sc := NewScanner(seg, nil)
		next := int64(0)
		for {
			b, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			ids, err := b.Col(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids.I {
				if id != next {
					t.Fatalf("run %d: got id %d, want %d", run, id, next)
				}
				next++
			}
		}
		sc.Close()
		if next != 1000 {
			t.Fatalf("run %d: scanned %d rows", run, next)
		}
	}
}

func TestScannerEarlyClose(t *testing.T) {
	tab := NewBase("big", NewSchema(Col("id", TInt)))
	for i := 0; i < 500; i++ {
		tab.AppendVals(Int(int64(i)))
	}
	store := NewSegmentStore(t.TempDir())
	store.SetPartitionRows(5)
	store.SetScanWorkers(4)
	seg, err := store.Spill(tab)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(seg, nil)
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	sc.Close() // idempotent
	if b, err := sc.Next(); b != nil || err != nil {
		t.Fatalf("Next after Close = (%v, %v)", b, err)
	}
	// In-memory scanner yields exactly one batch.
	ms := NewScanner(tab, nil)
	b1, _ := ms.Next()
	b2, _ := ms.Next()
	if b1 == nil || b1.Len() != 500 || b2 != nil || ms.Pruned() != 0 {
		t.Fatalf("in-memory scan: %v %v", b1, b2)
	}
}

func TestSegmentCorruptionFailsClosed(t *testing.T) {
	tab := typesFixture()
	store := NewSegmentStore(t.TempDir())
	store.SetPartitionRows(100)
	seg, err := store.Spill(tab)
	if err != nil {
		t.Fatal(err)
	}
	path := seg.seg.parts[0].path
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func([]byte) []byte{
		"bad magic":   func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xff; return c },
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"header flip": func(b []byte) []byte { c := append([]byte(nil), b...); c[14] ^= 0x01; return c },
		"body flip":   func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-3] ^= 0x01; return c },
		"trailing":    func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
		"empty":       func([]byte) []byte { return nil },
	}
	for name, mut := range corruptions {
		if err := os.WriteFile(path, mut(orig), 0o644); err != nil {
			t.Fatal(err)
		}
		seg.seg.cache.all = nil // defeat the materialization cache
		seg.seg.cache.lastPart = -1
		_, err := seg.Materialize()
		if err == nil {
			t.Fatalf("%s: corruption not detected", name)
		}
		if !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("%s: err = %v, want ErrSegmentCorrupt", name, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Path == "" {
			t.Fatalf("%s: err = %v, want *CorruptError with path", name, err)
		}
	}
	// Restore and confirm the table reads clean again.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Materialize(); err != nil {
		t.Fatalf("restored segment unreadable: %v", err)
	}
}

func TestSegmentRowCountMismatchFailsClosed(t *testing.T) {
	tab := NewBase("m", NewSchema(Col("a", TInt)))
	for i := 0; i < 6; i++ {
		tab.AppendVals(Int(int64(i)))
	}
	seg, _ := segSpill(t, tab, 3)
	// Swap the two partition files: each verifies cleanly and has the row
	// count the manifest expects, but sits in the other's slot (the header
	// identity check; TestSegmentHeaderIdentity has the other shapes).
	p0, p1 := seg.seg.parts[0].path, seg.seg.parts[1].path
	d0, _ := os.ReadFile(p0)
	d1, _ := os.ReadFile(p1)
	os.WriteFile(p0, d1, 0o644)
	os.WriteFile(p1, d0, 0o644)
	seg.seg.cache.all = nil
	if _, err := seg.Materialize(); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("swapped partitions: err = %v, want ErrSegmentCorrupt", err)
	}
	// The right file for the slot, claiming a row more than the manifest.
	seg2, _ := segSpill(t, tab, 3)
	rewritePart(t, seg2, 1, func(h *segHeader, blocks [][]byte) [][]byte {
		h.Rows++
		return blocks
	})
	var ce *CorruptError
	if _, err := seg2.Materialize(); !errors.As(err, &ce) || !strings.Contains(ce.Detail, "row count") {
		t.Fatalf("row-count mismatch: err = %v, want a row-count *CorruptError", err)
	}
}

func TestSegmentWriterMisuse(t *testing.T) {
	store := NewSegmentStore(t.TempDir())
	if _, err := store.NewWriter("t", nil); err == nil {
		t.Error("nil schema must fail")
	}
	s := NewSchema(Col("a", TInt))
	w, err := store.NewWriter("t", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Row{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := w.Append(Row{Int(1)}); err != nil {
		t.Fatal(err)
	}
	seg, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Row{Int(2)}); err == nil {
		t.Error("append after close must fail")
	}
	if _, err := w.Close(); err == nil {
		t.Error("double close must fail")
	}
	if err := seg.Append(Row{Int(3)}); err == nil {
		t.Error("append to segment-backed table must fail")
	}
	// Abort removes the directory of a fresh writer.
	w2, _ := store.NewWriter("gone", s)
	w2.Append(Row{Int(1)})
	dir := w2.dir
	w2.flush()
	w2.Abort()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("abort left %s behind", dir)
	}
}

func TestSegmentCloneSharesBacking(t *testing.T) {
	tab := prescriptionsFixture()
	seg, _ := segSpill(t, tab, 2)
	c := seg.Clone()
	if c.seg != seg.seg {
		t.Fatal("clone must share the immutable backing")
	}
	if c.NumRows() != tab.NumRows() {
		t.Fatalf("clone rows = %d", c.NumRows())
	}
	mt, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if seg.seg.cache.all == nil {
		t.Error("materialization must populate the shared cache")
	}
	if mt.NumRows() != tab.NumRows() {
		t.Fatalf("materialized rows = %d", mt.NumRows())
	}
	v1, _ := c.vectors()
	v2, _ := seg.vectors()
	if v1[0] != v2[0] {
		t.Error("shared cache must serve both views")
	}
}

func TestSegmentReadRetryTransient(t *testing.T) {
	tab := NewBase("r", NewSchema(Col("a", TInt)))
	for i := 0; i < 4; i++ {
		tab.AppendVals(Int(int64(i)))
	}
	store := NewSegmentStore(t.TempDir())
	store.SetPartitionRows(2)
	seg, err := store.Spill(tab)
	if err != nil {
		t.Fatal(err)
	}
	// Two deterministic transient failures per site; policy allows three
	// attempts, so every read eventually succeeds.
	inj := fault.NewInjector(1)
	inj.Enable(fault.SiteSegmentRead, fault.SiteConfig{ErrorRate: 1, Transient: true, Times: 2})
	store.SetFaults(inj)
	store.SetRetryPolicy(fault.RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond})
	mt, err := seg.Materialize()
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if len(mt.Rows) != 4 {
		t.Fatalf("rows = %d", len(mt.Rows))
	}
	if got := len(inj.Schedule()); got != 2 {
		t.Errorf("fires = %d, want 2", got)
	}

	// Without a retry policy a transient fault surfaces immediately.
	store2 := NewSegmentStore(t.TempDir())
	store2.SetPartitionRows(2)
	seg2, _ := store2.Spill(tab)
	inj2 := fault.NewInjector(1)
	inj2.Enable(fault.SiteSegmentRead, fault.SiteConfig{ErrorRate: 1, Transient: true, Times: 1})
	store2.SetFaults(inj2)
	if _, err := seg2.Materialize(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
}

func TestSegmentMetricsCounters(t *testing.T) {
	tab := typesFixture()
	store := NewSegmentStore(t.TempDir())
	store.SetPartitionRows(2)
	m := obs.New()
	store.SetMetrics(m)
	seg, err := store.Spill(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("segment.write.partitions").Value(); got != 3 {
		t.Errorf("write.partitions = %d", got)
	}
	if got := m.Counter("segment.write.rows").Value(); got != 5 {
		t.Errorf("write.rows = %d", got)
	}
	if got := m.Counter("segment.spill.tables").Value(); got != 1 {
		t.Errorf("spill.tables = %d", got)
	}
	if _, err := seg.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("segment.read.partitions").Value(); got != 3 {
		t.Errorf("read.partitions = %d", got)
	}
	if got := m.Counter("segment.read.rows").Value(); got != 5 {
		t.Errorf("read.rows = %d", got)
	}
	if m.Counter("segment.write.bytes").Value() == 0 || m.Counter("segment.read.bytes").Value() == 0 {
		t.Error("byte counters must advance")
	}
}

func TestSegDirNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"orders":        "orders",
		"weird/../name": "weird____name",
		"":              "table",
		"Ok-1_b":        "Ok-1_b",
	}
	for in, want := range cases {
		if got := segDirName(in); got != want {
			t.Errorf("segDirName(%q) = %q, want %q", in, got, want)
		}
	}
	// Two writers for the same table name land in distinct directories.
	store := NewSegmentStore(t.TempDir())
	s := NewSchema(Col("a", TInt))
	w1, _ := store.NewWriter("dup", s)
	w2, _ := store.NewWriter("dup", s)
	if w1.dir == w2.dir {
		t.Error("writer directories must not collide")
	}
	if filepath.Dir(w1.dir) != store.Dir() {
		t.Errorf("writer dir %s not under store root", w1.dir)
	}
}
