package relation

// segtable.go ties segment files (segment.go, segstore.go) into the
// Table API. A segment-backed Table keeps Rows empty and carries a
// *segBacking describing its partitions. Storage is decided here and
// nowhere else: Select, GroupBy and the probe side of Join read any table
// through a Scanner (one Batch per surviving partition, or the single
// Batch of an in-memory table), every other operator calls Materialize
// (a no-op in memory), and Rename shares the backing.
//
// Lineage stays implicit: a segment-backed base table's row i has
// lineage {origin#i} exactly like an in-memory base table, so renames
// and partition sub-tables reconstruct lineage positionally instead of
// materializing one LineageSet per row.

import (
	"runtime"
	"sort"
	"sync"
)

// segPart is one on-disk partition: a contiguous row range of the table
// with per-column zone maps consulted before decode.
type segPart struct {
	path  string
	index int
	start int
	rows  int
	zones []colZone
}

// segBacking is the out-of-core state of a segment-backed Table. It is
// immutable after construction and safely shared between clones and
// renames; only the cache mutates, under its own lock.
type segBacking struct {
	store *SegmentStore
	// origin is the lineage origin: the name the table was written
	// under. Renames keep it, exactly as in-memory Rename materializes
	// lineage pointing at the pre-rename name.
	origin string
	parts  []segPart
	rows   int
	cache  *segCache
}

// segCache holds decoded rows shared by every view of one backing: the
// full materialization (built at most once) and the most recently
// decoded single partition for point accesses.
type segCache struct {
	mu       sync.Mutex
	all      []Row
	lastPart int
	lastRows []Row
}

// Materialize returns an in-memory view of the table: t itself when it
// already holds its rows, otherwise a shallow copy with every partition
// decoded (cached on the shared backing, so repeated calls read disk
// once). Derived tables without explicit lineage get it materialized
// positionally, matching what the in-memory operators would have built.
func (t *Table) Materialize() (*Table, error) {
	if t.seg == nil {
		return t, nil
	}
	rows, err := t.seg.materialize()
	if err != nil {
		return nil, err
	}
	c := *t
	c.Rows = rows
	c.seg = nil
	if !c.Base && c.Lineage == nil {
		c.Lineage = positionalLineage(t.seg.origin, 0, len(rows))
	}
	return &c, nil
}

// shareBacking makes out — the renamed shell of t — read t's segments, and
// reports whether t is segment-backed. Per-row lineage is not
// materialized: the copied backing keeps its origin, and RowLineage
// reconstructs {origin#i} positionally — exactly the sets the in-memory
// Rename materializes.
func (t *Table) shareBacking(out *Table) bool {
	if t.seg == nil {
		return false
	}
	b := *t.seg
	out.seg = &b
	if !t.Base && t.Lineage != nil {
		out.Lineage = t.Lineage
	}
	return true
}

// mustMaterialize is Materialize for operators without an error return
// (Distinct, Limit, String). The SQL executor never routes a
// segment-backed table into those — projections and aggregations run
// first — so a failure here means direct library misuse over a broken
// store, and failing loudly beats returning fabricated rows.
func (t *Table) mustMaterialize() *Table {
	mt, err := t.Materialize()
	if err != nil {
		panic("relation: cannot materialize segment-backed table " + t.Name + ": " + err.Error())
	}
	return mt
}

// ValueAt returns the value at (row, column index), decoding at most one
// partition and caching it for sequential access patterns. Out-of-range
// coordinates yield NULL, like Get.
func (t *Table) ValueAt(row, ci int) (Value, error) {
	if t.seg != nil {
		return t.seg.valueAt(row, ci)
	}
	if row < 0 || row >= len(t.Rows) || ci < 0 || ci >= len(t.Rows[row]) {
		return Null(), nil
	}
	return t.Rows[row][ci], nil
}

func (b *segBacking) materialize() ([]Row, error) {
	b.cache.mu.Lock()
	defer b.cache.mu.Unlock()
	if b.cache.all != nil {
		return b.cache.all, nil
	}
	rows := make([]Row, 0, b.rows)
	for pi := range b.parts {
		rs, err := b.store.readPartition(&b.parts[pi])
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	b.cache.all = rows
	return rows, nil
}

func (b *segBacking) valueAt(row, ci int) (Value, error) {
	if row < 0 || row >= b.rows || ci < 0 {
		return Null(), nil
	}
	b.cache.mu.Lock()
	defer b.cache.mu.Unlock()
	if b.cache.all != nil {
		r := b.cache.all[row]
		if ci >= len(r) {
			return Null(), nil
		}
		return r[ci], nil
	}
	pi := sort.Search(len(b.parts), func(i int) bool { return b.parts[i].start > row }) - 1
	p := &b.parts[pi]
	if b.cache.lastPart != pi {
		rows, err := b.store.readPartition(p)
		if err != nil {
			return Null(), err
		}
		b.cache.lastPart, b.cache.lastRows = pi, rows
	}
	r := b.cache.lastRows[row-p.start]
	if ci >= len(r) {
		return Null(), nil
	}
	return r[ci], nil
}

// partTable decodes partition pi and wraps it as an in-memory sub-table
// of t: same name, schema and column origins, with lineage rebuilt as
// the global row references of the partition's row range. Operators
// applied to it therefore produce byte-identical output to the same
// operator over the full in-memory table, restricted to this range.
func (b *segBacking) partTable(t *Table, pi int) (*Table, error) {
	p := &b.parts[pi]
	rows, err := b.store.readPartition(p)
	if err != nil {
		return nil, err
	}
	pt := &Table{Name: t.Name, Schema: t.Schema, Rows: rows, ColOrigin: t.ColOrigin}
	if t.Lineage != nil {
		pt.Lineage = t.Lineage[p.start : p.start+p.rows]
	} else {
		pt.Lineage = positionalLineage(b.origin, p.start, p.rows)
	}
	return pt, nil
}

// segPartResult carries one decoded partition through the scan pipeline.
type segPartResult struct {
	pt  *Table
	err error
}

// Scanner is the one way rows reach the streaming operators. An in-memory
// table yields a single Batch over the table itself. A segment-backed
// table yields one Batch per partition that survives zone-map pruning, in
// partition order; with more than one worker the decodes run concurrently
// on a bounded pool while results are consumed through index-tagged
// slots, so output order is deterministic regardless of decode completion
// order. Callers must Close the scanner when abandoning it early.
type Scanner struct {
	t       *Table
	parts   []int // surviving partitions of a segment-backed t
	pruned  int
	workers int

	next    int
	done    bool
	started bool
	slots   []chan segPartResult
	sem     chan struct{}
	cancel  chan struct{}
}

// NewScanner opens a scan of t. pred (optional) drives partition pruning:
// partitions whose zone maps prove the predicate cannot be TRUE on any of
// their rows are skipped before any byte is read.
func NewScanner(t *Table, pred Expr) *Scanner {
	sc := &Scanner{t: t}
	b := t.seg
	if b == nil {
		return sc
	}
	prune := pred != nil && predTotal(pred, t.Schema)
	for pi := range b.parts {
		if prune && !zonesMayMatch(pred, t.Schema, b.parts[pi].zones) {
			sc.pruned++
			continue
		}
		sc.parts = append(sc.parts, pi)
	}
	m := b.store.Metrics()
	m.Counter("segment.read.segments").Add(uint64(len(sc.parts)))
	m.Counter("segment.read.pruned").Add(uint64(sc.pruned))
	sc.workers = b.store.ScanWorkers()
	if sc.workers <= 0 {
		sc.workers = runtime.GOMAXPROCS(0)
	}
	if sc.workers > len(sc.parts) {
		sc.workers = len(sc.parts)
	}
	return sc
}

// start launches the bounded-parallel decode pipeline. The semaphore is
// acquired before each decode and released only when its result is
// consumed, so at most `workers` decoded partitions are in flight — the
// scan's memory ceiling.
func (sc *Scanner) start() {
	sc.started = true
	sc.slots = make([]chan segPartResult, len(sc.parts))
	for i := range sc.slots {
		sc.slots[i] = make(chan segPartResult, 1)
	}
	sc.sem = make(chan struct{}, sc.workers)
	sc.cancel = make(chan struct{})
	// Locals: Close nils the fields from the consumer goroutine while the
	// dispatcher is still selecting on them.
	cancel, sem := sc.cancel, sc.sem
	go func() {
		for i, pi := range sc.parts {
			select {
			case <-cancel:
				return
			case sem <- struct{}{}:
			}
			go func(slot chan segPartResult, pi int) {
				pt, err := sc.t.seg.partTable(sc.t, pi)
				slot <- segPartResult{pt: pt, err: err} // buffered: never blocks
			}(sc.slots[i], pi)
		}
	}()
}

// Next returns the next batch, or (nil, nil) when the scan is done.
func (sc *Scanner) Next() (*Batch, error) {
	if sc.done {
		return nil, nil
	}
	if sc.t.seg == nil {
		sc.done = true
		return NewBatch(sc.t), nil
	}
	if sc.next >= len(sc.parts) {
		sc.done = true
		return nil, nil
	}
	var res segPartResult
	if sc.workers <= 1 {
		res.pt, res.err = sc.t.seg.partTable(sc.t, sc.parts[sc.next])
	} else {
		if !sc.started {
			sc.start()
		}
		res = <-sc.slots[sc.next]
		<-sc.sem
	}
	sc.next++
	if res.err != nil {
		sc.Close()
		return nil, res.err
	}
	return NewBatch(res.pt), nil
}

// Pruned returns the number of partitions skipped by zone-map pruning.
func (sc *Scanner) Pruned() int { return sc.pruned }

// Close stops the pipeline. In-flight decodes finish into their buffered
// slots and exit; the dispatcher unblocks via the cancel channel, so no
// goroutine outlives the scan. Safe to call repeatedly.
func (sc *Scanner) Close() {
	if sc.cancel != nil {
		close(sc.cancel)
		sc.cancel = nil
	}
	sc.done = true
}

// eachBatch scans t (pred, optional, prunes partitions) and hands fn every
// batch in order, stopping at the first error.
func eachBatch(t *Table, pred Expr, fn func(*Batch) error) error {
	sc := NewScanner(t, pred)
	defer sc.Close()
	for {
		b, err := sc.Next()
		if b == nil || err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}
