package relation

// segtable.go ties segment files (segment.go, segstore.go) into the
// Table API. A segment-backed Table holds no cells in memory and carries a
// *segBacking describing its partitions: it is the spilled twin of a
// stored table, whose vectors are its one unspilled partition. Storage is
// decided here and in batch.go, nowhere else: Select and GroupBy read any
// table through a Scanner (one Batch per surviving partition — verified
// whole, decoded column by column as the operator asks — or the single
// Batch of an in-memory table, its own vectors), the operators that read
// every cell call vectors (a segment-backed table's columns decoded whole,
// once per backing), and Rename shares the backing.
//
// Lineage stays in memory, in the form the table had (lineage.go): a
// segment-backed base table, and a view of one, keep it implicit, so a
// partition's row i is origin#(start+i) and an operator reading a batch
// reads its lineage from the scanned table at that ordinal.

import (
	"fmt"
	"math"
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
	// origin is the name the table was written under, which every
	// partition's header must carry.
	origin string
	// cols are the column names the table was written under; with origin
	// and each partition's slot they identify the files read back.
	cols  []string
	parts []segPart
	rows  int
	cache *segCache
}

// checkHeader requires a verified header to be the one the store wrote for
// partition p of this table. Positional lineage says row i of partition p
// is origin#(p.start+i), so a well-formed file in the wrong slot would
// attach thresholds and evidence to the wrong rows.
func (b *segBacking) checkHeader(h *segHeader, p *segPart) error {
	switch {
	case h.Table != b.origin:
		return corruptf("table %q, manifest says %q", h.Table, b.origin)
	case h.Part != p.index:
		return corruptf("partition %d, manifest says %d", h.Part, p.index)
	case h.Start != p.start:
		return corruptf("start row %d, manifest says %d", h.Start, p.start)
	case h.Rows != p.rows:
		return corruptf("row count %d, manifest says %d", h.Rows, p.rows)
	case len(h.Cols) != len(b.cols):
		return corruptf("%d columns, manifest says %d", len(h.Cols), len(b.cols))
	}
	for ci, name := range b.cols {
		if h.Cols[ci].Name != name {
			return corruptf("column %d is %q, manifest says %q", ci, h.Cols[ci].Name, name)
		}
	}
	return nil
}

// segCache holds what every view of one backing shares: the table's
// columns decoded whole (at most once) and the most recently read
// partition for point accesses — its verified blocks, and the vectors of
// the columns asked for so far.
type segCache struct {
	mu       sync.Mutex
	all      []*Vector
	lastPart int
	last     *Batch
}

// Materialize returns the table in edge form: t itself when it holds its
// cells as rows, otherwise a shallow copy whose rows are assembled from
// them — a stored table's vectors, a segment-backed table's partitions
// (decoded once per backing) — its lineage t's. It is for the edges: a
// render's result, an export, a test.
func (t *Table) Materialize() (*Table, error) {
	if t.seg == nil && t.vecs == nil {
		return t, nil
	}
	vecs, err := t.vectors()
	if err != nil {
		return nil, err
	}
	c := *t
	c.Rows = rowsOf(vecs, t.NumRows())
	c.vecs, c.n, c.seg, c.res, c.tail = nil, 0, nil, nil, nil
	return &c, nil
}

// vectors returns the table's cells by column: a stored table's own
// vectors, a segment-backed table's partitions decoded and concatenated
// (once per backing), an edge-form table's rows transposed. The operators
// that read every cell anyway read a table through it.
func (t *Table) vectors() ([]*Vector, error) {
	switch {
	case t.vecs != nil:
		return t.vecs, nil
	case t.seg != nil:
		return t.seg.vectors()
	}
	vecs := make([]*Vector, t.Schema.Len())
	for ci := range vecs {
		vecs[ci] = transpose(t.Rows, ci)
	}
	return vecs, nil
}

// rowsOf assembles the n rows of vecs out of one arena, filled row by row
// so that its writes run in order.
func rowsOf(vecs []*Vector, n int) []Row {
	w := len(vecs)
	flat := make([]Value, n*w)
	rows := make([]Row, n)
	for i := range rows {
		row := flat[i*w : (i+1)*w : (i+1)*w]
		for ci, v := range vecs {
			row[ci] = v.Value(i)
		}
		rows[i] = Row(row)
	}
	return rows
}

// mustMaterialize is Materialize for String, which has no error return:
// a failure means a segment store broke under a table being printed, and
// failing loudly beats printing fabricated rows.
func (t *Table) mustMaterialize() *Table {
	mt, err := t.Materialize()
	if err != nil {
		panic("relation: cannot materialize segment-backed table " + t.Name + ": " + err.Error())
	}
	return mt
}

// mustVectors is vectors for the operators without an error return
// (Distinct, Limit). The SQL executor never routes a segment-backed table
// into those — projections and aggregations run first — so a failure here
// means direct library misuse over a broken store, and failing loudly
// beats returning fabricated rows.
func (t *Table) mustVectors() []*Vector {
	vecs, err := t.vectors()
	if err != nil {
		panic("relation: cannot read segment-backed table " + t.Name + ": " + err.Error())
	}
	return vecs
}

// ValueAt returns the value at (row, column index), reading at most one
// partition, decoding only that column of it, and caching both for
// sequential access patterns. Out-of-range
// coordinates yield NULL, like Get.
func (t *Table) ValueAt(row, ci int) (Value, error) {
	switch {
	case t.seg != nil:
		return t.seg.valueAt(row, ci)
	case row < 0 || row >= t.NumRows() || ci < 0 || ci >= t.Schema.Len():
		return Null(), nil
	case t.vecs != nil:
		return t.vecs[ci].Value(row), nil
	}
	if ci >= len(t.Rows[row]) {
		return Null(), nil
	}
	return t.Rows[row][ci], nil
}

// vectors decodes every partition and concatenates each column's parts.
func (b *segBacking) vectors() ([]*Vector, error) {
	b.cache.mu.Lock()
	defer b.cache.mu.Unlock()
	if b.cache.all != nil {
		return b.cache.all, nil
	}
	parts := make([][]*Vector, len(b.cols))
	for pi := range b.parts {
		bt, err := b.store.readPartition(b, &b.parts[pi])
		if err != nil {
			return nil, err
		}
		for ci := range parts {
			v, err := bt.Col(ci)
			if err != nil {
				bt.release()
				return nil, err
			}
			parts[ci] = append(parts[ci], v)
		}
		bt.release()
	}
	all := make([]*Vector, len(b.cols))
	for ci := range all {
		all[ci] = concatVectors(parts[ci]...)
	}
	b.cache.all = all
	return all, nil
}

func (b *segBacking) valueAt(row, ci int) (Value, error) {
	if row < 0 || row >= b.rows || ci < 0 || ci >= len(b.cols) {
		return Null(), nil
	}
	b.cache.mu.Lock()
	defer b.cache.mu.Unlock()
	if b.cache.all != nil {
		return b.cache.all[ci].Value(row), nil
	}
	pi := sort.Search(len(b.parts), func(i int) bool { return b.parts[i].start > row }) - 1
	p := &b.parts[pi]
	if b.cache.lastPart != pi {
		bt, err := b.store.readPartition(b, p)
		if err != nil {
			return Null(), err
		}
		b.cache.last.release()
		b.cache.lastPart, b.cache.last = pi, bt
	}
	v, err := b.cache.last.Col(ci)
	if err != nil {
		return Null(), err
	}
	return v.Value(row - p.start), nil
}

// segPartResult carries one read partition through the scan pipeline.
type segPartResult struct {
	b   *Batch
	err error
}

// Scanner is the one way rows reach the streaming operators. An in-memory
// table yields a single Batch over the table itself. A segment-backed
// table yields one Batch per partition that survives zone-map pruning, in
// partition order, each read and verified whole but decoded only as far as
// the operator asks. With more than one worker the reads run concurrently
// on a bounded pool while results are consumed through index-tagged slots,
// so output order is deterministic regardless of completion order. A batch
// can have further columns extracted until the next call to Next or Close,
// which hands its partition's bytes to a later read. Callers must Close the
// scanner when abandoning it early.
type Scanner struct {
	t       *Table
	parts   []int // surviving partitions of a segment-backed t
	pruned  int
	workers int
	// need, when set, is what the operator will read from every batch
	// (Batch.load of its columns, Batch.table for its rows): a worker runs
	// it before handing the batch over, so decoding stays on the pool and
	// its errors surface from Next.
	need func(*Batch) error

	next    int
	cur     *Batch // the batch handed out last; released when the scan moves on
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

// read reads and verifies partition pi and decodes what the operator said
// it needs.
func (sc *Scanner) read(pi int) (*Batch, error) {
	seg := sc.t.seg
	b, err := seg.store.readPartition(seg, &seg.parts[pi])
	if err != nil {
		return nil, err
	}
	b.src = sc.t
	if sc.need != nil {
		if err := sc.need(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// start launches the bounded-parallel read pipeline. The semaphore is
// acquired before each read and released only when its result is
// consumed, so at most `workers` partitions are in flight — the scan's
// memory ceiling.
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
				b, err := sc.read(pi)
				slot <- segPartResult{b: b, err: err} // buffered: never blocks
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
	sc.cur.release()
	sc.cur = nil
	if sc.next >= len(sc.parts) {
		sc.done = true
		return nil, nil
	}
	var res segPartResult
	if sc.workers <= 1 {
		res.b, res.err = sc.read(sc.parts[sc.next])
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
	sc.cur = res.b
	return res.b, nil
}

// Pruned returns the number of partitions skipped by zone-map pruning.
func (sc *Scanner) Pruned() int { return sc.pruned }

// Close stops the pipeline. In-flight reads finish into their buffered
// slots and exit; the dispatcher unblocks via the cancel channel, so no
// goroutine outlives the scan. Safe to call repeatedly.
func (sc *Scanner) Close() {
	if sc.cancel != nil {
		close(sc.cancel)
		sc.cancel = nil
	}
	sc.cur.release()
	sc.cur = nil
	sc.done = true
}

// eachBatch scans t (pred, optional, prunes partitions) and hands fn every
// batch in order, stopping at the first error. need (optional) is what fn
// reads from a batch, decoded ahead on the scan's workers. A table whose
// rows an int32 lineage ordinal cannot address is refused.
func eachBatch(t *Table, pred Expr, need func(*Batch) error, fn func(*Batch) error) error {
	if n := t.NumRows(); n > math.MaxInt32 {
		return fmt.Errorf("relation: %s has %d rows, more than lineage ordinals address", t.Name, n)
	}
	sc := NewScanner(t, pred)
	sc.need = need
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
