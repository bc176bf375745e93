package relation

// segstore.go is the file-backed side of the out-of-core tables: a
// SegmentStore owns a directory of columnar segments (segment.go), a
// SegmentWriter streams rows into fixed-size partitions without ever
// holding more than one partition in memory, and Spill converts an
// in-memory table into a segment-backed one preserving its provenance.
//
// Reads go through the relation.segment.read fault site: transient
// failures (injected or real I/O) are retried under the store's policy,
// while corruption is marked permanent and fails closed immediately.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"plabi/internal/fault"
	"plabi/internal/obs"
)

// DefaultPartitionRows is the number of rows per segment partition when
// the store is not configured otherwise.
const DefaultPartitionRows = 1 << 16

// SegmentStore writes and reads columnar segments under one directory.
// The zero configuration is usable immediately: the directory is created
// lazily on first write, partitions default to DefaultPartitionRows, and
// metrics/faults/retry wiring is optional. All methods are safe for
// concurrent use.
type SegmentStore struct {
	dir      string
	partRows atomic.Int64
	workers  atomic.Int64
	metrics  atomic.Pointer[obs.Metrics]
	faults   atomic.Pointer[fault.Injector]
	retry    atomic.Pointer[fault.RetryPolicy]
	seq      atomic.Uint64
}

// NewSegmentStore returns a store rooted at dir. The directory is not
// created until the first write, so construction cannot fail.
func NewSegmentStore(dir string) *SegmentStore {
	return &SegmentStore{dir: dir}
}

// Dir returns the store's root directory.
func (s *SegmentStore) Dir() string { return s.dir }

// SetPartitionRows sets the rows-per-partition of subsequent writers;
// values below 1 restore the default.
func (s *SegmentStore) SetPartitionRows(n int) {
	s.partRows.Store(int64(n))
}

// PartitionRows returns the configured rows per partition.
func (s *SegmentStore) PartitionRows() int {
	if n := s.partRows.Load(); n > 0 {
		return int(n)
	}
	return DefaultPartitionRows
}

// SetScanWorkers bounds the parallel partition reads per scan; 0
// restores the default (GOMAXPROCS), 1 forces sequential scans.
func (s *SegmentStore) SetScanWorkers(n int) {
	s.workers.Store(int64(n))
}

// ScanWorkers returns the configured scan parallelism (0 = default).
func (s *SegmentStore) ScanWorkers() int {
	return int(s.workers.Load())
}

// SetMetrics attaches an observability registry; the store maintains the
// segment.* counters on it.
func (s *SegmentStore) SetMetrics(m *obs.Metrics) { s.metrics.Store(m) }

// Metrics returns the attached registry (nil-safe to use).
func (s *SegmentStore) Metrics() *obs.Metrics {
	if s == nil {
		return nil
	}
	return s.metrics.Load()
}

// SetFaults attaches a fault injector consulted at relation.segment.read.
func (s *SegmentStore) SetFaults(fi *fault.Injector) { s.faults.Store(fi) }

// SetRetryPolicy sets the retry policy for transient segment-read
// failures. The zero value (default) performs a single attempt.
func (s *SegmentStore) SetRetryPolicy(p fault.RetryPolicy) { s.retry.Store(&p) }

func (s *SegmentStore) retryPolicy() fault.RetryPolicy {
	if p := s.retry.Load(); p != nil {
		return *p
	}
	return fault.RetryPolicy{}
}

// segDirName sanitizes a table name into a filesystem-safe directory
// component.
func segDirName(table string) string {
	var b strings.Builder
	for _, r := range table {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "table"
	}
	return b.String()
}

// SegmentWriter streams rows into per-partition segment files. Only the
// current partition is buffered in memory; Close returns the
// segment-backed base table.
type SegmentWriter struct {
	store    *SegmentStore
	table    string
	schema   *Schema
	dir      string
	partRows int
	buf      []Row
	parts    []segPart
	start    int // global row index of the first buffered row
	total    int
	closed   bool
}

// NewWriter opens a writer for one table. Each writer gets a fresh
// subdirectory (<dir>/<table>-<seq>) so repeated loads of the same table
// never collide.
func (s *SegmentStore) NewWriter(table string, schema *Schema) (*SegmentWriter, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("relation: segment writer for %s: empty schema", table)
	}
	dir := filepath.Join(s.dir, fmt.Sprintf("%s-%06d", segDirName(table), s.seq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("relation: segment writer for %s: %w", table, err)
	}
	return &SegmentWriter{store: s, table: table, schema: schema, dir: dir, partRows: s.PartitionRows()}, nil
}

// Append buffers one row, flushing a partition whenever the buffer
// reaches the configured size. The row is retained until the flush and
// must not be mutated by the caller.
func (w *SegmentWriter) Append(r Row) error {
	if w.closed {
		return fmt.Errorf("relation: segment writer for %s: closed", w.table)
	}
	if len(r) != w.schema.Len() {
		return fmt.Errorf("relation: row arity %d does not match schema %s", len(r), w.schema)
	}
	w.buf = append(w.buf, r)
	w.total++
	if len(w.buf) >= w.partRows {
		return w.flush()
	}
	return nil
}

// flush encodes and writes the buffered partition.
func (w *SegmentWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	data, zones, err := encodeSegment(w.table, len(w.parts), w.start, w.schema, w.buf)
	if err != nil {
		return err
	}
	return w.write(data, zones, len(w.buf))
}

// write writes the next partition, the segment bytes data of n rows.
func (w *SegmentWriter) write(data []byte, zones []colZone, n int) error {
	idx := len(w.parts)
	path := filepath.Join(w.dir, fmt.Sprintf("part-%06d.seg", idx))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("relation: segment write %s: %w", path, err)
	}
	m := w.store.Metrics()
	m.Counter("segment.write.partitions").Inc()
	m.Counter("segment.write.rows").Add(uint64(n))
	m.Counter("segment.write.bytes").Add(uint64(len(data)))
	w.parts = append(w.parts, segPart{path: path, index: idx, start: w.start, rows: n, zones: zones})
	w.start += n
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the final partition and returns the segment-backed base
// table. The writer is unusable afterwards.
func (w *SegmentWriter) Close() (*Table, error) {
	if w.closed {
		return nil, fmt.Errorf("relation: segment writer for %s: closed", w.table)
	}
	w.closed = true
	if err := w.flush(); err != nil {
		return nil, err
	}
	w.buf = nil
	t := &Table{Name: w.table, Schema: w.schema.Clone(), Base: true}
	t.seg = &segBacking{store: w.store, origin: w.table, cols: w.schema.ColumnNames(), parts: w.parts, rows: w.total, cache: &segCache{lastPart: -1}}
	return t, nil
}

// Abort discards the writer and removes any partitions already written.
func (w *SegmentWriter) Abort() {
	w.closed = true
	w.buf = nil
	os.RemoveAll(w.dir)
}

// Spill converts an in-memory table into a segment-backed one, writing
// its cells out partition by partition, straight from its vectors, and
// preserving name, schema, base flag, lineage and column origins. Only the
// cells move out of core: lineage keeps its form, an implicit one stored
// nowhere, columns and packed rows in memory; a table that is already
// segment-backed is returned unchanged.
func (s *SegmentStore) Spill(t *Table) (*Table, error) {
	if t.seg != nil {
		return t, nil
	}
	w, err := s.NewWriter(t.Name, t.Schema)
	if err != nil {
		return nil, err
	}
	vecs, _ := t.vectors() // in memory: cannot fail
	n := t.NumRows()
	for lo := 0; lo < n; lo += w.partRows {
		hi := min(lo+w.partRows, n)
		part := make([]*Vector, len(vecs))
		for ci, v := range vecs {
			part[ci] = v.slice(lo, hi)
		}
		data, zones, err := encodePartition(w.table, len(w.parts), lo, w.schema, part, hi-lo)
		if err == nil {
			w.total = hi
			err = w.write(data, zones, hi-lo)
		}
		if err != nil {
			w.Abort()
			return nil, err
		}
	}
	out, err := w.Close()
	if err != nil {
		w.Abort()
		return nil, err
	}
	m := s.Metrics()
	m.Counter("segment.spill.tables").Inc()
	m.Counter("segment.spill.rows").Add(uint64(n))
	out.Base = t.Base
	out.shareLineage(t, n)
	out.ColOrigin = t.ColOrigin
	return out, nil
}

// partBufs recycles partition read buffers. A batch owns the bytes of its
// file until its scan moves on (Batch.release) and then hands them back, so
// a pass over a table reads into the few buffers its workers hold instead of
// leaving the table's size in garbage behind it.
var partBufs sync.Pool // of *[]byte

// readFile is os.ReadFile into buf's storage when the file fits.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := 0
	if info, err := f.Stat(); err == nil && info.Size() < 1<<31 {
		size = int(info.Size())
	}
	size++ // one byte over, so that the read that fills the file meets EOF
	if cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	buf = buf[:0]
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// readPartition reads one partition file and verifies it whole — magic,
// header, every block's length and checksum, and that it is the file the
// store wrote for this slot of this table — under the fault site and retry
// policy. Nothing is decoded: the batch holds the verified blocks.
// Corruption is permanent (fails closed, no retry); transient read faults
// are retried when a policy is configured.
func (s *SegmentStore) readPartition(b *segBacking, p *segPart) (*Batch, error) {
	m := s.Metrics()
	var out *Batch
	err := fault.Retry(context.Background(), s.retryPolicy(), m, func(ctx context.Context) error {
		if err := s.faults.Load().Hit(ctx, fault.SiteSegmentRead); err != nil {
			return err
		}
		buf, _ := partBufs.Get().(*[]byte)
		if buf == nil {
			buf = new([]byte)
		}
		data, err := readFile(p.path, *buf)
		if err != nil {
			partBufs.Put(buf)
			return err
		}
		*buf = data
		h, blocks, err := parseSegment(data)
		if err == nil {
			err = b.checkHeader(h, p)
		}
		if err != nil {
			partBufs.Put(buf)
			return fault.Permanent(pathed(err, p.path))
		}
		m.Counter("segment.read.bytes").Add(uint64(len(data)))
		out = &Batch{n: p.rows, cols: make([]*Vector, len(blocks)), seg: b, part: p, hdr: h, blocks: blocks, buf: buf}
		return nil
	})
	if err != nil {
		m.Counter("segment.read.errors").Inc()
		return nil, err
	}
	m.Counter("segment.read.partitions").Inc()
	m.Counter("segment.read.rows").Add(uint64(p.rows))
	return out, nil
}
