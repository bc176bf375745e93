package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer during the traced pass. Spans of
// one operation share Op; Parent is the index (in the trace file) of the
// span of the enclosing layer, -1 for the outermost. Start and End are
// nanoseconds since the process started.
//
// The spans of an operation are a replay, not a capture: the harness
// issues the same request at each layer's public entry point in turn, so
// a child's interval does not lie inside its parent's. Durations nest
// (the parent's call does everything the child's does); wall-clock
// intervals do not.
type Span struct {
	Layer  string `json:"layer"`
	Kind   string `json:"kind"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the workload ends. A nil
// *Recorder records nothing, so untraced runs share the code path.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span of layer/kind for operation op under parent and
// returns its index together with the function that closes it (-1 and a
// no-op on a nil recorder). The recorder's lock is taken before the
// clock is read at the start and after it is read at the end, so
// bookkeeping stays outside the interval.
func (r *Recorder) Begin(layer, kind string, op, parent int) (int, func()) {
	if r == nil {
		return -1, func() {}
	}
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, Span{Layer: layer, Kind: kind, Op: op, Parent: parent})
	r.mu.Unlock()
	start := time.Since(processStart)
	return idx, func() {
		end := time.Since(processStart)
		r.mu.Lock()
		r.spans[idx].Start, r.spans[idx].End = int64(start), int64(end)
		r.mu.Unlock()
	}
}

// Time runs fn as one span and returns the span's index.
func (r *Recorder) Time(layer, kind string, op, parent int, fn func()) int {
	idx, end := r.Begin(layer, kind, op, parent)
	fn()
	end()
	return idx
}

// Durations returns the durations of every span of the layer whose kind
// has the given prefix ("" matches all).
func (r *Recorder) Durations(layer, kindPrefix string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Layer == layer && strings.HasPrefix(s.Kind, kindPrefix) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// P50 is the median duration of the matching spans (0 when none).
func (r *Recorder) P50(layer, kindPrefix string) time.Duration {
	return p50(r.Durations(layer, kindPrefix))
}

// WriteFile writes the spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
