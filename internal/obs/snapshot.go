package obs

import (
	"encoding/json"
	"io"
)

// Snapshot is a point-in-time copy of every registered metric. Maps are
// always non-nil, so callers may merge further entries in (the engine
// merges its cache and audit gauges this way).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every counter, gauge and histogram. Safe to call
// concurrently with writers; each metric is read atomically.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if m == nil {
		return s
	}
	m.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	m.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	m.hists.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return s
}

// WriteJSON writes the full snapshot as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	return WriteSnapshotJSON(w, m.Snapshot())
}

// WriteSnapshotJSON writes an (optionally merged) snapshot as indented
// JSON.
func WriteSnapshotJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
