package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// detailSpecs are the workload-specific end-to-end numbers: each exists
// on the workloads that run its operation and nowhere else, so it cannot
// be a column of BENCHMARK.json's metric × workload matrix. Comparisons
// gate them with these bounds all the same.
var detailSpecs = []MetricSpec{
	{Name: "render_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},  // serve-small
	{Name: "check_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},   // serve-small
	{Name: "etl_run_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}, // etl-rebuild
	{Name: "etl_rows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "delta_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},       // delta-mixed, insert-dominated
	{Name: "delta_rows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}, // update/delete-dominated
}

// Series is one metric of one workload over the runs of a result set.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// Median is the series' middle value.
func (s Series) Median() float64 { return Median(s.Values) }

// Spread is the distance between the first and third quartile as a share
// of the median, quartiles as Python's statistics.quantiles(n=4) gives
// them; 0 with fewer than two values.
func (s Series) Spread() float64 {
	n := len(s.Values)
	med := s.Median()
	if n < 2 || med == 0 {
		return 0
	}
	v := append([]float64(nil), s.Values...)
	sort.Float64s(v)
	quartile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position among the sorted values
		lo := int(pos)
		switch {
		case lo < 1:
			return v[0]
		case lo >= n:
			return v[n-1]
		}
		return v[lo-1] + (pos-float64(lo))*(v[lo]-v[lo-1])
	}
	d := (quartile(3) - quartile(1)) / med
	if d < 0 {
		d = -d
	}
	return d
}

// WorkloadResult is every run of one workload.
type WorkloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Series `json:"metrics"`
}

// Result is one full set of runs: what result.json holds and what
// Compare reads.
type Result struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Runs      int                        `json:"runs"`
	Trace     bool                       `json:"trace"`
	GoVersion string                     `json:"go_version"`
	Workloads map[string]*WorkloadResult `json:"workloads"`
}

// RunAll runs every declared workload runs times, each run in a fresh
// process of this program (so peak RSS and set-up are per workload) with
// seeds seed, seed+1, …, and collects the outcomes. With opts.Trace
// every run is followed by a traced one.
func RunAll(m *Manifest, opts Options, runs int, log io.Writer) (*Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if opts.Seconds <= 0 {
		opts.Seconds = m.RunSeconds
	}
	if err := os.MkdirAll(m.OutDir(), 0o755); err != nil {
		return nil, err
	}
	res := &Result{Seed: opts.Seed, Seconds: opts.Seconds, Runs: runs, Trace: opts.Trace,
		GoVersion: runtime.Version(), Workloads: map[string]*WorkloadResult{}}
	traces := []int{0}
	if opts.Trace {
		traces = append(traces, 1)
	}
	for r := 0; r < runs; r++ {
		for _, w := range m.Workloads {
			wr := res.Workloads[w.Name]
			if wr == nil {
				wr = &WorkloadResult{Metrics: map[string]Series{}}
				res.Workloads[w.Name] = wr
			}
			for _, trace := range traces {
				path := filepath.Join(m.OutDir(), fmt.Sprintf("outcome-%s-%d.json", w.Name, trace))
				args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(opts.Seed+int64(r), 10),
					"-seconds", strconv.Itoa(opts.Seconds), "-trace", strconv.Itoa(trace), "-outcome", path}
				if opts.Smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(exe, args...)
				cmd.Stderr = log
				if err := cmd.Run(); err != nil {
					return nil, fmt.Errorf("bench: %s (seed %d, trace %d): %w", w.Name, opts.Seed+int64(r), trace, err)
				}
				out, err := readOutcome(path)
				if err != nil {
					return nil, err
				}
				wr.Attempted += out.Attempted
				wr.Failed += out.Failed
				groups := []map[string]Measured{out.EndToEnd, out.Detail}
				if trace == 1 {
					groups = []map[string]Measured{out.Layers}
				}
				for _, g := range groups {
					for name, v := range g {
						s := wr.Metrics[name]
						s.Unit = v.Unit
						s.Values = append(s.Values, v.Value)
						wr.Metrics[name] = s
					}
				}
			}
		}
	}
	return res, nil
}

// WriteOutcome stores one run's full outcome for RunAll to collect.
func WriteOutcome(path string, o *Outcome) error {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readOutcome(path string) (*Outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o Outcome
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &o, nil
}

// WriteFile stores the result set as indented JSON.
func (r *Result) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResult loads a result set written by WriteFile.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Print writes one row per (workload, metric): the median over the runs
// and the spread between them.
func (r *Result) Print(m *Manifest, w io.Writer) {
	for _, wl := range m.Workloads {
		wr := r.Workloads[wl.Name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "%s: attempted=%d failed=%d runs=%d\n", wl.Name, wr.Attempted, wr.Failed, r.Runs)
		names := make([]string, 0, len(wr.Metrics))
		for name := range wr.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := wr.Metrics[name]
			fmt.Fprintf(w, "  %-40s %14.4f %-6s spread %5.1f%%\n", name, s.Median(), s.Unit, 100*s.Spread())
		}
	}
}

// Verdicts of a comparison row.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// Row is one (metric, workload) pairing of a comparison.
type Row struct {
	Metric, Workload string
	Unit             string
	Old, New         float64 // medians
	Ratio            float64 // New ÷ Old: the base is the old result
	Bound            float64
	Verdict          string
}

// Compare applies the regression bounds — BENCHMARK.json's for the
// end-to-end metrics, detailSpecs' for the workload-specific ones — to
// two result sets. A metric regressed when its median worsened by more
// than its bound; when the runs of either side spread wider than the
// bound, or one side lacks the metric, the row is unresolved instead. A
// higher failed share is a regression of its own row.
func Compare(m *Manifest, old, cur *Result) []Row {
	var rows []Row
	specs := append(append([]MetricSpec(nil), m.EndToEnd...), detailSpecs...)
	for _, wl := range m.Workloads {
		o, n := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if o == nil || n == nil {
			rows = append(rows, Row{Metric: "*", Workload: wl.Name, Verdict: VerdictUnresolved})
			continue
		}
		share := func(w *WorkloadResult) float64 {
			if w.Attempted == 0 {
				return 1
			}
			return float64(w.Failed) / float64(w.Attempted)
		}
		fr := Row{Metric: "failed_share", Workload: wl.Name, Unit: "share", Old: share(o), New: share(n), Verdict: VerdictOK}
		if fr.Old > 0 {
			fr.Ratio = fr.New / fr.Old
		}
		if fr.New > fr.Old {
			fr.Verdict = VerdictRegressed
		}
		rows = append(rows, fr)
		for _, spec := range specs {
			was, oldHas := o.Metrics[spec.Name]
			now, newHas := n.Metrics[spec.Name]
			if !oldHas && !newHas {
				continue // the workload does not run this operation
			}
			row := Row{Metric: spec.Name, Workload: wl.Name, Unit: spec.Unit, Old: was.Median(), New: now.Median(),
				Bound: spec.Bound, Verdict: VerdictUnresolved}
			if oldHas && newHas && row.Old != 0 {
				row.Ratio = row.New / row.Old
				worse := row.Ratio - 1
				if spec.Better == "higher" {
					worse = 1 - row.Ratio
				}
				switch {
				case worse <= spec.Bound:
					row.Verdict = VerdictOK
				case was.Spread() <= spec.Bound && now.Spread() <= spec.Bound:
					row.Verdict = VerdictRegressed
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintRows writes the comparison table and reports whether any row
// regressed.
func PrintRows(w io.Writer, rows []Row) (regressed bool) {
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %-6s %12s %6s  %s\n", "metric", "workload", "old", "new", "unit", "new/old", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %-6s %12.4f %6.2f  %s\n",
			r.Metric, r.Workload, r.Old, r.New, r.Unit, r.Ratio, r.Bound, r.Verdict)
		if r.Verdict == VerdictRegressed {
			regressed = true
		}
	}
	return regressed
}
