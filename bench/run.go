package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the moment the process began: package
// variables initialize before main, a few hundred microseconds after
// exec. setup_s is counted from here.
var processStart = time.Now()

// Options selects one workload run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds sizes the schedule: every workload runs a fixed number of
	// operations, its frozen per-second rate times Seconds, so that the
	// commit the rates were frozen on measures for about Seconds.
	Seconds int
	// Trace adds the traced replay of the first tenth of the schedule and
	// the layer probes, and reports per-layer metrics.
	Trace bool
	// Smoke cuts data sizes and schedules to about a second in total.
	Smoke bool
	// SetupOnly stops after set-up and prints how long it took; it is how
	// a run samples setup_s in fresh processes.
	SetupOnly bool
	// SetupSamples is how many processes setup_s is at least the median
	// of, this one included (childSetups adds more when set-up is short).
	// 1 samples no child process.
	SetupSamples int
	// Log receives the human-readable table (nil discards it).
	Log io.Writer
}

// Measured is one reported number.
type Measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Outcome is everything one run of one workload produced. EndToEnd holds
// the metrics BENCHMARK.json gates, Detail the workload-specific numbers
// (a check's latency, a delta's throughput) that not every workload has
// and the host's slowdown with the gated times as read, Layers the
// per-layer metrics of a traced run. Times and rates in EndToEnd and
// Detail are at reference speed (host.go); Layers are as read.
type Outcome struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]Measured `json:"end_to_end,omitempty"`
	Detail    map[string]Measured `json:"detail,omitempty"`
	Layers    map[string]Measured `json:"layers,omitempty"`
	Notes     []string            `json:"notes,omitempty"`
}

// ResultLine is the one-line JSON object a run prints last: with
// tracing off the metrics are the end-to-end ones, with tracing on the
// per-layer ones.
func (o *Outcome) ResultLine() ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := o.EndToEnd
	if o.Trace {
		src = o.Layers
	}
	metrics := make(map[string]metric, len(src))
	for k, v := range src {
		metrics[k] = metric{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics})
}

// runStats is what executing (part of) a schedule yields.
type runStats struct {
	attempted int             // operations issued, the denominator of the failed share
	failed    int             // operations that errored or answered wrongly
	work      [][]opRecord    // every timed call, per worker goroutine, in order
	block     int             // schedule entries per block of equal work (0: every entry is one)
	host      []*hostClock    // the workers' reference-kernel timings during the pass
	primary   []time.Duration // latencies of the workload's primary operation
	detail    map[string]Measured
	peakHeap  uint64
	notes     []string
}

// entries is how many schedule entries the pass completed.
func (s *runStats) entries() int {
	n := 0
	for _, recs := range s.work {
		for _, r := range recs {
			if r.entry {
				n++
			}
		}
	}
	return n
}

func (s *runStats) fail(format string, args ...any) {
	s.failed++
	if len(s.notes) < 8 {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
}

// env is what a workload gets from the harness.
type env struct {
	opts Options
	dir  string // scratch directory, removed when the run ends
}

// scale picks the full or the smoke value of a size.
func (e *env) scale(full, smoke int) int {
	if e.opts.Smoke {
		return smoke
	}
	return full
}

// opCount is the schedule length of a workload whose frozen rate is
// perSecond operations: fixed work, proportional to the run length.
func (e *env) opCount(perSecond float64, smoke int) int {
	if e.opts.Smoke {
		return smoke
	}
	n := int(perSecond*float64(e.opts.Seconds) + 0.5)
	if n < smoke {
		n = smoke
	}
	return n
}

// runner is one of the five benchmark workloads.
type runner interface {
	// setup does everything a deployment does before its first request:
	// generate data, build engines, compile, listen, warm up.
	setup(e *env) error
	// size is the length of the schedule.
	size() int
	// run executes the first n schedule entries, checking each result as
	// it arrives. With a recorder it also replays every operation layer
	// by layer.
	run(e *env, rec *Recorder, n int) (*runStats, error)
	// verify runs the correctness checks that need a reference built
	// after the timed window (twin engines, a full rebuild).
	verify(e *env, s *runStats) error
	// layers reports the per-layer metrics of a traced run.
	layers(e *env, rec *Recorder, out map[string]float64) error
	close()
}

func newRunner(name string) (runner, error) {
	switch name {
	case "serve-small":
		return &serveWorkload{spec: serveSmall}, nil
	case "serve-large":
		return &serveWorkload{spec: serveLarge}, nil
	case "etl-rebuild":
		return &etlWorkload{}, nil
	case "delta-mixed":
		return &deltaWorkload{}, nil
	case "segment-render":
		return &segmentWorkload{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// Run executes one workload and returns its outcome. With SetupOnly it
// returns after set-up with only setup_s filled in.
func Run(m *Manifest, opts Options) (*Outcome, error) {
	if !m.HasWorkload(opts.Workload) {
		return nil, fmt.Errorf("bench: workload %q is not declared in %s", opts.Workload, ManifestName)
	}
	if opts.Seconds <= 0 {
		opts.Seconds = m.RunSeconds
	}
	w, err := newRunner(opts.Workload)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(m.OutDir(), "tmp", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{opts: opts, dir: dir}
	out := &Outcome{Workload: opts.Workload, Seed: opts.Seed, Seconds: opts.Seconds, Trace: opts.Trace}

	// setup_s is sampled in fresh processes first, so that neither their
	// garbage nor their page-cache traffic touches the measured process.
	spawned := time.Since(processStart)
	var setups []float64
	if !opts.Trace && !opts.SetupOnly {
		if setups, err = childSetups(opts); err != nil {
			return nil, err
		}
	}
	began := time.Now()
	defer w.close()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("bench: %s set-up: %w", opts.Workload, err)
	}
	setups = append(setups, (spawned + time.Since(began)).Seconds())
	setup := Measured{Value: Median(setups), Unit: "s", Samples: len(setups)}
	out.EndToEnd = map[string]Measured{"setup_s": setup}
	if opts.SetupOnly {
		return out, nil // as read: a set-up sample process has no pass to take the host's speed from
	}

	var before, after runtime.MemStats
	if opts.Trace {
		runtime.ReadMemStats(&before)
	}
	full, err := w.run(e, nil, w.size())
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", opts.Workload, err)
	}
	peak, err := procStatusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	// What the deployment holds on to once the traffic stops: collect,
	// hand freed memory back, then read the resident set.
	debug.FreeOSMemory()
	retained, err := procStatusMB("VmRSS")
	if err != nil {
		return nil, err
	}

	if opts.Trace {
		runtime.ReadMemStats(&after)
		rec := &Recorder{}
		// The first tenth of the schedule, but at least five entries: a
		// median of two says little.
		n := w.size() / 10
		if n < 5 {
			n = 5
		}
		if n > w.size() {
			n = w.size()
		}
		traced, err := w.run(e, rec, n)
		if err != nil {
			return nil, fmt.Errorf("bench: %s traced pass: %w", opts.Workload, err)
		}
		layers := map[string]float64{
			"relation.alloc_mb_per_op": float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(full.entries()),
		}
		if base := p50(full.primary); base > 0 {
			layers["bench.trace_overhead"] = float64(p50(traced.primary)) / float64(base)
		}
		if full.peakHeap > 0 {
			layers["relation.segment.peak_heap_mb"] = float64(full.peakHeap) / (1 << 20)
		}
		if err := w.layers(e, rec, layers); err != nil {
			return nil, fmt.Errorf("bench: %s layer probes: %w", opts.Workload, err)
		}
		if err := rec.WriteFile(filepath.Join(m.OutDir(), "trace-"+opts.Workload+".json")); err != nil {
			return nil, err
		}
		full.failed += traced.failed
		full.attempted += traced.attempted
		full.notes = append(full.notes, traced.notes...)
		// Every declared per-layer metric is reported; a layer the
		// workload never enters reads 0.
		out.Layers = map[string]Measured{}
		for _, spec := range m.PerLayer {
			out.Layers[spec.Name] = Measured{Value: layers[spec.Name], Unit: spec.Unit}
			delete(layers, spec.Name)
		}
		for name := range layers {
			return nil, fmt.Errorf("bench: layer metric %q is measured but not declared in %s", name, ManifestName)
		}
	}

	if err := w.verify(e, full); err != nil {
		return nil, fmt.Errorf("bench: %s verification: %w", opts.Workload, err)
	}

	var rate float64
	var renders []time.Duration
	for _, recs := range full.work {
		r, lats := summarize(recs, full.block)
		rate += r
		renders = append(renders, lats...)
	}
	render := Measured{Value: ms(p50(renders)), Unit: "ms", Samples: len(renders)}
	ops := Measured{Value: rate, Unit: "1/s", Samples: full.entries()}
	// Times and rates are reported at reference speed; the raw readings
	// and the slowdown that relates the two go out beside them. Set-up
	// ended seconds before the pass began, on the same host: it is taken
	// at the pass's slowdown.
	slowdown := hostSlowdown(full.host...)
	out.EndToEnd["setup_s"] = atReferenceSpeed(setup, slowdown)
	out.EndToEnd["peak_rss_mb"] = Measured{Value: peak, Unit: "MB", Samples: 1}
	out.EndToEnd["retained_rss_mb"] = Measured{Value: retained, Unit: "MB", Samples: 1}
	out.EndToEnd["render_p50_ms"] = atReferenceSpeed(render, slowdown)
	out.EndToEnd["ops_per_s"] = atReferenceSpeed(ops, slowdown)
	out.Detail = map[string]Measured{"render_p50_raw_ms": render, "ops_per_s_raw": ops, "setup_raw_s": setup,
		"host_slowdown": {Value: slowdown, Unit: "ratio", Samples: hostSamples(full.host)}}
	for name, v := range full.detail {
		out.Detail[name] = atReferenceSpeed(v, slowdown)
	}
	out.Attempted, out.Failed, out.Notes = full.attempted, full.failed, full.notes
	out.Correct = full.failed == 0
	for _, spec := range m.EndToEnd {
		if _, ok := out.EndToEnd[spec.Name]; !ok {
			return nil, fmt.Errorf("bench: end-to-end metric %q is declared but not measured", spec.Name)
		}
	}
	if len(out.EndToEnd) != len(m.EndToEnd) {
		return nil, fmt.Errorf("bench: measured %d end-to-end metrics, %s declares %d", len(out.EndToEnd), ManifestName, len(m.EndToEnd))
	}
	out.print(opts.Log)
	return out, nil
}

// A set-up that takes milliseconds is sampled more often than
// SetupSamples: until the samples add up to setupSampleBudget, but in no
// more than maxSetupChildren processes.
const (
	setupSampleBudget = 1.0 // seconds
	maxSetupChildren  = 10
)

// childSetups runs SetupSamples-1 fresh processes of this program (more
// when set-up is short) up to the end of set-up and returns how long
// each took.
func childSetups(opts Options) ([]float64, error) {
	if opts.SetupSamples <= 1 {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", opts.Workload, "-seed", strconv.FormatInt(opts.Seed, 10),
		"-seconds", strconv.Itoa(opts.Seconds), "-setup-only"}
	if opts.Smoke {
		args = append(args, "-smoke")
	}
	var out []float64
	var total float64
	for i := 1; i < opts.SetupSamples || (total < setupSampleBudget && i <= maxSetupChildren); i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("bench: set-up sample process: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
		if err != nil {
			return nil, fmt.Errorf("bench: set-up sample process printed %q", stdout)
		}
		out = append(out, v)
		total += v
	}
	return out, nil
}

// procStatusMB reads one kB field of /proc/self/status in MB: VmHWM,
// the resident set's high-water mark, or VmRSS, its current size.
// (ru_maxrss would not do for the peak: it survives exec, so under
// `go run` it reports the go tool's peak, not this program's.)
func procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: %s: %w", field, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("bench: %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no %s in /proc/self/status", field)
}

// print writes every metric by name and unit with its sample count.
func (o *Outcome) print(w io.Writer) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%v: attempted=%d failed=%d correct=%v\n",
		o.Workload, o.Seed, o.Seconds, o.Trace, o.Attempted, o.Failed, o.Correct)
	for _, group := range []struct {
		title string
		m     map[string]Measured
	}{{"end-to-end", o.EndToEnd}, {"detail", o.Detail}, {"per-layer", o.Layers}} {
		names := make([]string, 0, len(group.m))
		for name := range group.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := group.m[name]
			samples := ""
			if v.Samples > 0 {
				samples = fmt.Sprintf("  n=%d", v.Samples)
			}
			fmt.Fprintf(w, "  %-10s %-36s %14.4f %-6s%s\n", group.title, name, v.Value, v.Unit, samples)
		}
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
