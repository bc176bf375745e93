package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"plabi/internal/workload"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := durations(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	for _, tc := range []struct {
		q    float64
		want int
	}{{0.50, 50}, {0.51, 60}, {0.90, 90}, {0.99, 100}, {1, 100}, {0.01, 10}} {
		if got := Percentile(s, tc.q); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("p%g = %v, want %dms", tc.q*100, got, tc.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty sample must yield 0")
	}
	if got := p50(durations(3, 1, 2)); got != 2*time.Millisecond {
		t.Errorf("p50 of unsorted {3,1,2} = %v", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Microsecond
	}
	if v, err := TailPercentile(s, 0.99); err != nil || v != 990*time.Microsecond {
		t.Errorf("p99 of 1000 = %v, %v", v, err)
	}
	if _, err := TailPercentile(s[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := TailPercentile(s[:150], 0.99); err == nil {
		t.Error("p99 of 150 samples must be refused")
	}
}

func TestSpreadIsPythonsQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := Series{Values: []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}}
	if got, want := s.Spread(), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if (Series{Values: []float64{4}}).Spread() != 0 {
		t.Error("a single value has no spread")
	}
}

func TestSchedulesAreAFunctionOfTheSeed(t *testing.T) {
	encode := func(seed int64) []byte {
		ds, err := workload.Generate(scenarioConfig(dataSeed(seed, "delta"), 3000))
		if err != nil {
			t.Fatal(err)
		}
		var all []any
		for c := 0; c < clients; c++ {
			all = append(all, ServeSchedule(seed, c, 3, serveSmall.block))
		}
		all = append(all, DeltaSchedule(seed, ds, 3000, 2), dataSeed(seed, "alpha"), dataSeed(seed, "beta"))
		data, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, other := encode(1), encode(1), encode(2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different schedules")
	}
	if bytes.Equal(a, other) {
		t.Error("seed 2 produced seed 1's schedules")
	}
	if bytes.Equal(mustJSON(t, ServeSchedule(1, 0, 3, serveSmall.block)), mustJSON(t, ServeSchedule(1, 1, 3, serveSmall.block))) {
		t.Error("two clients share one request order")
	}
}

// Every block of a serving schedule holds exactly the block's requests,
// whatever the seed: the seed orders the work, it does not size it.
func TestServeBlocksAreEqualWork(t *testing.T) {
	b := serveSmall.block
	if share := float64(b.Tenants*b.Renders*b.PerRender) / float64(b.Len()); share != 0.7 {
		t.Errorf("serve-small sends %.2f renders, want 0.70", share)
	}
	for _, seed := range []int64{1, 2} {
		ops := ServeSchedule(seed, 0, 4, b)
		if len(ops) != 4*b.Len() {
			t.Fatalf("%d requests, want %d", len(ops), 4*b.Len())
		}
		for blk := 0; blk < 4; blk++ {
			counts := map[ServeOp]int{}
			for _, op := range ops[blk*b.Len() : (blk+1)*b.Len()] {
				counts[op]++
			}
			if len(counts) != b.Tenants*(b.Renders+b.Checks) {
				t.Fatalf("seed %d block %d: %d distinct requests", seed, blk, len(counts))
			}
			for op, n := range counts {
				if want := map[bool]int{false: b.PerRender, true: b.PerCheck}[op.Check]; n != want {
					t.Errorf("seed %d block %d: %+v sent %d times, want %d", seed, blk, op, n, want)
				}
			}
		}
	}
}

// The throughput is the median block's: a slow block does not move it,
// a slow run does.
func TestSummarizeReportsTheMedianBlock(t *testing.T) {
	var recs []opRecord
	for blk := 0; blk < 5; blk++ {
		lat := 10 * time.Millisecond
		if blk == 1 {
			lat = 50 * time.Millisecond // the host was busy
		}
		for i := 0; i < 4; i++ {
			recs = append(recs, opRecord{lat: lat}, opRecord{lat: lat, render: i%2 == 0, entry: true})
		}
	}
	rate, renders := summarize(recs, 4)
	if want := 4 / 0.08; rate < want-1e-9 || rate > want+1e-9 {
		t.Errorf("rate = %v, want %v", rate, want)
	}
	if len(renders) != 10 {
		t.Errorf("%d render latencies, want 10", len(renders))
	}
	if rate, _ := summarize(recs[:6], 4); rate < 49.9 || rate > 50.1 {
		t.Errorf("a lone partial block: rate = %v, want 50", rate)
	}
	if rate, _ := summarize(recs[:14], 4); rate < 49.9 || rate > 50.1 {
		t.Errorf("a trailing partial block must not count: rate = %v, want 50", rate)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDeltaScheduleKeepsTheTableStationary(t *testing.T) {
	ds, err := workload.Generate(scenarioConfig(7, 3000))
	if err != nil {
		t.Fatal(err)
	}
	ops := DeltaSchedule(7, ds, 3000, 3)
	if len(ops) != 3*deltaBlockOps {
		t.Fatalf("%d ops, want %d", len(ops), 3*deltaBlockOps)
	}
	rows := 3000
	for i, op := range ops {
		d := op.Batch.Deltas[0]
		for _, u := range d.Updates {
			if u.Row < 0 || u.Row >= 3000 {
				t.Fatalf("op %d updates row %d outside the base table", i, u.Row)
			}
		}
		for _, ri := range d.Deletes {
			if ri < 3000 || ri >= rows {
				t.Fatalf("op %d deletes row %d of a %d-row table", i, ri, rows)
			}
		}
		rows += len(d.Inserts) - len(d.Deletes)
		if (i+1)%deltaBlockOps == 0 && (op.Kind != DeltaDelete || rows != 3000) {
			t.Fatalf("block ending at op %d leaves %d rows (kind %s)", i, rows, op.Kind)
		}
	}
}

func testEnv(t *testing.T, opts Options) *env {
	t.Helper()
	opts.Smoke = true
	if opts.Seconds == 0 {
		opts.Seconds = 1
	}
	return &env{opts: opts, dir: t.TempDir()}
}

// A wrong expectation must turn into failed operations: the checks are
// only worth their cost if they can fail.
func TestCorruptedExpectationFailsTheOperation(t *testing.T) {
	t.Run("etl checksum", func(t *testing.T) {
		e := testEnv(t, Options{Workload: "etl-rebuild", Seed: 3})
		w := &etlWorkload{}
		defer w.close()
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		if st, err := w.run(e, nil, 1); err != nil || st.failed != 0 {
			t.Fatalf("clean run: failed=%d err=%v notes=%v", st.failed, err, st.notes)
		}
		w.wantSum ^= 1
		st, err := w.run(e, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.failed != 2 || st.attempted != 4 {
			t.Errorf("corrupted checksum: failed=%d of attempted=%d, want 2 of 4", st.failed, st.attempted)
		}
	})
	t.Run("served response", func(t *testing.T) {
		e := testEnv(t, Options{Workload: "serve-small", Seed: 3})
		w := &serveWorkload{spec: serveSmall}
		defer w.close()
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		st, err := w.run(e, nil, 50)
		if err != nil {
			t.Fatal(err)
		}
		if st.failed != 0 {
			t.Fatalf("clean run: failed=%d notes=%v", st.failed, st.notes)
		}
		w.pending[1][7].digest ^= 1
		if err := w.verify(e, st); err != nil {
			t.Fatal(err)
		}
		if st.failed != 1 {
			t.Errorf("one corrupted response: failed=%d, want 1 (%v)", st.failed, st.notes)
		}
	})
	t.Run("segment digest", func(t *testing.T) {
		e := testEnv(t, Options{Workload: "segment-render", Seed: 3})
		w := &segmentWorkload{}
		defer w.close()
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		w.want ^= 1
		st, err := w.run(e, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.verify(e, st); err != nil {
			t.Fatal(err)
		}
		if st.failed != 3 { // two renders and the twin's
			t.Errorf("failed=%d, want 3 (%v)", st.failed, st.notes)
		}
	})
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The declaration must stay inside the limits its consumer enforces.
func TestManifestMeetsItsContract(t *testing.T) {
	m, err := FindManifest()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := newRunner(w.Name); err != nil {
			t.Error(err)
		}
	}
	setup := false
	for _, s := range m.EndToEnd {
		name(s.Name)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v", s.Name, s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, s := range append(append([]MetricSpec(nil), m.EndToEnd...), m.PerLayer...) {
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
	for _, s := range m.PerLayer {
		name(s.Name)
		if s.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", s.Name)
		}
	}
}

// Every workload, cut to about a second, untraced and traced: the names
// a run emits are exactly the names BENCHMARK.json declares, and every
// correctness check passes. This is what keeps the benchmark from
// rotting between the PRs that use it.
func TestSmokeRunsEmitExactlyTheDeclaredMetrics(t *testing.T) {
	m, err := FindManifest()
	if err != nil {
		t.Fatal(err)
	}
	declared := func(specs []MetricSpec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, s.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, wl := range m.Workloads {
		for _, trace := range []bool{false, true} {
			out, err := Run(m, Options{Workload: wl.Name, Seed: 5, Seconds: 1, Trace: trace, Smoke: true, SetupSamples: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v", wl.Name, trace, out.Correct, out.Failed, out.Attempted, out.Notes)
			}
			line, err := out.ResultLine()
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&parsed); err != nil || parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil {
				t.Fatalf("%s trace=%v: result line %s: %v", wl.Name, trace, line, err)
			}
			want := declared(m.EndToEnd)
			if trace {
				want = declared(m.PerLayer)
			}
			var got []string
			for name, v := range parsed.Metrics {
				got = append(got, name)
				if v.Value == nil || v.Unit == "" {
					t.Errorf("%s: metric %s lacks a value or a unit", wl.Name, name)
				}
				if !trace && *v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v must never be 0", wl.Name, name, *v.Value)
				}
			}
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Errorf("%s trace=%v emitted\n%v\ndeclared\n%v", wl.Name, trace, got, want)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(m.OutDir(), "trace-"+wl.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", wl.Name, err)
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompareAppliesBoundsAndSpread(t *testing.T) {
	m := &Manifest{
		Workloads: []WorkloadSpec{{Name: "w"}},
		EndToEnd: []MetricSpec{
			{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "noisy_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "gone_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
	}
	set := func(failed int, lat, ops float64, noisy []float64, gone bool) *Result {
		r := &Result{Workloads: map[string]*WorkloadResult{"w": {Attempted: 100, Failed: failed, Metrics: map[string]Series{
			"lat_ms":    {Unit: "ms", Values: []float64{lat, lat, lat}},
			"ops_per_s": {Unit: "1/s", Values: []float64{ops, ops, ops}},
			"noisy_ms":  {Unit: "ms", Values: noisy},
		}}}}
		if !gone {
			r.Workloads["w"].Metrics["gone_ms"] = Series{Unit: "ms", Values: []float64{1}}
		}
		return r
	}
	old := set(0, 10, 100, []float64{10, 10, 10, 10}, false)
	verdicts := func(cur *Result) map[string]string {
		out := map[string]string{}
		for _, r := range Compare(m, old, cur) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	same := verdicts(set(0, 10.9, 91, []float64{10, 10, 10, 10}, false))
	for metric, v := range same {
		if v != VerdictOK {
			t.Errorf("within bounds: %s is %s", metric, v)
		}
	}
	worse := verdicts(set(1, 11.5, 85, []float64{5, 9, 15, 30}, true))
	for metric, want := range map[string]string{
		"failed_share": VerdictRegressed,  // 0 → 1 %
		"lat_ms":       VerdictRegressed,  // +15 % against a 10 % bound
		"ops_per_s":    VerdictRegressed,  // −15 %, higher is better
		"noisy_ms":     VerdictUnresolved, // worse, but its own runs spread wider than the bound
		"gone_ms":      VerdictUnresolved, // missing on one side
	} {
		if worse[metric] != want {
			t.Errorf("%s: %s, want %s", metric, worse[metric], want)
		}
	}
	var buf bytes.Buffer
	if !PrintRows(&buf, Compare(m, old, set(0, 20, 100, []float64{10, 10, 10, 10}, false))) {
		t.Error("a doubled latency must report a regression")
	}
}

// The reference kernel is a ruler: the same work on every call, on any
// clock, and none of it the allocator's.
func TestHostKernelIsFixedWork(t *testing.T) {
	a, b := newHostClock(), newHostClock()
	want := a.kernel()
	for i := 0; i < 3; i++ {
		if got := b.kernel(); got != want {
			t.Fatalf("kernel run %d returned %d, want %d", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { a.kernel() }); n != 0 {
		t.Errorf("the kernel allocates %v times a run", n)
	}
}

func TestTimesAreReportedAtReferenceSpeed(t *testing.T) {
	c := &hostClock{durs: []time.Duration{3 * hostNominal, hostNominal, 2 * hostNominal, 2 * hostNominal, 9 * hostNominal}}
	more := &hostClock{durs: make([]time.Duration, minHostSamples)}
	for i := range more.durs {
		more.durs[i] = 2 * hostNominal
	}
	slow := hostSlowdown(c, nil, more)
	if slow != 2 {
		t.Fatalf("slowdown = %v, want the median timing over the nominal one, 2", slow)
	}
	for _, tc := range []struct {
		in   Measured
		want float64
	}{
		{Measured{Value: 30, Unit: "ms"}, 15},
		{Measured{Value: 4, Unit: "s"}, 2},
		{Measured{Value: 100, Unit: "1/s"}, 200},
		{Measured{Value: 512, Unit: "MB"}, 512},
	} {
		if got := atReferenceSpeed(tc.in, slow); got.Value != tc.want || got.Unit != tc.in.Unit {
			t.Errorf("%v %s at reference speed = %v %s, want %v", tc.in.Value, tc.in.Unit, got.Value, got.Unit, tc.want)
		}
	}
	// A pass too short to have sampled the kernel is topped up, not
	// reported against nothing.
	if got := hostSlowdown(); got <= 0 {
		t.Errorf("slowdown without samples = %v", got)
	}
}
