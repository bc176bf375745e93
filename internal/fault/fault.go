// Package fault is the engine's failure-handling substrate: a
// deterministic, seedable fault-injection layer, bounded-exponential
// retry with jitter, and panic isolation for worker-pool goroutines.
//
// The paper frames meta-reports as pre-deployment *test cases* for
// ETL/report compliance (§5); this package extends that idea to the
// failure scenarios. Every operational boundary of the engine — source
// access, ETL steps, enforcement workers, audit-sink writes — consults
// an optional Injector keyed by a stable site name, so chaos suites can
// drive randomized-but-reproducible fault schedules through the full
// stack and assert the enforcement invariants hold: a failing component
// degrades into a typed error, never a process crash, and never into
// un-audited data reaching a consumer.
//
// Design constraints mirror internal/obs: stdlib only (fault sits below
// etl, enforce, audit and core), every method nil-receiver-safe so
// instrumentation points need no nil checks, and all randomness derived
// from an explicit seed so a failing schedule can be replayed exactly.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plabi/internal/obs"
)

// Canonical injection-site names. Boundaries consult the injector under
// these keys; chaos schedules and docs refer to them.
const (
	// SiteETLExtract is the source-access boundary (retryable).
	SiteETLExtract = "etl.extract"
	// SiteETLStep wraps every ETL step execution.
	SiteETLStep = "etl.step"
	// SiteETLDelta wraps each per-step delta application during an
	// incremental refresh (Pipeline.ApplyDelta).
	SiteETLDelta = "etl.delta"
	// SiteRenderWorker wraps each render row-enforcement chunk.
	SiteRenderWorker = "render.worker"
	// SiteAuditSink wraps each audit-sink write (retryable).
	SiteAuditSink = "audit.sink.write"
	// SiteReleaseSource wraps each source-level anonymized release.
	SiteReleaseSource = "release.source"
	// SiteSegmentRead wraps each segment partition read (retryable).
	SiteSegmentRead = "relation.segment.read"
)

// Sites lists every registered injection site.
func Sites() []string {
	return []string{SiteETLExtract, SiteETLStep, SiteETLDelta, SiteRenderWorker, SiteAuditSink, SiteReleaseSource, SiteSegmentRead}
}

// RetrySites lists the sites that consult a retry policy; a per-site
// override anywhere else would never be read.
func RetrySites() []string {
	return []string{SiteETLExtract, SiteAuditSink, SiteSegmentRead}
}

// ErrInjected is the sentinel behind every injected error, matched with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// SiteError is one injected error. Transient injected errors report
// Temporary() == true and are eligible for retry.
type SiteError struct {
	// Site is the injection site that fired.
	Site string
	// Fire is the global fire ordinal within the injector's schedule.
	Fire uint64
	// transient marks the error retryable.
	transient bool
}

// Error implements error.
func (e *SiteError) Error() string {
	return fmt.Sprintf("fault: injected error at %s (fire %d)", e.Site, e.Fire)
}

// Unwrap lets errors.Is(err, ErrInjected) succeed.
func (e *SiteError) Unwrap() error { return ErrInjected }

// Temporary reports whether the injected error is retryable.
func (e *SiteError) Temporary() bool { return e.transient }

// PanicValue is what an injected panic panics with, so recovery sites
// can distinguish injected panics from organic ones in tests.
type PanicValue struct {
	Site string
	Fire uint64
}

// String implements fmt.Stringer.
func (p *PanicValue) String() string {
	return fmt.Sprintf("injected panic at %s (fire %d)", p.Site, p.Fire)
}

// SiteConfig configures fault injection at one site. Rates are
// per-call probabilities in [0, 1]; at most one fault fires per call
// (panic wins over error over latency when the draw lands in an
// overlapping region).
type SiteConfig struct {
	// ErrorRate is the probability of returning an injected error.
	ErrorRate float64
	// PanicRate is the probability of panicking with *PanicValue.
	PanicRate float64
	// LatencyRate is the probability of sleeping Latency (honouring
	// ctx cancellation) before returning cleanly.
	LatencyRate float64
	// Latency is the injected delay for latency fires.
	Latency time.Duration
	// Transient marks injected errors retryable (Temporary() == true).
	Transient bool
	// Times bounds the total fires at this site (0 = unlimited). A
	// Times-bounded site with rate 1 yields a deterministic
	// "fail N times, then succeed" schedule for retry tests.
	Times int
}

// Fire records one fired fault, for schedule artifacts and replay.
type Fire struct {
	// Seq is the global fire ordinal across all sites.
	Seq uint64 `json:"seq"`
	// Site is the injection site.
	Site string `json:"site"`
	// Kind is "error", "panic" or "latency".
	Kind string `json:"kind"`
	// Call is the per-site call ordinal the fault fired on.
	Call uint64 `json:"call"`
	// Transient marks an injected error retryable, so a replayed error
	// keeps its retry eligibility.
	Transient bool `json:"transient,omitempty"`
}

// Injector injects faults at named sites from a seeded schedule. The
// nil injector is a no-op, so boundaries call Hit unconditionally. All
// methods are safe for concurrent use; per-site randomness derives from
// the seed, so a fixed seed replays the same per-call schedule.
type Injector struct {
	seed    int64
	metrics atomic.Pointer[obs.Metrics]

	mu       sync.Mutex
	sites    map[string]*siteState
	fires    uint64
	schedule []Fire
	// replay, when non-nil, pins the fault schedule: site -> per-site
	// call ordinal -> recorded fire. The RNG and the site rates are
	// bypassed entirely (see ReplaySchedule).
	replay map[string]map[uint64]Fire
}

type siteState struct {
	cfg   SiteConfig
	rng   *rand.Rand
	calls uint64
	fired int
}

// NewInjector returns an injector with no enabled sites.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: seed, sites: map[string]*siteState{}}
}

// Seed returns the injector's seed.
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// SetMetrics attaches an observability registry: fires maintain the
// fault.injected counters and emit fault.inject spans.
func (i *Injector) SetMetrics(m *obs.Metrics) {
	if i == nil {
		return
	}
	i.metrics.Store(m)
}

func (i *Injector) obs() *obs.Metrics {
	if i == nil {
		return nil
	}
	return i.metrics.Load()
}

// Enable configures injection at one site, replacing any previous
// configuration. The site's randomness is seeded from the injector seed
// and the site name, so enabling sites in a different order does not
// change per-site schedules.
func (i *Injector) Enable(site string, cfg SiteConfig) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.sites[site] = &siteState{cfg: cfg, rng: rand.New(rand.NewSource(i.seed ^ int64(siteHash(site))))}
}

// siteHash is a stable FNV-1a over the site name.
func siteHash(site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// fire is the resolved decision for one Hit call.
type fire struct {
	kind  string
	seq   uint64
	delay time.Duration
}

// Hit consults the injector at a site. It returns an injected error,
// panics with *PanicValue, sleeps an injected latency (honouring ctx:
// a cancelled sleep returns the context error), or — for unconfigured
// sites, nil injectors and clean draws — returns nil.
func (i *Injector) Hit(ctx context.Context, site string) error {
	if i == nil {
		return nil
	}
	f, transient := i.decide(site)
	if f == nil {
		return nil
	}
	m := i.obs()
	m.Counter("fault.injected").Inc()
	m.Counter("fault.injected." + site).Inc()
	_, span := m.StartSpan(ctx, "fault.inject")
	span.Set("site", site)
	span.Set("kind", f.kind)
	defer span.End()
	switch f.kind {
	case "latency":
		if err := sleepCtx(ctx, f.delay); err != nil {
			return err
		}
		return nil
	case "error":
		return &SiteError{Site: site, Fire: f.seq, transient: transient}
	default: // panic
		span.End()
		panic(&PanicValue{Site: site, Fire: f.seq})
	}
}

// ReplaySchedule switches the injector to replay mode: instead of
// drawing fault fates from the seeded RNG, the injector fires exactly
// the recorded faults — same site, same per-site call ordinal, same
// kind, same transience — and nothing else. Site rates, Times bounds
// and the seed are ignored; sites named by the schedule are tracked on
// demand, so the replay injector needs no Enable calls. Combined with a
// deterministic execution order (single-worker engine), replaying the
// Schedule() of a previous run reproduces it exactly even after the
// site configuration has changed; latency fires reuse the site's
// configured Latency (zero when the site was never enabled).
func (i *Injector) ReplaySchedule(fires []Fire) {
	if i == nil {
		return
	}
	plan := map[string]map[uint64]Fire{}
	for _, f := range fires {
		byCall := plan[f.Site]
		if byCall == nil {
			byCall = map[uint64]Fire{}
			plan[f.Site] = byCall
		}
		byCall[f.Call] = f
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.replay = plan
}

// decide draws the fate of one call under the injector lock.
func (i *Injector) decide(site string) (*fire, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.replay != nil {
		return i.decideReplay(site)
	}
	st, ok := i.sites[site]
	if !ok {
		return nil, false
	}
	st.calls++
	if st.cfg.Times > 0 && st.fired >= st.cfg.Times {
		return nil, false
	}
	r := st.rng.Float64()
	var kind string
	switch {
	case r < st.cfg.PanicRate:
		kind = "panic"
	case r < st.cfg.PanicRate+st.cfg.ErrorRate:
		kind = "error"
	case r < st.cfg.PanicRate+st.cfg.ErrorRate+st.cfg.LatencyRate:
		kind = "latency"
	default:
		return nil, false
	}
	st.fired++
	i.fires++
	f := &fire{kind: kind, seq: i.fires, delay: st.cfg.Latency}
	i.schedule = append(i.schedule, Fire{Seq: f.seq, Site: site, Kind: kind, Call: st.calls, Transient: st.cfg.Transient})
	return f, st.cfg.Transient
}

// decideReplay resolves one call against the pinned schedule. Called
// with i.mu held.
func (i *Injector) decideReplay(site string) (*fire, bool) {
	byCall, ok := i.replay[site]
	if !ok {
		return nil, false
	}
	st := i.sites[site]
	if st == nil {
		st = &siteState{}
		i.sites[site] = st
	}
	st.calls++
	rec, ok := byCall[st.calls]
	if !ok {
		return nil, false
	}
	st.fired++
	i.fires++
	f := &fire{kind: rec.Kind, seq: i.fires, delay: st.cfg.Latency}
	i.schedule = append(i.schedule, Fire{Seq: f.seq, Site: site, Kind: rec.Kind, Call: st.calls, Transient: rec.Transient})
	return f, rec.Transient
}

// Schedule returns a copy of every fault fired so far, in fire order —
// the replayable artifact a failing chaos run uploads.
func (i *Injector) Schedule() []Fire {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Fire(nil), i.schedule...)
}

// Counts returns the number of fires per site, for run summaries.
func (i *Injector) Counts() map[string]int {
	out := map[string]int{}
	for _, f := range i.Schedule() {
		out[f.Site]++
	}
	return out
}

// String summarizes the injector's fire counts in sorted site order.
func (i *Injector) String() string {
	counts := i.Counts()
	sites := make([]string, 0, len(counts))
	for s := range counts {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	out := fmt.Sprintf("fault injector (seed %d):", i.Seed())
	if len(sites) == 0 {
		return out + " no fires"
	}
	for _, s := range sites {
		out += fmt.Sprintf(" %s=%d", s, counts[s])
	}
	return out
}

// sleepCtx sleeps d, returning early with the context error when ctx is
// cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
