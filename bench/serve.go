package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"plabi/api"
	apiv1 "plabi/api/v1"
	"plabi/internal/core"
	"plabi/internal/serve"
)

// serveTenant is one tenant of a serving workload. A tenant is part of
// the deployment under test, so its dataset seed is fixed; the run's
// -seed generates the traffic. (At 1 200 prescriptions the number of
// groups under the aggregation threshold, and with it the audit volume
// per render, moves by ±20 % from one dataset seed to the next; that is
// a different deployment, not a different run.)
type serveTenant struct {
	name          string
	seed          int64
	prescriptions [2]int // full, smoke
	extraPLAs     string
}

// serveSpec parameterizes the two serving workloads: the same transport
// and request mix over opposite balances of data size and row shipping.
type serveSpec struct {
	tenants  []serveTenant
	omitRows bool
	// block is what one client sends per tenant in every block of its
	// schedule; the order inside a block is the seed's.
	block ServeBlock
	// perClientPerSecond is the frozen closed-loop rate of one client on
	// the commit the benchmark was sized on.
	perClientPerSecond float64
	smokeBlocks        int
}

// clients is the closed-loop client count: plabid's callers are BI
// front-ends that block on the decision, and the box has two cores —
// more clients would measure the run queue, not the server.
const clients = 2

var (
	serveSmall = serveSpec{
		tenants: []serveTenant{
			{name: "alpha", seed: 1, prescriptions: [2]int{1200, 1200}},
			{name: "beta", seed: 2, prescriptions: [2]int{800, 800},
				extraPLAs: `pla "beta-mask" { owner "hospital"; level report;
				scope "drug-consumption"; deny attribute drug; }`},
		},
		// 70 % renders, 30 % checks; 400 requests, about a quarter second.
		block:    ServeBlock{Tenants: 2, Renders: len(renderMix), Checks: len(checkMix), PerRender: 35, PerCheck: 30},
		omitRows: true, perClientPerSecond: 1500, smokeBlocks: 1,
	}
	serveLarge = serveSpec{
		tenants: []serveTenant{{name: "gamma", seed: 3, prescriptions: [2]int{50000, 4000}}},
		// Renders only; 12 requests, about a third of a second.
		block:    ServeBlock{Tenants: 1, Renders: len(renderMix), PerRender: 3},
		omitRows: false, perClientPerSecond: 25, smokeBlocks: 2,
	}
)

// serveSample is one completed request as its client saw it.
type serveSample struct {
	op     ServeOp
	lat    time.Duration
	digest uint64
	err    string // transport or API failure; a pla_blocked refusal is not one
}

type serveWorkload struct {
	spec    serveSpec
	srv     *serve.Server
	hs      *http.Server
	handler http.Handler
	api     []*api.Client // one per tenant
	sched   [][]ServeOp   // one per client
	twins   []*built      // one per tenant; built in set-up only when tracing
	sinks   []*os.File
	bodies  map[ServeOp][]byte // request bodies for the handler replay
	served  chan struct{}      // closed when the HTTP server goroutine has returned
	hc      *http.Client

	pending [][]serveSample // the full pass's samples, awaiting verify
	p99     time.Duration   // render p99 of the full pass (0 when too few samples)
	ch      *chain          // the traced pass's chain on the first tenant's twin
}

func (w *serveWorkload) manifest(e *env) *serve.Manifest {
	m := &serve.Manifest{}
	for _, t := range w.spec.tenants {
		m.Tenants = append(m.Tenants, serve.TenantConfig{
			Name: t.name, Tokens: []string{t.name + "-token"}, Scenario: "healthcare",
			Seed: t.seed, Prescriptions: e.scale(t.prescriptions[0], t.prescriptions[1]),
			ExtraPLAs: t.extraPLAs,
		})
	}
	return m
}

func (w *serveWorkload) setup(e *env) error {
	srv, err := serve.New(w.manifest(e), serve.Options{AuditDir: e.dir})
	if err != nil {
		return err
	}
	w.srv = srv
	w.handler = srv.Handler()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.handler}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(lis) // returns once close shuts the server down
	}()
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	for _, t := range w.spec.tenants {
		c := api.NewClient("http://"+lis.Addr().String(), t.name+"-token")
		c.HTTPClient = w.hc
		w.api = append(w.api, c)
	}

	blocks := e.opCount(w.spec.perClientPerSecond/float64(w.spec.block.Len()), w.spec.smokeBlocks)
	checks := w.spec.block.Checks
	for c := 0; c < clients; c++ {
		w.sched = append(w.sched, ServeSchedule(e.opts.Seed, c, blocks, w.spec.block))
	}
	if e.opts.Trace {
		if err := w.buildTwins(e); err != nil {
			return err
		}
		w.bodies = map[ServeOp][]byte{}
		for ti := range w.spec.tenants {
			for ri := range renderMix {
				w.encode(ServeOp{Tenant: uint8(ti), Req: uint8(ri)})
			}
			for ri := 0; ri < checks; ri++ {
				w.encode(ServeOp{Tenant: uint8(ti), Check: true, Req: uint8(ri)})
			}
		}
	}

	// Warm every (tenant, request) once: plan caches, dictionaries and
	// connections are steady-state before the first timed request.
	for ti := range w.spec.tenants {
		for ri := range renderMix {
			if s := w.issue(ServeOp{Tenant: uint8(ti), Req: uint8(ri)}); s.err != "" {
				return fmt.Errorf("warm-up render: %s", s.err)
			}
		}
		for ri := 0; ri < checks; ri++ {
			if s := w.issue(ServeOp{Tenant: uint8(ti), Check: true, Req: uint8(ri)}); s.err != "" {
				return fmt.Errorf("warm-up check: %s", s.err)
			}
		}
	}
	return nil
}

// buildTwins builds, per tenant, the engine a plabid tenant with that
// manifest entry builds — same seed, same sizing, same extra PLAs, an
// audit sink file — for checking responses and for replaying requests
// below the transport.
func (w *serveWorkload) buildTwins(e *env) error {
	if w.twins != nil {
		return nil
	}
	for _, t := range w.spec.tenants {
		sink, err := fileSink(e.dir, t.name+".twin.audit.jsonl")
		if err != nil {
			return err
		}
		w.sinks = append(w.sinks, sink)
		b, err := buildEngine(t.seed, e.scale(t.prescriptions[0], t.prescriptions[1]), t.extraPLAs,
			func(ce *core.Engine) { ce.Audit.SetSink(sink) })
		if err != nil {
			return err
		}
		w.twins = append(w.twins, b)
	}
	return nil
}

func (w *serveWorkload) size() int { return len(w.sched[0]) }

func (w *serveWorkload) request(op ServeOp) (combo, string) {
	if op.Check {
		return checkMix[op.Req], "check"
	}
	return renderMix[op.Req], "render"
}

// issue sends one request through the client and reduces the answer to
// a sample. Each caller owns its sample and its error: nothing here is
// shared between client goroutines.
func (w *serveWorkload) issue(op ServeOp) serveSample {
	s := serveSample{op: op}
	tenant := w.spec.tenants[op.Tenant].name
	ctx := context.Background()
	start := time.Now()
	switch req := w.wireRequest(op).(type) {
	case apiv1.CheckRequest:
		resp, err := w.api[op.Tenant].Check(ctx, tenant, req)
		s.lat = time.Since(start)
		if err != nil {
			s.err = err.Error()
		} else {
			s.digest = checkDigest(resp)
		}
	case apiv1.RenderRequest:
		resp, err := w.api[op.Tenant].Render(ctx, tenant, req)
		s.lat = time.Since(start)
		var apiErr *apiv1.Error
		switch {
		case err == nil:
			s.digest = responseDigest(resp, !w.spec.omitRows)
		case errors.As(err, &apiErr) && apiErr.Code == apiv1.CodeBlocked:
			s.digest = blockedDigest(apiErr) // correct enforcement, checked like any answer
		default:
			s.err = err.Error()
		}
	}
	return s
}

// wireRequest is the request body of op as the client sends it.
func (w *serveWorkload) wireRequest(op ServeOp) any {
	cb, _ := w.request(op)
	consumer := apiv1.Consumer{Name: cb.consumer.Name, Role: cb.consumer.Role, Purpose: cb.consumer.Purpose}
	if op.Check {
		return apiv1.CheckRequest{Report: cb.report, Consumer: consumer}
	}
	return apiv1.RenderRequest{Report: cb.report, Consumer: consumer, OmitRows: w.spec.omitRows}
}

func (w *serveWorkload) encode(op ServeOp) {
	w.bodies[op], _ = json.Marshal(w.wireRequest(op)) // plain structs of strings and bools
}

// handlerCall prepares op as a direct call of the server's handler — no
// socket, no client — and returns the function that makes it and hands
// back the recorded response.
func (w *serveWorkload) handlerCall(op ServeOp) func() *httptest.ResponseRecorder {
	_, verb := w.request(op)
	tenant := w.spec.tenants[op.Tenant].name
	req := httptest.NewRequest(http.MethodPost, "/"+apiv1.Version+"/tenants/"+tenant+"/"+verb, bytes.NewReader(w.bodies[op]))
	req.Header.Set("Authorization", "Bearer "+tenant+"-token")
	req.Header.Set("Content-Type", "application/json")
	return func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		w.handler.ServeHTTP(rr, req)
		return rr
	}
}

// replay re-issues op at the handler and then at every layer of the
// tenant's twin engine, under the client's span.
func (w *serveWorkload) replay(rec *Recorder, ch *chain, op ServeOp, id, parent int) {
	cb, verb := w.request(op)
	call := w.handlerCall(op)
	srvIdx := rec.Time("serve", verb+":"+cb.report, id, parent, func() { call() })
	if op.Check {
		ch.check(cb, id, srvIdx)
	} else {
		ch.render(cb, id, srvIdx)
	}
}

func (w *serveWorkload) run(e *env, rec *Recorder, n int) (*runStats, error) {
	samples := make([][]serveSample, clients)
	host := make([]*hostClock, clients) // one per client goroutine: nothing shared
	for c := range host {
		host[c] = newHostClock()
	}
	chains := make([][]*chain, clients) // per client, per tenant: no sharing between goroutines
	if rec != nil {
		for c := range chains {
			for ti, tw := range w.twins {
				chains[c] = append(chains[c], newChain(rec, tw.eng, w.sinks[ti], renderMix...))
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := make([]serveSample, 0, n)
			for i, op := range w.sched[c][:n] {
				id := i*clients + c
				var s serveSample
				cb, verb := w.request(op)
				apiIdx := rec.Time("api", verb+":"+cb.report, id, -1, func() { s = w.issue(op) })
				local = append(local, s)
				host[c].tick()
				if rec != nil {
					w.replay(rec, chains[c][op.Tenant], op, id, apiIdx)
				}
			}
			samples[c] = local
		}(c)
	}
	wg.Wait()
	st := &runStats{detail: map[string]Measured{}, work: make([][]opRecord, clients), block: w.spec.block.Len()}
	st.host = host
	var renders, checks []time.Duration
	for c, local := range samples {
		for _, s := range local {
			st.attempted++
			if s.err != "" {
				cb, verb := w.request(s.op)
				st.fail("%s %s on %s: %s", verb, cb.report, w.spec.tenants[s.op.Tenant].name, s.err)
			}
			// render_p50_ms is the flagship report's on the first tenant:
			// the median of a mix of reports whose costs differ sixfold, or
			// of two tenants of different sizes, lands between two modes
			// and jumps from run to run.
			flagship := !s.op.Check && s.op.Tenant == 0 && renderMix[s.op.Req].report == primary.report
			st.work[c] = append(st.work[c], opRecord{lat: s.lat, render: flagship, entry: true})
			if s.op.Check {
				checks = append(checks, s.lat)
			} else {
				renders = append(renders, s.lat)
			}
		}
	}
	st.primary = renders
	for _, cc := range chains {
		for _, ch := range cc {
			if n := ch.failures(); n > 0 {
				st.fail("%d replayed calls returned an error", n)
			}
		}
	}
	if rec != nil {
		w.ch = chains[0][0] // made first: its plan-cache baseline precedes every replay
		return st, nil
	}

	// Everything below needs the expected answers; keep the samples for
	// verify, which builds the twins after peak RSS has been read.
	w.pending = samples
	if len(checks) > 0 {
		st.detail["check_p50_ms"] = Measured{Value: ms(p50(checks)), Unit: "ms", Samples: len(checks)}
	}
	if p99, err := TailPercentile(sortedCopy(renders), 0.99); err == nil {
		w.p99 = p99
		st.detail["render_p99_ms"] = Measured{Value: ms(p99), Unit: "ms", Samples: len(renders)}
	}
	return st, nil
}

// expected renders and checks every request of the mix directly on the
// tenants' twin engines: what each served response must hash to.
func (w *serveWorkload) expected(e *env) (map[ServeOp]uint64, error) {
	if err := w.buildTwins(e); err != nil {
		return nil, err
	}
	want := map[ServeOp]uint64{}
	for ti, tw := range w.twins {
		for ri, cb := range renderMix {
			enf, err := tw.eng.Render(cb.report, cb.consumer)
			if err != nil {
				return nil, err
			}
			want[ServeOp{Tenant: uint8(ti), Req: uint8(ri)}] = enforcedDigest(enf, !w.spec.omitRows)
		}
		for ri, cb := range checkMix {
			findings, err := tw.eng.CheckReportCompliance(cb.report, cb.consumer)
			if err != nil {
				return nil, err
			}
			want[ServeOp{Tenant: uint8(ti), Check: true, Req: uint8(ri)}] = findingsDigest(findings)
		}
	}
	return want, nil
}

// verify compares every served response of the full pass with the
// twin's direct answer. The statically blocked report must have been
// refused: its expectation hashes as a refusal, so a delivered table
// cannot match.
func (w *serveWorkload) verify(e *env, st *runStats) error {
	want, err := w.expected(e)
	if err != nil {
		return err
	}
	for _, local := range w.pending {
		for _, s := range local {
			if s.err == "" && s.digest != want[s.op] {
				cb, verb := w.request(s.op)
				st.fail("%s %s on %s: response differs from the twin engine's", verb, cb.report, w.spec.tenants[s.op.Tenant].name)
			}
		}
	}
	w.pending = nil
	return nil
}

func (w *serveWorkload) layers(e *env, rec *Recorder, out map[string]float64) error {
	if err := sharedLayers(w.twins[0], e.dir, e.scale(5, 2), rec, w.ch, out); err != nil {
		return err
	}
	render := "render:" + primary.report
	handler := rec.P50("serve", render)
	out["api.client_self_us"] = us(rec.P50("api", render) - handler)
	out["serve.handler_p50_us"] = us(handler)
	out["serve.self_us"] = us(handler - rec.P50("core", render))
	out["serve.check_handler_p50_us"] = us(rec.P50("serve", "check:"))
	out["serve.blocked_render_p50_us"] = us(rec.P50("serve", "render:"+blockedCombo.report))
	for _, cb := range renderMix {
		out["serve.report."+cb.report+"_p50_ms"] = ms(rec.P50("serve", "render:"+cb.report))
	}
	out["serve.render_p99_ms"] = ms(w.p99)

	// The wire codec alone: what the client does to a request and a
	// response besides moving them.
	op := ServeOp{}
	captured := w.handlerCall(op)().Body.Bytes()
	var codecErr error
	out["api.codec_us"] = us(timeN(200, func() {
		if _, err := json.Marshal(w.wireRequest(op)); err != nil {
			codecErr = err
		}
		var resp apiv1.RenderResponse
		if err := json.Unmarshal(captured, &resp); err != nil {
			codecErr = err
		}
	}))
	if codecErr != nil {
		return codecErr
	}

	snap := w.srv.MetricsSnapshot().Counters
	out["serve.requests"] = float64(snap["serve.requests"])
	out["serve.errors"] = float64(snap["serve.errors"])
	out["serve.rate_limited"] = float64(snap["serve.rate_limited"])
	return nil
}

func (w *serveWorkload) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.hs.Shutdown(ctx) // the listener is closed either way; Serve returns
		cancel()
		<-w.served
		w.hc.CloseIdleConnections()
	}
	if w.srv != nil {
		_ = w.srv.Close() // flushes audit sinks in the scratch directory, which is removed next
	}
	for _, f := range w.sinks {
		_ = f.Close()
	}
}
