package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plabi"
	apiv1 "plabi/api/v1"
	"plabi/internal/lint"
	"plabi/internal/obs"
	"plabi/internal/policy"
)

// maxBodyBytes bounds every request body: decision requests are small;
// anything larger is a mistake or an attack.
const maxBodyBytes = 1 << 20

// Options configures a Server.
type Options struct {
	// AuditDir is where tenants without an explicit AuditPath stream
	// their audit trail ("<dir>/<tenant>.audit.jsonl"). Empty falls back
	// to the OS temp directory.
	AuditDir string
	// ManifestPath, when set, lets ReloadFromManifestFile (and the
	// /admin/reload endpoint) re-read the manifest from disk.
	ManifestPath string
	// Metrics is the server-level observability registry (one is created
	// when nil). Tenant engines keep their own registries; /metrics
	// serves the merged view.
	Metrics *obs.Metrics
}

// Server hosts isolated plabi engines behind the /v1 HTTP surface.
type Server struct {
	metrics      *obs.Metrics
	auditDir     string
	manifestPath string

	mu          sync.RWMutex
	tenants     map[string]*tenant
	tokens      map[string]string // bearer token -> tenant name
	adminTokens map[string]bool

	reqSeq atomic.Uint64
	closed atomic.Bool
}

// New builds a server from a validated manifest, constructing every
// tenant's engine (scenario ETL included) before returning. On error,
// engines already built are closed.
func New(m *Manifest, opts Options) (*Server, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		metrics:      opts.Metrics,
		auditDir:     opts.AuditDir,
		manifestPath: opts.ManifestPath,
		tenants:      map[string]*tenant{},
		tokens:       map[string]string{},
		adminTokens:  map[string]bool{},
	}
	if s.metrics == nil {
		s.metrics = obs.New()
	}
	for _, cfg := range m.Tenants {
		in, err := buildInstance(cfg, 1, s.auditDir)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		t := &tenant{name: cfg.Name, cfg: cfg, fingerprint: cfg.bundleFingerprint(),
			limiter: newBucket(cfg.RateRPS, cfg.RateBurst)}
		t.cur.Store(in)
		s.tenants[cfg.Name] = t
		for _, tok := range cfg.Tokens {
			s.tokens[tok] = cfg.Name
		}
	}
	for _, tok := range m.AdminTokens {
		s.adminTokens[tok] = true
	}
	s.metrics.Gauge("serve.tenants").Set(int64(len(s.tenants)))
	return s, nil
}

// ReloadRejectedError is returned when the policy-change gate refuses a
// reload: the staged manifest contains error-severity privilege
// expansions for a tenant that has neither allow_expansion set nor the
// force flag passed. No swap has happened; the server keeps serving the
// old state.
type ReloadRejectedError struct {
	// Tenant is the first tenant whose staged bundle expands privileges.
	Tenant string
	// Impacts are the expansion findings for that tenant.
	Impacts []plabi.Impact
}

func (e *ReloadRejectedError) Error() string {
	return fmt.Sprintf("serve: reload rejected: tenant %q: %d privilege expansion(s); set allow_expansion or force the reload",
		e.Tenant, len(e.Impacts))
}

// Reload applies a new manifest with the expansion gate armed (see
// ReloadGated).
func (s *Server) Reload(m *Manifest) error {
	_, err := s.ReloadGated(m, false)
	return err
}

// ReloadGated applies a new manifest: tenants whose policy bundle
// changed get a fresh engine built and atomically swapped in (the old
// engine drains its in-flight requests, then its audit sink is flushed
// and closed); unchanged tenants keep serving without interruption;
// removed tenants drain and close; added tenants are built. The token
// and rate-limit maps always follow the new manifest. Engines are built
// BEFORE any swap, so a manifest whose build fails leaves the server
// fully on the old state.
//
// Between build and swap, every staged engine is diffed against the one
// it replaces (pladiff). Error-severity impacts — privilege expansions —
// abort the whole reload with *ReloadRejectedError unless the tenant's
// manifest entry sets allow_expansion or force is true. The per-tenant
// impact lists are returned in the response either way, so operators see
// what a forced reload shipped.
func (s *Server) ReloadGated(m *Manifest, force bool) (*apiv1.ReloadResponse, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Phase 1: build every engine the new manifest needs.
	type staged struct {
		cfg     TenantConfig
		in      *instance // nil = keep the running instance
		impacts []plabi.Impact
	}
	var plan []staged
	abort := func(plan []staged) {
		for _, st := range plan {
			if st.in != nil {
				_ = st.in.eng.Close()
			}
		}
	}
	for _, cfg := range m.Tenants {
		old, exists := s.tenants[cfg.Name]
		if exists && old.fingerprint == cfg.bundleFingerprint() {
			plan = append(plan, staged{cfg: cfg})
			continue
		}
		version := 1
		if exists {
			if cur := old.cur.Load(); cur != nil {
				version = cur.version + 1
			}
		}
		in, err := buildInstance(cfg, version, s.auditDir)
		if err != nil {
			abort(plan)
			return nil, err
		}
		plan = append(plan, staged{cfg: cfg, in: in})
	}

	// Gate: diff each staged engine against the instance it replaces.
	for i, st := range plan {
		if st.in == nil {
			continue
		}
		old, exists := s.tenants[st.cfg.Name]
		if !exists {
			continue // new tenant: nothing served before, nothing to widen
		}
		cur := old.cur.Load()
		if cur == nil {
			continue
		}
		imps, err := plabi.Diff(cur.eng, st.in.eng)
		if err != nil {
			abort(plan)
			return nil, fmt.Errorf("serve: reload diff %s: %w", st.cfg.Name, err)
		}
		plan[i].impacts = imps
		if exp := plabi.Expansions(imps); len(exp) > 0 && !st.cfg.AllowExpansion && !force {
			abort(plan)
			s.metrics.Counter("serve.reloads_rejected").Inc()
			return nil, &ReloadRejectedError{Tenant: st.cfg.Name, Impacts: exp}
		}
	}

	// Phase 2: swap. From here nothing can fail.
	resp := &apiv1.ReloadResponse{Status: "reloaded"}
	kept := map[string]bool{}
	for _, st := range plan {
		kept[st.cfg.Name] = true
		t, exists := s.tenants[st.cfg.Name]
		if !exists {
			t = &tenant{name: st.cfg.Name}
			s.tenants[st.cfg.Name] = t
		}
		if t.cfg.RateRPS != st.cfg.RateRPS || t.cfg.RateBurst != st.cfg.RateBurst || !exists {
			t.limiter = newBucket(st.cfg.RateRPS, st.cfg.RateBurst)
		}
		t.cfg = st.cfg
		t.fingerprint = st.cfg.bundleFingerprint()
		if st.in != nil {
			t.swap(st.in)
			s.metrics.Counter("serve.bundle_swaps").Inc()
		}
		cur := t.cur.Load()
		tr := apiv1.TenantReload{Name: st.cfg.Name, Swapped: st.in != nil,
			Impacts: wireFindings(plabi.ImpactFindings(st.impacts))}
		if cur != nil {
			tr.Version = cur.version
			tr.ProgramGeneration = cur.eng.ProgramGeneration()
		}
		resp.Tenants = append(resp.Tenants, tr)
	}
	for name, t := range s.tenants {
		if !kept[name] {
			delete(s.tenants, name)
			go func(t *tenant) { _ = t.close() }(t)
		}
	}
	s.tokens = map[string]string{}
	for _, cfg := range m.Tenants {
		for _, tok := range cfg.Tokens {
			s.tokens[tok] = cfg.Name
		}
	}
	s.adminTokens = map[string]bool{}
	for _, tok := range m.AdminTokens {
		s.adminTokens[tok] = true
	}
	s.metrics.Gauge("serve.tenants").Set(int64(len(s.tenants)))
	s.metrics.Counter("serve.reloads").Inc()
	return resp, nil
}

// ReloadFromManifestFile re-reads the manifest the server was started
// from and applies it (SIGHUP and /admin/reload both land here).
func (s *Server) ReloadFromManifestFile() error {
	_, err := s.reloadFromManifestFile(false)
	return err
}

func (s *Server) reloadFromManifestFile(force bool) (*apiv1.ReloadResponse, error) {
	if s.manifestPath == "" {
		return nil, fmt.Errorf("serve: no manifest path configured")
	}
	m, err := LoadManifest(s.manifestPath)
	if err != nil {
		return nil, err
	}
	return s.ReloadGated(m, force)
}

// Close drains and closes every tenant engine. The server rejects
// requests afterwards.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.tenants = map[string]*tenant{}
	s.tokens = map[string]string{}
	s.mu.Unlock()
	var first error
	for _, t := range tenants {
		if err := t.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// engineFor exposes a tenant's live engine to in-package tests (cache
// and audit isolation assertions). Production access goes through
// acquire/release only.
func (s *Server) engineFor(name string) *plabi.Engine {
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		return nil
	}
	in := t.cur.Load()
	if in == nil {
		return nil
	}
	return in.eng
}

// Handler returns the server's HTTP surface: the /v1 tenant routes,
// /healthz, /admin/reload, and the observability endpoints (/metrics,
// /debug/pprof).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/tenants/{tenant}/render", s.tenantHandler("render", s.handleRender))
	mux.HandleFunc("POST /v1/tenants/{tenant}/check", s.tenantHandler("check", s.handleCheck))
	mux.HandleFunc("POST /v1/tenants/{tenant}/lint", s.tenantHandler("lint", s.handleLint))
	mux.HandleFunc("GET /v1/tenants/{tenant}/reports", s.tenantHandler("reports", s.handleReports))
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	dm := obs.DebugMux(s.MetricsSnapshot)
	mux.Handle("GET /metrics", dm)
	mux.Handle("/debug/pprof/", dm)
	return mux
}

// MetricsSnapshot merges the server-level registry with every tenant
// engine's snapshot, tenant metrics prefixed "tenant.<name>." — one
// scrape shows the transport and each isolation domain side by side.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	snap := s.metrics.Snapshot()
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	for _, t := range tenants {
		in, release := t.acquire()
		if in == nil {
			continue
		}
		es := in.eng.MetricsSnapshot()
		release()
		prefix := "tenant." + t.name + "."
		for k, v := range es.Counters {
			snap.Counters[prefix+k] = v
		}
		for k, v := range es.Gauges {
			snap.Gauges[prefix+k] = v
		}
		for k, v := range es.Histograms {
			snap.Histograms[prefix+k] = v
		}
	}
	return snap
}

// requestContext carries everything a tenant handler needs.
type requestContext struct {
	tenant *tenant
	inst   *instance
	corr   string
	ctx    context.Context
}

// tenantHandler wraps a handler with the full request discipline: auth,
// tenant resolution, rate limiting, correlation id, instance acquisition
// and latency/error accounting.
func (s *Server) tenantHandler(op string, h func(http.ResponseWriter, *http.Request, *requestContext) *apiv1.Error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Counter("serve.requests").Inc()
		corr := r.Header.Get("X-Correlation-Id")
		pathTenant := r.PathValue("tenant")
		if corr == "" {
			corr = fmt.Sprintf("%s-r%08d", pathTenant, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Correlation-Id", corr)

		fail := func(e *apiv1.Error) {
			s.metrics.Counter("serve.errors").Inc()
			s.metrics.Counter("serve.errors." + string(e.Code)).Inc()
			e.CorrelationID = corr
			writeError(w, e)
		}

		tok, ok := bearerToken(r)
		if !ok {
			s.metrics.Counter("serve.unauthorized").Inc()
			fail(&apiv1.Error{Code: apiv1.CodeUnauthorized, Message: "missing or malformed bearer token"})
			return
		}
		s.mu.RLock()
		tokTenant, tokOK := s.tokens[tok]
		t := s.tenants[pathTenant]
		s.mu.RUnlock()
		if !tokOK {
			s.metrics.Counter("serve.unauthorized").Inc()
			fail(&apiv1.Error{Code: apiv1.CodeUnauthorized, Message: "unknown bearer token"})
			return
		}
		// A valid token scoped to another tenant gets the same answer as
		// a nonexistent tenant: no cross-tenant existence probing.
		if t == nil || tokTenant != pathTenant {
			fail(&apiv1.Error{Code: apiv1.CodeUnknownTenant,
				Message: fmt.Sprintf("no tenant %q for this token", pathTenant)})
			return
		}
		if !t.limiter.allow(time.Now()) {
			s.metrics.Counter("serve.rate_limited").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(t.limiter.retryAfter()/time.Second)))
			fail(&apiv1.Error{Code: apiv1.CodeRateLimited,
				Message: fmt.Sprintf("tenant %q over its request rate", pathTenant)})
			return
		}
		in, release := t.acquire()
		if in == nil {
			fail(&apiv1.Error{Code: apiv1.CodeInternal, Message: "tenant shutting down"})
			return
		}
		defer release()
		s.metrics.Counter("serve.tenant." + pathTenant + ".requests").Inc()

		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		rc := &requestContext{tenant: t, inst: in, corr: corr,
			ctx: plabi.WithCorrelationID(r.Context(), corr)}
		if e := h(w, r, rc); e != nil {
			fail(e)
		}
		s.metrics.Histogram("serve." + op).Observe(time.Since(start))
	}
}

// bearerToken extracts the Authorization bearer token.
func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return "", false
	}
	return auth[len(prefix):], true
}

// writeError serves a typed error envelope with the code's HTTP status.
func writeError(w http.ResponseWriter, e *apiv1.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Code.HTTPStatus())
	_ = json.NewEncoder(w).Encode(apiv1.ErrorEnvelope{Error: e})
}

// writeJSON serves a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a JSON request body strictly.
func decodeBody(r *http.Request, v any) *apiv1.Error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: "invalid request body: " + err.Error()}
	}
	return nil
}

// engineError maps an engine failure onto the wire contract.
func engineError(op string, err error) *apiv1.Error {
	var be *plabi.BlockedError
	switch {
	case errors.As(err, &be):
		return &apiv1.Error{Code: apiv1.CodeBlocked,
			Message:   fmt.Sprintf("%s refused by PLA enforcement", op),
			Decisions: wireDecisions(be.Decisions)}
	case errors.Is(err, plabi.ErrPLAViolation):
		return &apiv1.Error{Code: apiv1.CodeBlocked,
			Message: fmt.Sprintf("%s refused by PLA enforcement", op)}
	case errors.Is(err, plabi.ErrUnknownReport):
		return &apiv1.Error{Code: apiv1.CodeUnknownReport, Message: err.Error()}
	case errors.Is(err, plabi.ErrAuditUnavailable):
		return &apiv1.Error{Code: apiv1.CodeAuditUnavailable,
			Message: "audit sink unavailable; a render is not released without its audit trail"}
	default:
		return &apiv1.Error{Code: apiv1.CodeInternal, Message: err.Error()}
	}
}

// wireDecisions converts engine decisions to their wire form.
func wireDecisions(ds []plabi.Decision) []apiv1.Decision {
	out := make([]apiv1.Decision, len(ds))
	for i, d := range ds {
		out[i] = apiv1.Decision{
			Outcome: d.Outcome.String(),
			Rule:    d.Rule,
			Subject: d.Subject,
			PLAs:    append([]string(nil), d.PLAs...),
			Detail:  d.Detail,
		}
	}
	return out
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request, rc *requestContext) *apiv1.Error {
	var req apiv1.RenderRequest
	if e := decodeBody(r, &req); e != nil {
		return e
	}
	if req.Report == "" || req.Consumer.Role == "" {
		return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: "report and consumer.role are required"}
	}
	if req.MaxRows < 0 {
		return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: "max_rows cannot be negative"}
	}
	enf, err := rc.inst.eng.Render(rc.ctx, req.Report, plabi.Consumer{
		Name: req.Consumer.Name, Role: req.Consumer.Role, Purpose: req.Consumer.Purpose})
	if err != nil {
		return engineError("render "+req.Report, err)
	}
	resp := apiv1.RenderResponse{
		Tenant:         rc.tenant.name,
		Report:         req.Report,
		CorrelationID:  rc.corr,
		TotalRows:      enf.Table.NumRows(),
		Decisions:      wireDecisions(enf.Decisions),
		MaskedCells:    enf.MaskedCells,
		SuppressedRows: enf.SuppressedRows,
		CacheHit:       enf.CacheHit,
	}
	if !req.OmitRows {
		for _, c := range enf.Table.Schema.Columns {
			resp.Columns = append(resp.Columns, apiv1.Column{Name: c.Name, Type: c.Type.String()})
		}
		n := enf.Table.NumRows()
		if req.MaxRows > 0 && n > req.MaxRows {
			n = req.MaxRows
			resp.Truncated = true
		}
		resp.Rows = make([][]string, n)
		for i := 0; i < n; i++ {
			row := make([]string, len(enf.Table.Rows[i]))
			for j, v := range enf.Table.Rows[i] {
				row[j] = v.String()
			}
			resp.Rows[i] = row
		}
	}
	s.metrics.Counter("serve.render.rows").Add(uint64(len(resp.Rows)))
	writeJSON(w, &resp)
	return nil
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request, rc *requestContext) *apiv1.Error {
	var req apiv1.CheckRequest
	if e := decodeBody(r, &req); e != nil {
		return e
	}
	if req.Report == "" || req.Consumer.Role == "" {
		return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: "report and consumer.role are required"}
	}
	findings, err := rc.inst.eng.CheckReportCompliance(rc.ctx, req.Report, plabi.Consumer{
		Name: req.Consumer.Name, Role: req.Consumer.Role, Purpose: req.Consumer.Purpose})
	if err != nil {
		return engineError("check "+req.Report, err)
	}
	writeJSON(w, &apiv1.CheckResponse{
		Tenant: rc.tenant.name, Report: req.Report, CorrelationID: rc.corr,
		Compliant: len(findings) == 0, Findings: wireDecisions(findings),
	})
	return nil
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request, rc *requestContext) *apiv1.Error {
	var req apiv1.LintRequest
	if e := decodeBody(r, &req); e != nil {
		return e
	}
	min := lint.SevInfo
	if req.MinSeverity != "" {
		var err error
		if min, err = lint.ParseSeverity(req.MinSeverity); err != nil {
			return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: err.Error()}
		}
	}
	var findings []lint.Finding
	if req.Source == "" {
		findings = rc.inst.eng.Lint()
	} else {
		// Standalone document: agreement-level analyzers only, same as
		// plalint over a file that is not attached to a deployment.
		plas, err := policy.ParseFileNamed("request.pla", req.Source)
		if err != nil {
			return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: err.Error()}
		}
		reg := policy.NewRegistry()
		for _, p := range plas {
			if err := reg.Add(p); err != nil {
				return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: err.Error()}
			}
		}
		findings = lint.Run(&lint.Pass{PLAs: plas, Registry: reg})
	}
	resp := apiv1.LintResponse{Tenant: rc.tenant.name, CorrelationID: rc.corr, Clean: true}
	for _, f := range findings {
		if f.Severity < min {
			continue
		}
		resp.Clean = false
		resp.Findings = append(resp.Findings, apiv1.LintFinding{
			Code: f.Code, Severity: f.Severity.String(), Level: f.Level.String(),
			Pos: f.Pos.String(), Subject: f.Subject, Message: f.Message,
			PLAs: append([]string(nil), f.PLAs...),
		})
	}
	writeJSON(w, &resp)
	return nil
}

func (s *Server) handleReports(w http.ResponseWriter, _ *http.Request, rc *requestContext) *apiv1.Error {
	defs := rc.inst.eng.Reports()
	infos := make([]apiv1.ReportInfo, 0, len(defs))
	for _, d := range defs {
		infos = append(infos, apiv1.ReportInfo{
			ID: d.ID, Title: d.Title, Query: d.Query,
			Roles: append([]string(nil), d.Roles...), Purpose: d.Purpose, Version: d.Version,
			Meta: rc.inst.eng.Assignment(d.ID),
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, &apiv1.ReportsResponse{
		Tenant: rc.tenant.name, CorrelationID: rc.corr, Reports: infos,
	})
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := apiv1.HealthResponse{Status: "ok"}
	if s.closed.Load() {
		resp.Status = "shutting-down"
	}
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	for _, t := range tenants {
		in, release := t.acquire()
		if in == nil {
			continue
		}
		resp.Tenants = append(resp.Tenants, apiv1.TenantHealth{
			Name: t.name, Version: in.version, Reports: len(in.eng.Reports()),
		})
		release()
	}
	sort.Slice(resp.Tenants, func(i, j int) bool { return resp.Tenants[i].Name < resp.Tenants[j].Name })
	writeJSON(w, &resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	tok, ok := bearerToken(r)
	s.mu.RLock()
	admin := ok && s.adminTokens[tok]
	s.mu.RUnlock()
	if !admin {
		writeError(w, &apiv1.Error{Code: apiv1.CodeUnauthorized, Message: "admin token required"})
		return
	}
	force := r.URL.Query().Get("force") == "1"
	resp, err := s.reloadFromManifestFile(force)
	if err != nil {
		var rej *ReloadRejectedError
		if errors.As(err, &rej) {
			writeError(w, &apiv1.Error{Code: apiv1.CodeReloadRejected,
				Message: rej.Error(),
				Impacts: wireFindings(plabi.ImpactFindings(rej.Impacts))})
			return
		}
		writeError(w, &apiv1.Error{Code: apiv1.CodeInternal, Message: err.Error()})
		return
	}
	writeJSON(w, resp)
}

// wireFindings converts lint findings to their /v1 wire shape.
func wireFindings(fs []lint.Finding) []apiv1.LintFinding {
	var out []apiv1.LintFinding
	for _, f := range fs {
		out = append(out, apiv1.LintFinding{
			Code: f.Code, Severity: f.Severity.String(), Level: f.Level.String(),
			Pos: f.Pos.String(), Subject: f.Subject, Message: f.Message,
			PLAs: append([]string(nil), f.PLAs...),
		})
	}
	return out
}
