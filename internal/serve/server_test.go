package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"plabi"
	apiv1 "plabi/api/v1"
)

// betaMask is beta's extra policy bundle: it denies the drug attribute
// on the drug-consumption report, so beta masks a column alpha serves in
// the clear — the two test tenants run visibly different policy bundles.
// (patient-activity is blocked for every tenant by the scenario's own
// aggregate-min-3 threshold; that covers the blocked-render envelope.)
const betaMask = `pla "beta-mask" { owner "hospital"; level report;
	scope "drug-consumption"; deny attribute drug; }`

func testManifest() *Manifest {
	return &Manifest{
		AdminTokens: []string{"admin-tok"},
		Tenants: []TenantConfig{
			{Name: "alpha", Tokens: []string{"alpha-tok"}, Scenario: "healthcare",
				Seed: 1, Prescriptions: 240},
			{Name: "beta", Tokens: []string{"beta-tok"}, Scenario: "healthcare",
				Seed: 2, Prescriptions: 320, ExtraPLAs: betaMask},
		},
	}
}

func newTestServer(t *testing.T, m *Manifest, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.AuditDir == "" {
		opts.AuditDir = t.TempDir()
	}
	s, err := New(m, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("server Close: %v", err)
		}
	})
	return s, ts
}

// call performs one API request and decodes the response body into out
// (or into an error envelope when the status is not 2xx, returned as
// *apiv1.Error).
func call(t *testing.T, method, url, token string, body, out any) (*http.Response, *apiv1.Error) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s %s: decode: %v", method, url, err)
			}
		}
		return resp, nil
	}
	var env apiv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("%s %s: status %d with undecodable envelope (%v)", method, url, resp.StatusCode, err)
	}
	env.Error.HTTP = resp.StatusCode
	return resp, env.Error
}

func TestHealthzListsTenants(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	var h apiv1.HealthResponse
	if _, apiErr := call(t, "GET", ts.URL+"/healthz", "", nil, &h); apiErr != nil {
		t.Fatalf("healthz: %v", apiErr)
	}
	if h.Status != "ok" || len(h.Tenants) != 2 {
		t.Fatalf("health = %+v", h)
	}
	if h.Tenants[0].Name != "alpha" || h.Tenants[1].Name != "beta" {
		t.Fatalf("tenants not sorted: %+v", h.Tenants)
	}
	for _, th := range h.Tenants {
		if th.Version != 1 || th.Reports == 0 {
			t.Errorf("tenant %s: version=%d reports=%d", th.Name, th.Version, th.Reports)
		}
	}
}

func TestAuthFailures(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	render := func(tenant, token string) *apiv1.Error {
		_, apiErr := call(t, "POST", ts.URL+"/v1/tenants/"+tenant+"/render", token,
			apiv1.RenderRequest{Report: "drug-consumption", Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, nil)
		return apiErr
	}
	cases := []struct {
		name, tenant, token string
		want                apiv1.ErrorCode
		status              int
	}{
		{"missing token", "alpha", "", apiv1.CodeUnauthorized, 401},
		{"unknown token", "alpha", "nope", apiv1.CodeUnauthorized, 401},
		{"cross-tenant token", "alpha", "beta-tok", apiv1.CodeUnknownTenant, 404},
		{"unknown tenant", "gamma", "alpha-tok", apiv1.CodeUnknownTenant, 404},
	}
	for _, tc := range cases {
		apiErr := render(tc.tenant, tc.token)
		if apiErr == nil {
			t.Fatalf("%s: request succeeded", tc.name)
		}
		if apiErr.Code != tc.want || apiErr.HTTP != tc.status {
			t.Errorf("%s: got code=%s http=%d, want %s/%d", tc.name, apiErr.Code, apiErr.HTTP, tc.want, tc.status)
		}
		if apiErr.CorrelationID == "" {
			t.Errorf("%s: error envelope missing correlation id", tc.name)
		}
	}
}

func TestRenderSuccessAndCache(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	req := apiv1.RenderRequest{Report: "drug-consumption",
		Consumer: apiv1.Consumer{Name: "u", Role: "analyst", Purpose: "quality"}}
	var r1 apiv1.RenderResponse
	resp, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok", req, &r1)
	if apiErr != nil {
		t.Fatalf("render: %v", apiErr)
	}
	if r1.Tenant != "alpha" || r1.Report != "drug-consumption" {
		t.Fatalf("response routing fields: %+v", r1)
	}
	if !strings.HasPrefix(r1.CorrelationID, "alpha-r") {
		t.Errorf("correlation id %q not tenant-prefixed", r1.CorrelationID)
	}
	if hdr := resp.Header.Get("X-Correlation-Id"); hdr != r1.CorrelationID {
		t.Errorf("header correlation %q != body %q", hdr, r1.CorrelationID)
	}
	if len(r1.Columns) == 0 || len(r1.Rows) == 0 || r1.TotalRows != len(r1.Rows) {
		t.Fatalf("rows not delivered: cols=%d rows=%d total=%d", len(r1.Columns), len(r1.Rows), r1.TotalRows)
	}
	var r2 apiv1.RenderResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok", req, &r2); apiErr != nil {
		t.Fatalf("second render: %v", apiErr)
	}
	if !r2.CacheHit {
		t.Error("second identical render should hit the decision cache")
	}
}

// TestRenderRefusedWhenAuditSinkFull: a tenant whose audit sink refuses
// every write answers a render with 503 audit_unavailable.
func TestRenderRefusedWhenAuditSinkFull(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	m := &Manifest{Tenants: []TenantConfig{{Name: "alpha", Tokens: []string{"alpha-tok"},
		Scenario: "healthcare", Seed: 1, Prescriptions: 240, AuditPath: "/dev/full"}}}
	_, ts := newTestServer(t, m, Options{})
	_, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "drug-consumption",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, nil)
	if apiErr == nil || apiErr.Code != apiv1.CodeAuditUnavailable || apiErr.HTTP != http.StatusServiceUnavailable {
		t.Fatalf("render over a full audit sink: %+v, want audit_unavailable/503", apiErr)
	}
}

func TestRenderTruncationAndOmitRows(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	req := apiv1.RenderRequest{Report: "drug-consumption", MaxRows: 1,
		Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}
	var r apiv1.RenderResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok", req, &r); apiErr != nil {
		t.Fatalf("render: %v", apiErr)
	}
	if len(r.Rows) != 1 || !r.Truncated || r.TotalRows <= 1 {
		t.Fatalf("truncation: rows=%d truncated=%v total=%d", len(r.Rows), r.Truncated, r.TotalRows)
	}
	req.MaxRows, req.OmitRows = 0, true
	var r2 apiv1.RenderResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok", req, &r2); apiErr != nil {
		t.Fatalf("omit-rows render: %v", apiErr)
	}
	if len(r2.Rows) != 0 || len(r2.Columns) != 0 || r2.TotalRows <= 1 {
		t.Fatalf("omit_rows: rows=%d cols=%d total=%d", len(r2.Rows), len(r2.Columns), r2.TotalRows)
	}
}

func TestRenderBlockedEnvelope(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	// patient-activity is non-aggregated under the scenario's
	// aggregate-min-3 threshold: statically blocked.
	_, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "patient-activity",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "reimbursement"}}, nil)
	if apiErr == nil {
		t.Fatal("render under the aggregation threshold succeeded")
	}
	if apiErr.Code != apiv1.CodeBlocked || apiErr.HTTP != http.StatusForbidden {
		t.Fatalf("got code=%s http=%d, want pla_blocked/403", apiErr.Code, apiErr.HTTP)
	}
	if len(apiErr.Decisions) == 0 {
		t.Fatal("blocked envelope carries no decisions")
	}
	for _, d := range apiErr.Decisions {
		if d.Outcome == "" || d.Rule == "" {
			t.Errorf("decision missing fields: %+v", d)
		}
	}
}

// TestRenderBlockedOverUnreadableData: a refusal does not read the data, so
// a tenant whose segments cannot be read still answers it 403 pla_blocked
// with the decisions; the allowed report beside it is the 500.
func TestRenderBlockedOverUnreadableData(t *testing.T) {
	s, ts := newTestServer(t, testManifest(), Options{})
	fi := plabi.NewFaultInjector(1)
	eng, err := plabi.OpenHealthcare(plabi.HealthcareConfig{Seed: 1, Prescriptions: 240},
		plabi.WithSegmentStore(t.TempDir()), plabi.WithSpillThreshold(1), plabi.WithFaultInjector(fi))
	if err != nil {
		t.Fatal(err)
	}
	s.tenants["alpha"].swap(&instance{eng: eng, version: 2})
	fi.Enable("relation.segment.read", plabi.FaultConfig{ErrorRate: 1})

	render := func(report string) *apiv1.Error {
		_, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
			apiv1.RenderRequest{Report: report,
				Consumer: apiv1.Consumer{Role: "analyst", Purpose: "reimbursement"}}, nil)
		return apiErr
	}
	apiErr := render("patient-activity")
	if apiErr == nil || apiErr.Code != apiv1.CodeBlocked || apiErr.HTTP != http.StatusForbidden {
		t.Fatalf("refused render over unreadable data: %+v, want pla_blocked/403", apiErr)
	}
	if len(apiErr.Decisions) == 0 || apiErr.Decisions[0].Rule != "aggregation-threshold" {
		t.Errorf("blocked envelope decisions = %+v", apiErr.Decisions)
	}
	if apiErr := render("drug-consumption"); apiErr == nil || apiErr.HTTP != http.StatusInternalServerError {
		t.Errorf("allowed render over unreadable data: %+v, want 500", apiErr)
	}
}

func TestRenderErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	_, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "no-such-report",
			Consumer: apiv1.Consumer{Role: "analyst"}}, nil)
	if apiErr == nil || apiErr.Code != apiv1.CodeUnknownReport || apiErr.HTTP != 404 {
		t.Fatalf("unknown report: %v", apiErr)
	}

	for name, body := range map[string]string{
		"invalid json":  `{"report":`,
		"unknown field": `{"report":"r","consumer":{"role":"analyst"},"surprise":1}`,
		"missing role":  `{"report":"drug-consumption","consumer":{"name":"u"}}`,
		"negative max":  `{"report":"drug-consumption","consumer":{"role":"analyst"},"max_rows":-1}`,
	} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/tenants/alpha/render", strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer alpha-tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env apiv1.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 || env.Error == nil || env.Error.Code != apiv1.CodeBadRequest {
			t.Errorf("%s: status=%d envelope=%+v", name, resp.StatusCode, env.Error)
		}
	}
}

func TestCheckCompliance(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	var ok apiv1.CheckResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/check", "alpha-tok",
		apiv1.CheckRequest{Report: "drug-consumption",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, &ok); apiErr != nil {
		t.Fatalf("check: %v", apiErr)
	}
	if !ok.Compliant || len(ok.Findings) != 0 {
		t.Fatalf("permitted consumer flagged: %+v", ok)
	}
	// disease-by-year restricts the disease attribute to auditors: an
	// analyst gets masking decisions, hence non-compliant.
	var bad apiv1.CheckResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/check", "alpha-tok",
		apiv1.CheckRequest{Report: "disease-by-year",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, &bad); apiErr != nil {
		t.Fatalf("check: %v", apiErr)
	}
	if bad.Compliant || len(bad.Findings) == 0 {
		t.Fatalf("analyst on auditor-only report passed compliance: %+v", bad)
	}
	for _, d := range bad.Findings {
		if d.Outcome == "" || d.Rule == "" {
			t.Errorf("finding missing wire fields: %+v", d)
		}
	}
}

func TestLintRoutes(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	// Deployment lint: empty source analyzes the tenant's live engine.
	var dep apiv1.LintResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/lint", "alpha-tok",
		apiv1.LintRequest{}, &dep); apiErr != nil {
		t.Fatalf("deployment lint: %v", apiErr)
	}
	if dep.Tenant != "alpha" || dep.CorrelationID == "" {
		t.Fatalf("deployment lint response: %+v", dep)
	}
	// Inline document with a dead rule (PL001: the allow is always
	// shadowed by the deny under most-restrictive-wins).
	var inline apiv1.LintResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/lint", "alpha-tok",
		apiv1.LintRequest{Source: `pla "doc" { owner "o"; level source; scope "s";
			deny attribute patient;
			allow attribute patient to roles analyst; }`}, &inline); apiErr != nil {
		t.Fatalf("inline lint: %v", apiErr)
	}
	if inline.Clean || len(inline.Findings) == 0 {
		t.Fatalf("dead-rule document linted clean: %+v", inline)
	}
	for _, f := range inline.Findings {
		if f.Code == "" || f.Severity == "" || f.Message == "" {
			t.Errorf("finding missing wire fields: %+v", f)
		}
	}
	// Parse failure -> 400.
	_, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/lint", "alpha-tok",
		apiv1.LintRequest{Source: `pla "broken" {`}, nil)
	if apiErr == nil || apiErr.Code != apiv1.CodeBadRequest {
		t.Fatalf("broken source: %v", apiErr)
	}
	// Bad severity filter -> 400.
	_, apiErr = call(t, "POST", ts.URL+"/v1/tenants/alpha/lint", "alpha-tok",
		apiv1.LintRequest{MinSeverity: "fatal"}, nil)
	if apiErr == nil || apiErr.Code != apiv1.CodeBadRequest {
		t.Fatalf("bad severity: %v", apiErr)
	}
}

func TestReportsListing(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	var r apiv1.ReportsResponse
	if _, apiErr := call(t, "GET", ts.URL+"/v1/tenants/alpha/reports", "alpha-tok", nil, &r); apiErr != nil {
		t.Fatalf("reports: %v", apiErr)
	}
	if len(r.Reports) == 0 {
		t.Fatal("no reports listed")
	}
	var ids []string
	for _, info := range r.Reports {
		ids = append(ids, info.ID)
		if info.Query == "" || len(info.Roles) == 0 {
			t.Errorf("report %s missing definition fields: %+v", info.ID, info)
		}
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("report ids not sorted: %v", ids)
		}
	}
	found := false
	for _, id := range ids {
		if id == "drug-consumption" {
			found = true
		}
	}
	if !found {
		t.Fatalf("scenario report missing from %v", ids)
	}
}

func TestRateLimit429(t *testing.T) {
	m := testManifest()
	m.Tenants[0].RateRPS, m.Tenants[0].RateBurst = 0.5, 1
	_, ts := newTestServer(t, m, Options{})
	if _, apiErr := call(t, "GET", ts.URL+"/v1/tenants/alpha/reports", "alpha-tok", nil, nil); apiErr != nil {
		t.Fatalf("first request rejected: %v", apiErr)
	}
	resp, apiErr := call(t, "GET", ts.URL+"/v1/tenants/alpha/reports", "alpha-tok", nil, nil)
	if apiErr == nil || apiErr.Code != apiv1.CodeRateLimited || apiErr.HTTP != 429 {
		t.Fatalf("second request not rate limited: %v", apiErr)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q", ra)
	}
	// The unlimited beta tenant is unaffected.
	if _, apiErr := call(t, "GET", ts.URL+"/v1/tenants/beta/reports", "beta-tok", nil, nil); apiErr != nil {
		t.Fatalf("beta throttled by alpha's bucket: %v", apiErr)
	}
}

func TestCorrelationIDHeaderHonored(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	req, _ := http.NewRequest("GET", ts.URL+"/v1/tenants/alpha/reports", nil)
	req.Header.Set("Authorization", "Bearer alpha-tok")
	req.Header.Set("X-Correlation-Id", "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r apiv1.ReportsResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.CorrelationID != "caller-supplied-7" || resp.Header.Get("X-Correlation-Id") != "caller-supplied-7" {
		t.Fatalf("correlation id not honored: body=%q header=%q", r.CorrelationID, resp.Header.Get("X-Correlation-Id"))
	}
}

func TestMetricsMergesTenantRegistries(t *testing.T) {
	_, ts := newTestServer(t, testManifest(), Options{})
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "drug-consumption",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, nil); apiErr != nil {
		t.Fatalf("render: %v", apiErr)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.requests"] == 0 {
		t.Error("serve.requests not counted")
	}
	foundTenant := false
	for k := range snap.Counters {
		if strings.HasPrefix(k, "tenant.alpha.") {
			foundTenant = true
			break
		}
	}
	if !foundTenant {
		t.Errorf("no tenant.alpha.* metrics in scrape: %v", keys(snap.Counters))
	}
}

func keys(m map[string]uint64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestAdminReloadSwapsChangedBundle(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	path := filepath.Join(dir, "manifest.json")
	writeManifest(t, path, m)
	_, ts := newTestServer(t, m, Options{AuditDir: dir, ManifestPath: path})

	// Unauthorized reload attempts bounce.
	if _, apiErr := call(t, "POST", ts.URL+"/admin/reload", "", nil, nil); apiErr == nil || apiErr.HTTP != 401 {
		t.Fatalf("anonymous reload: %v", apiErr)
	}
	if _, apiErr := call(t, "POST", ts.URL+"/admin/reload", "alpha-tok", nil, nil); apiErr == nil || apiErr.HTTP != 401 {
		t.Fatalf("tenant-token reload: %v", apiErr)
	}

	// Alpha's policy bundle gains the masking PLA; beta is unchanged.
	m.Tenants[0].ExtraPLAs = betaMask
	writeManifest(t, path, m)
	if _, apiErr := call(t, "POST", ts.URL+"/admin/reload", "admin-tok", nil, nil); apiErr != nil {
		t.Fatalf("reload: %v", apiErr)
	}

	var h apiv1.HealthResponse
	if _, apiErr := call(t, "GET", ts.URL+"/healthz", "", nil, &h); apiErr != nil {
		t.Fatalf("healthz: %v", apiErr)
	}
	versions := map[string]int{}
	for _, th := range h.Tenants {
		versions[th.Name] = th.Version
	}
	if versions["alpha"] != 2 || versions["beta"] != 1 {
		t.Fatalf("versions after reload = %v, want alpha=2 beta=1", versions)
	}

	// The new bundle is live: alpha now masks drug on drug-consumption.
	var r apiv1.RenderResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "drug-consumption",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, &r); apiErr != nil {
		t.Fatalf("post-reload render: %v", apiErr)
	}
	if r.MaskedCells == 0 {
		t.Fatalf("post-reload render not governed by the new bundle: %+v", r)
	}
}

func TestReloadRecompilesPrograms(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	path := filepath.Join(dir, "manifest.json")
	writeManifest(t, path, m)
	s, ts := newTestServer(t, m, Options{AuditDir: dir, ManifestPath: path})

	// Tenant construction precompiles the report portfolio: residual
	// programs exist before the first request.
	before := s.engineFor("alpha")
	if g := before.ProgramGeneration(); g == 0 {
		t.Fatalf("fresh tenant has no compiled programs (generation %d)", g)
	}

	// A bundle change swaps in a new engine; the swap itself must
	// recompile — the program generation is non-zero on the new engine
	// BEFORE any post-reload render could lazily build a plan.
	m.Tenants[0].ExtraPLAs = betaMask
	writeManifest(t, path, m)
	var rr apiv1.ReloadResponse
	if _, apiErr := call(t, "POST", ts.URL+"/admin/reload", "admin-tok", nil, &rr); apiErr != nil {
		t.Fatalf("reload: %v", apiErr)
	}
	after := s.engineFor("alpha")
	if after == before {
		t.Fatal("reload did not swap the alpha engine")
	}
	if g := after.ProgramGeneration(); g == 0 {
		t.Fatalf("reloaded tenant not recompiled (generation %d)", g)
	}

	// The reload response reports the swap and the generations, so the
	// operator sees the recompile without probing the engine.
	if rr.Status != "reloaded" {
		t.Fatalf("reload status = %q", rr.Status)
	}
	got := map[string]apiv1.TenantReload{}
	for _, tr := range rr.Tenants {
		got[tr.Name] = tr
	}
	alpha, beta := got["alpha"], got["beta"]
	if !alpha.Swapped || alpha.Version != 2 {
		t.Fatalf("alpha reload entry = %+v, want swapped v2", alpha)
	}
	if alpha.ProgramGeneration == 0 || alpha.ProgramGeneration != after.ProgramGeneration() {
		t.Fatalf("alpha reload reports generation %d, engine at %d",
			alpha.ProgramGeneration, after.ProgramGeneration())
	}
	if beta.Swapped || beta.Version != 1 {
		t.Fatalf("beta reload entry = %+v, want unswapped v1", beta)
	}
	// The restriction shows up as non-error impacts (new deny, masked
	// column), so the gate let it through.
	if len(alpha.Impacts) == 0 {
		t.Fatal("alpha reload entry carries no impact findings for a bundle change")
	}
	for _, im := range alpha.Impacts {
		if im.Severity == "error" {
			t.Fatalf("restriction classified as expansion: %+v", im)
		}
	}

	// The recompiled program reflects the new bundle: drug is masked in
	// the residual plan, not just at render time.
	plan, err := after.ExplainCompiled("drug-consumption",
		plabi.Consumer{Role: "analyst", Purpose: "quality"})
	if err != nil {
		t.Fatalf("ExplainCompiled: %v", err)
	}
	if !strings.Contains(plan, "mask") {
		t.Fatalf("post-reload residual plan does not mask:\n%s", plan)
	}
}

// TestReloadGateRefusesExpansion is the end-to-end proof of the reload
// gate: alpha boots WITH the masking bundle, the staged manifest drops
// it — a privilege expansion (the drug column goes from masked to
// released). The reload is refused with the impact list in the error
// envelope; the same reload succeeds with ?force=1; and a manifest that
// sets allow_expansion passes without forcing.
func TestReloadGateRefusesExpansion(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	m.Tenants[0].ExtraPLAs = betaMask // alpha starts masked
	path := filepath.Join(dir, "manifest.json")
	writeManifest(t, path, m)
	s, ts := newTestServer(t, m, Options{AuditDir: dir, ManifestPath: path})
	before := s.engineFor("alpha")

	// Stage the expansion: alpha's mask is dropped.
	m.Tenants[0].ExtraPLAs = ""
	writeManifest(t, path, m)

	_, apiErr := call(t, "POST", ts.URL+"/admin/reload", "admin-tok", nil, nil)
	if apiErr == nil {
		t.Fatal("expansion reload was not refused")
	}
	if apiErr.Code != apiv1.CodeReloadRejected || apiErr.HTTP != 409 {
		t.Fatalf("refusal = code %q http %d, want reload_rejected 409", apiErr.Code, apiErr.HTTP)
	}
	if len(apiErr.Impacts) == 0 {
		t.Fatal("refusal envelope carries no impact findings")
	}
	codes := map[string]bool{}
	for _, im := range apiErr.Impacts {
		if im.Severity != "error" {
			t.Fatalf("refusal lists non-error impact: %+v", im)
		}
		codes[im.Code] = true
	}
	if !codes["PD001"] {
		t.Fatalf("refusal does not name the PD001 expansion: %v", codes)
	}

	// Nothing swapped: alpha still serves the masked bundle.
	if s.engineFor("alpha") != before {
		t.Fatal("refused reload swapped the engine anyway")
	}
	var r apiv1.RenderResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "drug-consumption",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, &r); apiErr != nil {
		t.Fatalf("render after refusal: %v", apiErr)
	}
	if r.MaskedCells == 0 {
		t.Fatal("old bundle no longer governs after refused reload")
	}

	// The same reload goes through with ?force=1, reporting what it
	// shipped.
	var rr apiv1.ReloadResponse
	if _, apiErr := call(t, "POST", ts.URL+"/admin/reload?force=1", "admin-tok", nil, &rr); apiErr != nil {
		t.Fatalf("forced reload: %v", apiErr)
	}
	var forced apiv1.TenantReload
	for _, tr := range rr.Tenants {
		if tr.Name == "alpha" {
			forced = tr
		}
	}
	if !forced.Swapped || forced.Version != 2 {
		t.Fatalf("forced reload entry = %+v, want swapped v2", forced)
	}
	hasError := false
	for _, im := range forced.Impacts {
		if im.Severity == "error" {
			hasError = true
		}
	}
	if !hasError {
		t.Fatal("forced reload response does not list the expansion it shipped")
	}
	if r, _ := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "drug-consumption",
			Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}}, &r); r == nil {
		t.Fatal("render after forced reload failed")
	}

	// allow_expansion in the manifest is the declarative override: the
	// reverse trip (mask back on, then off again with the flag set)
	// succeeds without forcing.
	m.Tenants[0].ExtraPLAs = betaMask
	writeManifest(t, path, m)
	if _, apiErr := call(t, "POST", ts.URL+"/admin/reload", "admin-tok", nil, nil); apiErr != nil {
		t.Fatalf("restriction reload refused: %v", apiErr)
	}
	m.Tenants[0].ExtraPLAs = ""
	m.Tenants[0].AllowExpansion = true
	writeManifest(t, path, m)
	if _, apiErr := call(t, "POST", ts.URL+"/admin/reload", "admin-tok", nil, nil); apiErr != nil {
		t.Fatalf("allow_expansion reload refused: %v", apiErr)
	}
}

func TestReloadRemovesTenantAndRevokesTokens(t *testing.T) {
	s, ts := newTestServer(t, testManifest(), Options{})
	m2 := testManifest()
	m2.Tenants = m2.Tenants[:1] // drop beta
	if err := s.Reload(m2); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	// Beta's token no longer authenticates anywhere.
	_, apiErr := call(t, "GET", ts.URL+"/v1/tenants/beta/reports", "beta-tok", nil, nil)
	if apiErr == nil || apiErr.Code != apiv1.CodeUnauthorized {
		t.Fatalf("revoked token: %v", apiErr)
	}
	// Alpha is untouched.
	if _, apiErr := call(t, "GET", ts.URL+"/v1/tenants/alpha/reports", "alpha-tok", nil, nil); apiErr != nil {
		t.Fatalf("alpha after reload: %v", apiErr)
	}
}

func TestReloadFailureKeepsOldState(t *testing.T) {
	s, ts := newTestServer(t, testManifest(), Options{})
	bad := testManifest()
	bad.Tenants[1].ExtraPLAs = `pla "broken" {` // parse failure at build time
	if err := s.Reload(bad); err == nil {
		t.Fatal("reload with unparseable bundle succeeded")
	}
	// Both tenants still serve on their original bundles.
	var h apiv1.HealthResponse
	if _, apiErr := call(t, "GET", ts.URL+"/healthz", "", nil, &h); apiErr != nil || len(h.Tenants) != 2 {
		t.Fatalf("health after failed reload: %+v (%v)", h, apiErr)
	}
	for _, th := range h.Tenants {
		if th.Version != 1 {
			t.Errorf("tenant %s swapped to v%d after failed reload", th.Name, th.Version)
		}
	}
}

// TestConcurrentTenantIsolation is the acceptance proof: two tenants with
// disjoint policy bundles serve concurrent renders (run under -race), and
// afterwards neither tenant's audit trail or decision cache shows any
// trace of the other.
func TestConcurrentTenantIsolation(t *testing.T) {
	auditDir := t.TempDir()
	s, ts := newTestServer(t, testManifest(), Options{AuditDir: auditDir})

	// Alpha renders two distinct reports, beta one: asymmetric workloads
	// so the per-tenant decision caches end up with different footprints.
	// The same drug-consumption render must come back clear-text on alpha
	// and with the drug column masked on beta, concurrently.
	type job struct{ tenant, token, report string }
	jobs := []job{
		{"alpha", "alpha-tok", "drug-consumption"},
		{"alpha", "alpha-tok", "age-profile"},
		{"beta", "beta-tok", "drug-consumption"},
	}
	const perJob = 8
	var wg sync.WaitGroup
	errs := make(chan string, len(jobs)*perJob)
	for _, j := range jobs {
		for k := 0; k < perJob; k++ {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				body, _ := json.Marshal(apiv1.RenderRequest{Report: j.report,
					Consumer: apiv1.Consumer{Role: "analyst", Purpose: "quality"}})
				req, _ := http.NewRequest("POST",
					ts.URL+"/v1/tenants/"+j.tenant+"/render", bytes.NewReader(body))
				req.Header.Set("Authorization", "Bearer "+j.token)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err.Error()
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%s %s: status %d", j.tenant, j.report, resp.StatusCode)
					return
				}
				var r apiv1.RenderResponse
				if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
					errs <- err.Error()
					return
				}
				if j.report == "drug-consumption" {
					masked := j.tenant == "beta" // beta's extra PLA denies drug
					if masked && r.MaskedCells == 0 {
						errs <- "beta drug-consumption served unmasked"
					}
					if !masked && r.MaskedCells != 0 {
						errs <- "alpha drug-consumption masked by beta's bundle"
					}
				}
				if !strings.HasPrefix(r.CorrelationID, j.tenant+"-r") {
					errs <- fmt.Sprintf("%s render got foreign correlation id %q", j.tenant, r.CorrelationID)
				}
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Per-tenant audit files: every event correlation id carries its own
	// tenant's prefix and never the other's.
	for _, tc := range []struct{ name, other string }{{"alpha", "beta"}, {"beta", "alpha"}} {
		data, err := os.ReadFile(filepath.Join(auditDir, tc.name+".audit.jsonl"))
		if err != nil {
			t.Fatalf("read %s audit: %v", tc.name, err)
		}
		if len(bytes.TrimSpace(data)) == 0 {
			t.Fatalf("%s audit trail empty", tc.name)
		}
		if !bytes.Contains(data, []byte(tc.name+"-r")) {
			t.Errorf("%s audit trail has no %s-prefixed correlation ids", tc.name, tc.name)
		}
		if bytes.Contains(data, []byte(tc.other+"-r")) {
			t.Errorf("%s audit trail leaked %s correlation ids", tc.name, tc.other)
		}
	}

	// Decision caches are per-tenant: both saw traffic, and alpha's
	// workload hits two reports per round against beta's one — a shared
	// cache could not produce diverging hit counts from this workload
	// (entry counts match by design: every tenant precompiles the same
	// report portfolio at build time).
	as, bs := s.engineFor("alpha").CacheStats(), s.engineFor("beta").CacheStats()
	if as.Hits+as.Misses == 0 || bs.Hits+bs.Misses == 0 {
		t.Fatalf("cache untouched: alpha=%+v beta=%+v", as, bs)
	}
	if as.Hits <= bs.Hits {
		t.Errorf("cache footprints not isolated: alpha=%+v beta=%+v", as, bs)
	}
}

func writeManifest(t *testing.T, path string, m *Manifest) {
	t.Helper()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRenderConditionallyMaskedColumnType: a column in which the render
// withheld cells ships placeholders, so the wire schema types it STRING
// rather than the executed type.
func TestRenderConditionallyMaskedColumnType(t *testing.T) {
	m := testManifest()
	m.Tenants[0].ExtraPLAs = `pla "alpha-years" { owner "hospital"; level report;
	scope "disease-by-year"; allow attribute yr to roles auditor when disease <> 'HIV'; }`
	_, ts := newTestServer(t, m, Options{})
	var r apiv1.RenderResponse
	if _, apiErr := call(t, "POST", ts.URL+"/v1/tenants/alpha/render", "alpha-tok",
		apiv1.RenderRequest{Report: "disease-by-year",
			Consumer: apiv1.Consumer{Role: "auditor", Purpose: "quality"}}, &r); apiErr != nil {
		t.Fatalf("render: %v", apiErr)
	}
	if r.MaskedCells == 0 {
		t.Fatal("no yr cell withheld; the fixture exercises nothing")
	}
	for i, c := range r.Columns {
		if c.Name != "yr" {
			continue
		}
		if c.Type != "STRING" {
			t.Errorf("Columns[%d] = %+v carries %d placeholders under a non-STRING type", i, c, r.MaskedCells)
		}
		return
	}
	t.Fatalf("no yr column in %+v", r.Columns)
}
