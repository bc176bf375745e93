// Package apiv1 is the versioned wire contract of the plabid
// policy-decision server: the JSON request/response types of every /v1
// endpoint and the typed error envelope with stable machine codes. The
// server (internal/serve), the client (package api) and the benchmark
// harness (bench) all speak exactly these types — the schema lives here
// once, not as ad-hoc structs in each consumer.
//
// Compatibility contract: within /v1, fields are only ever added, never
// renamed, retyped or removed; error codes are append-only. A breaking
// change mints /v2 beside this package.
package apiv1

// Version is the wire-format version this package describes, the first
// path segment of every tenant route (/v1/tenants/{tenant}/render).
const Version = "v1"

// Consumer identifies who is asking for a report and why — the wire form
// of the engine's consumer triple.
type Consumer struct {
	// Name is the individual or system account making the request; it is
	// recorded as the actor of every audit event the request generates.
	Name string `json:"name,omitempty"`
	// Role is the access-control role (e.g. "analyst", "auditor").
	Role string `json:"role"`
	// Purpose is the declared processing purpose (e.g. "reimbursement").
	Purpose string `json:"purpose,omitempty"`
}

// RenderRequest asks for one report rendered under full PLA enforcement.
// POST /v1/tenants/{tenant}/render
type RenderRequest struct {
	// Report is the registered report id to render.
	Report string `json:"report"`
	// Consumer is who is asking; Role is required.
	Consumer Consumer `json:"consumer"`
	// MaxRows truncates the returned rows (0 returns every row). The
	// enforcement itself always runs over the full report; truncation is
	// a transport concern and is flagged in RenderResponse.Truncated.
	MaxRows int `json:"max_rows,omitempty"`
	// OmitRows suppresses row data entirely (decisions and counters are
	// still returned) — for callers probing enforcement outcomes.
	OmitRows bool `json:"omit_rows,omitempty"`
}

// Column describes one column of a rendered table.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Decision is one enforcement decision, the wire form of the engine's
// decision value: what happened, under which rule, backed by which PLAs.
type Decision struct {
	// Outcome is "permit", "mask", "suppress-row", "suppress-group" or
	// "block".
	Outcome string `json:"outcome"`
	// Rule names the requirement kind that fired (e.g. "access-deny",
	// "aggregation-threshold", "join-permission").
	Rule string `json:"rule"`
	// Subject is the element decided on (column, row index, join pair).
	Subject string `json:"subject,omitempty"`
	// PLAs lists the ids of the agreements that matched.
	PLAs []string `json:"plas,omitempty"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail,omitempty"`
}

// RenderResponse is a delivered report: the enforced table plus every
// non-permit decision taken while producing it.
type RenderResponse struct {
	Tenant string `json:"tenant"`
	Report string `json:"report"`
	// CorrelationID joins this response with the audit events, spans and
	// metrics the render generated; it is also echoed in the
	// X-Correlation-Id response header.
	CorrelationID string `json:"correlation_id"`
	// Columns and Rows carry the enforced table. Cell values are
	// rendered in the engine's canonical text form ("NULL" for null).
	Columns []Column   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// TotalRows is the enforced table's full row count, regardless of
	// MaxRows truncation.
	TotalRows int `json:"total_rows"`
	// Truncated reports that Rows was cut at MaxRows.
	Truncated bool `json:"truncated,omitempty"`
	// Decisions lists every non-permit enforcement decision.
	Decisions []Decision `json:"decisions,omitempty"`
	// MaskedCells and SuppressedRows count the runtime interventions.
	MaskedCells    int `json:"masked_cells"`
	SuppressedRows int `json:"suppressed_rows"`
	// CacheHit reports that the enforcement plan came from the tenant's
	// decision cache.
	CacheHit bool `json:"cache_hit"`
}

// CheckRequest asks for a static compliance check of one report for one
// consumer, with no data flow. POST /v1/tenants/{tenant}/check
type CheckRequest struct {
	Report   string   `json:"report"`
	Consumer Consumer `json:"consumer"`
}

// CheckResponse is the static compliance verdict.
type CheckResponse struct {
	Tenant        string `json:"tenant"`
	Report        string `json:"report"`
	CorrelationID string `json:"correlation_id"`
	// Compliant is true when no static check fired; Findings carries the
	// non-compliances otherwise.
	Compliant bool       `json:"compliant"`
	Findings  []Decision `json:"findings,omitempty"`
}

// LintRequest asks for static PLA analysis.
// POST /v1/tenants/{tenant}/lint
type LintRequest struct {
	// Source optionally carries a PLA DSL document to lint standalone
	// (agreement-level analyzers only). Empty lints the tenant's live
	// deployment with the full cross-level analyzer set.
	Source string `json:"source,omitempty"`
	// MinSeverity filters the findings: "info" (default), "warning" or
	// "error".
	MinSeverity string `json:"min_severity,omitempty"`
}

// LintFinding is one static-analysis finding.
type LintFinding struct {
	// Code is the stable analyzer code ("PL001"…).
	Code string `json:"code"`
	// Severity is "info", "warning" or "error".
	Severity string `json:"severity"`
	// Level is the abstraction level the finding concerns.
	Level string `json:"level,omitempty"`
	// Pos points at the offending DSL construct ("file:line:col", empty
	// when the finding has no source position).
	Pos string `json:"pos,omitempty"`
	// Subject is the defective element.
	Subject string `json:"subject,omitempty"`
	// Message explains the defect and its runtime consequence.
	Message string `json:"message"`
	// PLAs lists the ids of the agreements involved.
	PLAs []string `json:"plas,omitempty"`
}

// LintResponse is the analyzer verdict.
type LintResponse struct {
	Tenant        string `json:"tenant"`
	CorrelationID string `json:"correlation_id"`
	// Clean is true when no finding at or above MinSeverity remains.
	Clean    bool          `json:"clean"`
	Findings []LintFinding `json:"findings,omitempty"`
}

// ReportInfo describes one registered report.
type ReportInfo struct {
	ID      string   `json:"id"`
	Title   string   `json:"title,omitempty"`
	Query   string   `json:"query"`
	Roles   []string `json:"roles,omitempty"`
	Purpose string   `json:"purpose,omitempty"`
	Version int      `json:"version,omitempty"`
	// Meta is the id of the meta-report the report is assigned to
	// (empty when unassigned).
	Meta string `json:"meta,omitempty"`
}

// ReportsResponse lists a tenant's report portfolio, sorted by id.
// GET /v1/tenants/{tenant}/reports
type ReportsResponse struct {
	Tenant        string       `json:"tenant"`
	CorrelationID string       `json:"correlation_id"`
	Reports       []ReportInfo `json:"reports"`
}

// TenantHealth is one tenant's serving state.
type TenantHealth struct {
	Name string `json:"name"`
	// Version counts the policy-bundle swaps this tenant has served
	// (1 = the boot bundle).
	Version int `json:"version"`
	// Reports is the size of the registered report portfolio.
	Reports int `json:"reports"`
}

// HealthResponse is the unauthenticated liveness document.
// GET /healthz
type HealthResponse struct {
	// Status is "ok" while the server accepts requests.
	Status  string         `json:"status"`
	Tenants []TenantHealth `json:"tenants,omitempty"`
}

// TenantReload is one tenant's outcome inside a ReloadResponse.
type TenantReload struct {
	Name string `json:"name"`
	// Swapped is true when a new engine instance replaced the old one
	// (false = unchanged bundle fingerprint, old instance kept serving).
	Swapped bool `json:"swapped"`
	// Version counts the policy-bundle swaps this tenant has served
	// (1 = the boot bundle).
	Version int `json:"version"`
	// ProgramGeneration is the engine's compiled-program generation
	// counter after the reload; a swap recompiles every residual render
	// program, so it advances with the swap.
	ProgramGeneration uint64 `json:"program_generation"`
	// Impacts lists the semantic policy-change findings (pladiff PD
	// codes) between the old and new engine for swapped tenants. An
	// error-severity impact here means the expansion was explicitly let
	// through (allow_expansion or ?force=1).
	Impacts []LintFinding `json:"impacts,omitempty"`
}

// ReloadResponse is the admin reload outcome.
// POST /admin/reload[?force=1]
type ReloadResponse struct {
	// Status is "reloaded" when the swap went through.
	Status  string         `json:"status"`
	Tenants []TenantReload `json:"tenants,omitempty"`
}
