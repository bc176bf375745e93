package apiv1

import (
	"fmt"
	"net/http"
)

// ErrorCode is a stable machine-readable failure class. Codes are
// append-only within /v1; clients dispatch on them, never on message
// text. Each code maps to exactly one HTTP status (HTTPStatus).
type ErrorCode string

// The /v1 error codes.
const (
	// CodeBadRequest: the request body or parameters failed to parse or
	// validate. HTTP 400.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnauthorized: missing or invalid bearer token. HTTP 401.
	CodeUnauthorized ErrorCode = "unauthorized"
	// CodeUnknownTenant: the path names a tenant that does not exist or
	// that the presented token is not mapped to (the two cases are
	// deliberately indistinguishable, so tokens cannot probe for other
	// tenants). HTTP 404.
	CodeUnknownTenant ErrorCode = "unknown_tenant"
	// CodeUnknownReport: the report id is not registered for the tenant
	// (the engine's ErrUnknownReport). HTTP 404.
	CodeUnknownReport ErrorCode = "unknown_report"
	// CodeBlocked: PLA enforcement refused the operation (the engine's
	// BlockedError / ErrPLAViolation); Error.Decisions carries the
	// blocking decisions. HTTP 403.
	CodeBlocked ErrorCode = "pla_blocked"
	// CodeAuditUnavailable: the tenant could not write a render's audit
	// trail, so the data was not released (the engine's
	// ErrAuditUnavailable). HTTP 503.
	CodeAuditUnavailable ErrorCode = "audit_unavailable"
	// CodeRateLimited: the tenant's token bucket is empty; retry after
	// the Retry-After header. HTTP 429.
	CodeRateLimited ErrorCode = "rate_limited"
	// CodeInternal: an unexpected server-side failure. HTTP 500.
	CodeInternal ErrorCode = "internal"
	// CodeReloadRejected: the admin reload was refused by the policy-
	// change gate — the staged manifest contains error-severity privilege
	// expansions and neither allow_expansion nor ?force=1 was set.
	// Error.Impacts carries the expansion findings. HTTP 409.
	CodeReloadRejected ErrorCode = "reload_rejected"
)

// HTTPStatus returns the HTTP status a code is served with. Unknown
// codes (a newer server talking to an older client copy of this
// package) map to 500.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnauthorized:
		return http.StatusUnauthorized
	case CodeUnknownTenant, CodeUnknownReport:
		return http.StatusNotFound
	case CodeBlocked:
		return http.StatusForbidden
	case CodeAuditUnavailable:
		return http.StatusServiceUnavailable
	case CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeReloadRejected:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// Error is the typed failure document every non-2xx /v1 response
// carries, wrapped in ErrorEnvelope. It implements error, so the client
// returns it directly and callers dispatch on Code.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// CorrelationID joins the failure with the server-side audit events
	// and spans of the request that produced it.
	CorrelationID string `json:"correlation_id,omitempty"`
	// Decisions carries the blocking enforcement decisions for
	// CodeBlocked responses.
	Decisions []Decision `json:"decisions,omitempty"`
	// Impacts carries the privilege-expansion findings for
	// CodeReloadRejected responses (pladiff PD codes).
	Impacts []LintFinding `json:"impacts,omitempty"`
	// HTTP is the transport status the error arrived with; set by the
	// client, never serialized.
	HTTP int `json:"-"`
}

// Error implements error.
func (e *Error) Error() string {
	if e.CorrelationID != "" {
		return fmt.Sprintf("plabid: %s: %s [%s]", e.Code, e.Message, e.CorrelationID)
	}
	return fmt.Sprintf("plabid: %s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the body of every non-2xx /v1 response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}
