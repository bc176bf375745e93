// Package serve is the plabid policy-decision server: the HTTP/JSON
// transport over the plabi engine. Each tenant of the server gets a
// fully isolated engine — its own policy registry, decision cache and
// audit sink file — built from a manifest entry; requests authenticate
// with bearer tokens mapped to tenants, a token bucket rate-limits each
// tenant, and policy bundles hot-reload by building a fresh engine,
// atomically swapping the serving pointer, draining the old engine's
// in-flight requests and closing it. The wire contract is plabi/api/v1.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Manifest declares the tenants a plabid server hosts. The on-disk form
// is JSON; Reload re-reads it and swaps changed tenants in place.
type Manifest struct {
	// Tenants are the hosted deployments. Names must be unique.
	Tenants []TenantConfig `json:"tenants"`
	// AdminTokens authorize the /admin endpoints (reload). Empty
	// disables remote administration; plabid then reloads on SIGHUP only.
	AdminTokens []string `json:"admin_tokens,omitempty"`
}

// TenantConfig is one tenant's manifest entry: who may call it, how its
// engine is built, and how hard it may drive the server.
type TenantConfig struct {
	// Name keys the tenant's URL space (/v1/tenants/{name}/...).
	// Lowercase letters, digits and dashes.
	Name string `json:"name"`
	// Tokens are the bearer tokens mapped to this tenant. At least one;
	// tokens must be unique across the whole manifest.
	Tokens []string `json:"tokens"`
	// Scenario selects the engine build. Only "healthcare" (the paper's
	// Fig. 1 deployment) is available today; Seed and Prescriptions size
	// its synthetic workload.
	Scenario      string `json:"scenario,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	Prescriptions int    `json:"prescriptions,omitempty"`
	// ExtraPLAs is an inline PLA DSL document registered after the
	// scenario build — the tenant's own policy bundle on top of the
	// scenario agreements. Editing it and reloading is how policies
	// evolve without a restart.
	ExtraPLAs string `json:"extra_plas,omitempty"`
	// AuditPath is the tenant's audit sink file (JSONL, append). Empty
	// derives "<audit-dir>/<name>.audit.jsonl" from the server option.
	AuditPath string `json:"audit_path,omitempty"`
	// RateRPS and RateBurst bound the tenant's request rate with a token
	// bucket (0 RPS = unlimited; burst defaults to RateRPS).
	RateRPS   float64 `json:"rate_rps,omitempty"`
	RateBurst float64 `json:"rate_burst,omitempty"`
	// Engine tuning, passed through to the plabi options.
	CacheSize int `json:"cache_size,omitempty"`
	Workers   int `json:"workers,omitempty"`
	// AllowExpansion lets a reload through even when pladiff finds
	// error-severity privilege expansions between the running engine and
	// the staged one. Off by default: expansions are refused unless the
	// admin endpoint is called with ?force=1. Deliberately excluded from
	// the bundle fingerprint — it gates the swap, it does not change the
	// engine.
	AllowExpansion bool `json:"allow_expansion,omitempty"`
}

var tenantNameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,63}$`)

// Validate checks the manifest's internal consistency: tenant names are
// well-formed and unique, every tenant has at least one token, and no
// token is shared between tenants (a shared token would alias two
// isolation domains).
func (m *Manifest) Validate() error {
	if len(m.Tenants) == 0 {
		return fmt.Errorf("serve: manifest declares no tenants")
	}
	names := map[string]bool{}
	tokens := map[string]string{}
	for i := range m.Tenants {
		t := &m.Tenants[i]
		if !tenantNameRE.MatchString(t.Name) {
			return fmt.Errorf("serve: tenant %d: invalid name %q (want lowercase letters, digits, dashes)", i, t.Name)
		}
		if names[t.Name] {
			return fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		names[t.Name] = true
		if len(t.Tokens) == 0 {
			return fmt.Errorf("serve: tenant %q has no tokens", t.Name)
		}
		for _, tok := range t.Tokens {
			if tok == "" {
				return fmt.Errorf("serve: tenant %q has an empty token", t.Name)
			}
			if other, dup := tokens[tok]; dup {
				return fmt.Errorf("serve: token shared between tenants %q and %q", other, t.Name)
			}
			tokens[tok] = t.Name
		}
		for _, tok := range m.AdminTokens {
			if tokens[tok] != "" {
				return fmt.Errorf("serve: admin token also mapped to tenant %q", tokens[tok])
			}
		}
		switch t.Scenario {
		case "", "healthcare":
		default:
			return fmt.Errorf("serve: tenant %q: unknown scenario %q (want \"healthcare\")", t.Name, t.Scenario)
		}
		if t.Seed < 0 || t.Prescriptions < 0 {
			return fmt.Errorf("serve: tenant %q: negative workload sizing", t.Name)
		}
		if t.RateRPS < 0 || t.RateBurst < 0 {
			return fmt.Errorf("serve: tenant %q: negative rate limit", t.Name)
		}
	}
	return nil
}

// ParseManifest decodes and validates a manifest document.
func ParseManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("serve: parse manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadManifest reads, decodes and validates a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: read manifest: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return m, nil
}

// bundleFingerprint summarizes the engine-relevant part of a tenant
// config: when it is unchanged across a reload, the running engine is
// kept instead of being rebuilt and swapped.
func (t *TenantConfig) bundleFingerprint() string {
	b, _ := json.Marshal(struct {
		Scenario      string
		Seed          int64
		Prescriptions int
		ExtraPLAs     string
		AuditPath     string
		CacheSize     int
		Workers       int
	}{t.Scenario, t.Seed, t.Prescriptions, t.ExtraPLAs, t.AuditPath, t.CacheSize, t.Workers})
	return string(b)
}
