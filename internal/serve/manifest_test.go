package serve

import (
	"strings"
	"testing"
	"time"
)

func validTenant(name, token string) TenantConfig {
	return TenantConfig{Name: name, Tokens: []string{token}, Scenario: "healthcare"}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
		want string // substring of the error, "" = valid
	}{
		{"valid", Manifest{Tenants: []TenantConfig{validTenant("alpha", "t1")}}, ""},
		{"no tenants", Manifest{}, "no tenants"},
		{"bad name", Manifest{Tenants: []TenantConfig{validTenant("Alpha!", "t1")}}, "invalid name"},
		{"duplicate name", Manifest{Tenants: []TenantConfig{
			validTenant("alpha", "t1"), validTenant("alpha", "t2")}}, "duplicate tenant"},
		{"no tokens", Manifest{Tenants: []TenantConfig{{Name: "alpha", Scenario: "healthcare"}}}, "no tokens"},
		{"empty token", Manifest{Tenants: []TenantConfig{{Name: "alpha", Tokens: []string{""}}}}, "empty token"},
		{"shared token", Manifest{Tenants: []TenantConfig{
			validTenant("alpha", "t1"), validTenant("beta", "t1")}}, "token shared"},
		{"admin collision", Manifest{AdminTokens: []string{"t1"},
			Tenants: []TenantConfig{validTenant("alpha", "t1")}}, "admin token"},
		{"unknown scenario", Manifest{Tenants: []TenantConfig{
			{Name: "alpha", Tokens: []string{"t1"}, Scenario: "finance"}}}, "unknown scenario"},
		{"negative sizing", Manifest{Tenants: []TenantConfig{
			{Name: "alpha", Tokens: []string{"t1"}, Prescriptions: -1}}}, "negative workload"},
		{"negative rate", Manifest{Tenants: []TenantConfig{
			{Name: "alpha", Tokens: []string{"t1"}, RateRPS: -2}}}, "negative rate"},
	}
	for _, tc := range cases {
		err := tc.m.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseManifestRejectsUnknownFields(t *testing.T) {
	_, err := ParseManifest([]byte(`{"tenants":[{"name":"a","tokens":["t"],"shard":3}]}`))
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

// TestParseManifestRejectsFailClosed: every tenant refuses a render its
// audit trail does not take, so the manifest has no switch for it and the
// strict decoder rejects one.
func TestParseManifestRejectsFailClosed(t *testing.T) {
	_, err := ParseManifest([]byte(`{"tenants":[{"name":"a","tokens":["t"],"fail_closed":true}]}`))
	if err == nil || !strings.Contains(err.Error(), "fail_closed") {
		t.Fatalf("fail_closed accepted: %v", err)
	}
}

func TestBundleFingerprint(t *testing.T) {
	base := validTenant("alpha", "t1")
	same := base
	same.Tokens = []string{"rotated"} // token rotation must NOT rebuild the engine
	same.RateRPS = 99                 // neither must rate tuning
	if base.bundleFingerprint() != same.bundleFingerprint() {
		t.Error("token/rate change altered the bundle fingerprint")
	}
	changed := base
	changed.ExtraPLAs = `pla "p" { owner "o"; level source; scope "s"; }`
	if base.bundleFingerprint() == changed.bundleFingerprint() {
		t.Error("policy bundle change not reflected in fingerprint")
	}
}

func TestBucketRefillAndBurst(t *testing.T) {
	if b := newBucket(0, 5); b != nil {
		t.Fatal("rate 0 should mean unlimited (nil bucket)")
	}
	var nb *bucket
	if !nb.allow(time.Now()) {
		t.Fatal("nil bucket must admit everything")
	}

	t0 := time.Unix(1000, 0)
	b := newBucket(2, 2) // 2 rps, burst 2
	if !b.allow(t0) || !b.allow(t0) {
		t.Fatal("burst capacity not granted")
	}
	if b.allow(t0) {
		t.Fatal("admitted past burst")
	}
	if ra := b.retryAfter(); ra < time.Second {
		t.Fatalf("retryAfter = %v, want >= 1s", ra)
	}
	// Half a second refills one token at 2 rps.
	if !b.allow(t0.Add(500 * time.Millisecond)) {
		t.Fatal("refill not granted")
	}
	if b.allow(t0.Add(500 * time.Millisecond)) {
		t.Fatal("double-spent the refilled token")
	}
	// Long idle caps at burst, not unbounded.
	t1 := t0.Add(time.Hour)
	if !b.allow(t1) || !b.allow(t1) {
		t.Fatal("burst not restored after idle")
	}
	if b.allow(t1) {
		t.Fatal("tokens accumulated past burst")
	}
}
