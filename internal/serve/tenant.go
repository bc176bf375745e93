package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"plabi"
)

// instance is one built engine serving one tenant's policy-bundle
// version. Requests acquire the instance for their duration, so a swap
// can drain it (wait for the in-flight count to reach zero) before
// closing the engine and its audit sink.
type instance struct {
	eng     *plabi.Engine
	version int
	// inflight counts acquired references; drained closes once it can
	// never rise again (the instance is no longer reachable from the
	// tenant pointer and the count hit zero).
	mu       sync.Mutex
	inflight int
	retired  bool
	drained  chan struct{}
}

// acquire registers an in-flight request against the instance.
func (in *instance) acquire() {
	in.mu.Lock()
	in.inflight++
	in.mu.Unlock()
}

// release ends one in-flight request, completing a pending drain when it
// was the last.
func (in *instance) release() {
	in.mu.Lock()
	in.inflight--
	done := in.retired && in.inflight == 0
	in.mu.Unlock()
	if done {
		close(in.drained)
	}
}

// retire marks the instance unreachable and returns a channel closed
// when the last in-flight request releases (immediately when idle).
func (in *instance) retire() <-chan struct{} {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.retired {
		return in.drained
	}
	in.retired = true
	in.drained = make(chan struct{})
	if in.inflight == 0 {
		close(in.drained)
	}
	return in.drained
}

// tenant is one isolation domain: its manifest config, its rate bucket,
// and the atomically swappable engine instance currently serving it.
type tenant struct {
	name    string
	limiter *bucket

	mu          sync.Mutex // serializes swaps, not requests
	cfg         TenantConfig
	fingerprint string
	cur         atomic.Pointer[instance]
}

// buildInstance constructs the engine a tenant config describes: open
// (append) the audit sink file, build the scenario engine with the
// tenant's tuning, and register its extra PLA bundle. The audit file is
// owned by the engine from here on — Engine.Close closes it.
func buildInstance(cfg TenantConfig, version int, auditDir string) (*instance, error) {
	path := cfg.AuditPath
	if path == "" {
		if auditDir == "" {
			auditDir = os.TempDir()
		}
		path = filepath.Join(auditDir, cfg.Name+".audit.jsonl")
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: open audit sink: %w", cfg.Name, err)
	}
	opts := []plabi.Option{plabi.WithAuditSink(f)}
	if cfg.CacheSize > 0 {
		opts = append(opts, plabi.WithCacheSize(cfg.CacheSize))
	}
	if cfg.Workers > 0 {
		opts = append(opts, plabi.WithWorkers(cfg.Workers))
	}
	eng, err := plabi.OpenHealthcare(plabi.HealthcareConfig{
		Seed: cfg.Seed, Prescriptions: cfg.Prescriptions,
	}, opts...)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("serve: tenant %s: build engine: %w", cfg.Name, err)
	}
	if cfg.ExtraPLAs != "" {
		if err := eng.AddPLAs(cfg.ExtraPLAs); err != nil {
			_ = eng.Close()
			return nil, fmt.Errorf("serve: tenant %s: extra PLAs: %w", cfg.Name, err)
		}
	}
	// Compile every (report, role) residual program before the instance
	// serves a single request: a bundle swap therefore recompiles — the
	// first post-reload render executes an already-specialized program
	// instead of paying compilation (or a cold cache) on the hot path.
	if _, err := eng.Precompile(); err != nil {
		_ = eng.Close()
		return nil, fmt.Errorf("serve: tenant %s: precompile: %w", cfg.Name, err)
	}
	return &instance{eng: eng, version: version}, nil
}

// swap atomically replaces the serving instance, then (asynchronously)
// drains and closes the old one: in-flight requests against the old
// engine finish against the old policy bundle and their audit events
// reach the old sink before it is flushed and closed.
func (t *tenant) swap(ni *instance) {
	old := t.cur.Swap(ni)
	if old == nil {
		return
	}
	go func() {
		<-old.retire()
		_ = old.eng.Close()
	}()
}

// close retires the current instance synchronously: drains in-flight
// requests and closes the engine. Used at server shutdown.
func (t *tenant) close() error {
	old := t.cur.Swap(nil)
	if old == nil {
		return nil
	}
	<-old.retire()
	return old.eng.Close()
}

// acquire returns the serving instance with an in-flight reference held,
// or nil when the tenant is shut down. Callers must call the returned
// release exactly once.
func (t *tenant) acquire() (*instance, func()) {
	for {
		in := t.cur.Load()
		if in == nil {
			return nil, nil
		}
		in.acquire()
		// The pointer may have been swapped between Load and acquire; the
		// reference is still safe (retire waits for it), but prefer the
		// live instance so new requests land on the new bundle.
		if t.cur.Load() == in {
			return in, in.release
		}
		in.release()
	}
}
