package enforce

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// CacheStats is a snapshot of the decision-cache counters.
type CacheStats struct {
	// Hits counts lookups answered from a valid cached plan.
	Hits uint64
	// Misses counts lookups that had to build a plan (including the
	// first render of every (report, role, purpose) triple).
	Misses uint64
	// Invalidations counts cached plans discarded because a PLA, catalog
	// or scope generation moved underneath them.
	Invalidations uint64
	// Entries is the number of currently cached plans.
	Entries int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// planKey identifies one cached enforcement plan: the paper's report
// enforcement is a pure function of (report definition, consumer role,
// consumer purpose) for a fixed set of PLAs, catalog and meta-report
// assignment — exactly what the generations guard.
type planKey struct {
	report  string
	role    string
	purpose string
}

const defaultCacheShards = 16

// planCache is a sharded map of render programs with generation-checked
// lookups. Sharding keeps lock contention negligible under b.RunParallel
// style workloads; staleness is detected at lookup time by comparing the
// stored generations with the caller's current ones, so AddPLAs or
// DeriveMetaReports invalidate without touching the cache at all.
type planCache struct {
	shards        [defaultCacheShards]planShard
	capPerShard   int
	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

type planShard struct {
	mu      sync.RWMutex
	entries map[planKey]*Program
}

// newPlanCache builds a cache bounded at roughly capacity entries
// (capacity <= 0 selects the default of 1024).
func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = 1024
	}
	per := capacity / defaultCacheShards
	if per < 1 {
		per = 1
	}
	c := &planCache{capPerShard: per}
	for i := range c.shards {
		c.shards[i].entries = map[planKey]*Program{}
	}
	return c
}

func (c *planCache) shard(k planKey) *planShard {
	h := fnv.New32a()
	h.Write([]byte(k.report))
	h.Write([]byte{0})
	h.Write([]byte(k.role))
	h.Write([]byte{0})
	h.Write([]byte(k.purpose))
	return &c.shards[h.Sum32()%defaultCacheShards]
}

// get returns the cached plan for k if it was computed at exactly the
// given generations; a stale entry is evicted and counted as an
// invalidation.
func (c *planCache) get(k planKey, at Generations) (*Program, bool) {
	s := c.shard(k)
	s.mu.RLock()
	p, ok := s.entries[k]
	s.mu.RUnlock()
	if ok && p.At == at {
		c.hits.Add(1)
		return p, true
	}
	if ok {
		s.mu.Lock()
		// Re-check: a concurrent put may have refreshed the entry to
		// exactly the caller's generations — in that race the refreshed
		// plan is the answer, not a miss that forces a redundant rebuild.
		if cur, still := s.entries[k]; still {
			if cur.At == at {
				s.mu.Unlock()
				c.hits.Add(1)
				return cur, true
			}
			delete(s.entries, k)
			c.invalidations.Add(1)
		}
		s.mu.Unlock()
	}
	c.misses.Add(1)
	return nil, false
}

// put stores a plan, evicting an arbitrary entry when the shard is full
// (the workload is a small set of hot reports; FIFO/LRU refinement is not
// worth the bookkeeping).
func (c *planCache) put(k planKey, p *Program) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[k]; !exists && len(s.entries) >= c.capPerShard {
		for victim := range s.entries {
			delete(s.entries, victim)
			break
		}
	}
	s.entries[k] = p
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.RUnlock()
	}
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       n,
	}
}
