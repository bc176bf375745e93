package enforce

import (
	"fmt"
	"sync"
	"testing"
)

func TestPlanCacheGenerationCheck(t *testing.T) {
	c := newPlanCache(64)
	k := planKey{report: "r", role: "analyst", purpose: "quality"}
	at := Generations{Version: 1, Policy: 2, Catalog: 3, Scope: 4}

	if _, ok := c.get(k, at); ok {
		t.Fatal("empty cache returned a plan")
	}
	c.put(k, &Program{At: at})
	if _, ok := c.get(k, at); !ok {
		t.Fatal("stored plan not returned for matching generations")
	}
	// Any generation moving invalidates.
	for i, stale := range []Generations{
		{Version: 2, Policy: 2, Catalog: 3, Scope: 4},
		{Version: 1, Policy: 9, Catalog: 3, Scope: 4},
		{Version: 1, Policy: 2, Catalog: 9, Scope: 4},
		{Version: 1, Policy: 2, Catalog: 3, Scope: 9},
	} {
		c.put(k, &Program{At: at})
		if _, ok := c.get(k, stale); ok {
			t.Fatalf("case %d: stale plan served", i)
		}
	}
	s := c.stats()
	if s.Invalidations != 4 {
		t.Errorf("invalidations = %d, want 4", s.Invalidations)
	}
	if s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
}

func TestPlanCacheBounded(t *testing.T) {
	c := newPlanCache(32) // 2 per shard
	for i := 0; i < 500; i++ {
		k := planKey{report: fmt.Sprintf("r%d", i), role: "a", purpose: "p"}
		c.put(k, &Program{})
	}
	if n := c.stats().Entries; n > 32 {
		t.Errorf("entries = %d, want <= 32", n)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := newPlanCache(0)
	at := Generations{Version: 1}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := planKey{report: fmt.Sprintf("r%d", i%17), role: "a", purpose: "p"}
				if p, ok := c.get(k, at); !ok || p == nil {
					c.put(k, &Program{At: at})
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.stats()
	if s.Hits == 0 {
		t.Error("expected concurrent hits")
	}
	if s.Entries == 0 || s.Entries > 17 {
		t.Errorf("entries = %d, want 1..17", s.Entries)
	}
}

func TestCacheStatsHitRate(t *testing.T) {
	if r := (CacheStats{}).HitRate(); r != 0 {
		t.Errorf("empty hit rate = %v", r)
	}
	if r := (CacheStats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", r)
	}
}

// TestPlanCacheRefreshRace pins the stale-eviction re-check: a get that
// sees a stale entry under the read lock must re-read under the write
// lock before evicting, because a concurrent put may have refreshed the
// entry to exactly the caller's generations. Without the re-check the
// racing get deletes the freshly refreshed plan, and every later lookup
// pays a redundant rebuild. Run under -race.
func TestPlanCacheRefreshRace(t *testing.T) {
	k := planKey{report: "r", role: "analyst", purpose: "quality"}
	oldAt := Generations{Version: 1}
	newAt := Generations{Version: 2}
	for iter := 0; iter < 300; iter++ {
		c := newPlanCache(0)
		c.put(k, &Program{At: oldAt})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.get(k, newAt) // may observe the stale entry mid-refresh
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c.put(k, &Program{At: newAt})
		}()
		close(start)
		wg.Wait()
		// The refresh must survive the racing stale evictions.
		if p, ok := c.get(k, newAt); !ok || p.At != newAt {
			t.Fatalf("iter %d: refreshed plan evicted by a racing get", iter)
		}
	}
}
