package server

import (
	"sync"
	"sync/atomic"

	"pvcagg"
)

// planCache is the prepared-statement cache: optimized Q-algebra plans
// keyed by the exact PVQL text. Parsing is cheap, but binding and
// optimization each walk the plan inferring schemas, so a service
// replaying a small set of query shapes (the prepared-statement
// workload) saves the whole frontend on every hit. Plans are immutable
// during evaluation (operators resolve their predicates into fresh
// slices), so one cached plan serves concurrent requests without
// copying.
//
// The cache belongs to the server's one database, because binding
// resolves table schemas and optimization reads that database's row
// counts. Eviction is CLOCK
// (second chance): a hit sets the entry's reference bit under the read
// lock, and a full cache evicts the first entry the hand finds with its
// bit clear, clearing the bits it passes — so a text that is hit between
// insertions outlives any number of texts that are sent once.
type planCache struct {
	mu           sync.RWMutex
	m            map[string]*planSlot
	ring         []*planSlot // at most max entries; hand is the next eviction candidate
	hand         int
	max          int
	hits, misses atomic.Int64
}

// planEntry caches the optimized plan together with the query text's
// EXPLAIN mode — the prefix is part of the text and therefore of the
// cache key, so it must be part of the value too.
type planEntry struct {
	plan    pvcagg.Plan
	explain pvcagg.ExplainMode
}

// planSlot is one cached entry with its CLOCK reference bit.
type planSlot struct {
	query string
	entry planEntry
	used  atomic.Bool
}

func newPlanCache(max int) *planCache {
	return &planCache{m: make(map[string]*planSlot, max), max: max}
}

// get returns the cached optimized plan for the query text, if any.
func (c *planCache) get(query string) (planEntry, bool) {
	c.mu.RLock()
	sl, ok := c.m[query]
	if ok && !sl.used.Load() { // hot entries stay read-only, and their cache line shared
		sl.used.Store(true)
	}
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return planEntry{}, false
	}
	c.hits.Add(1)
	return sl.entry, true
}

// put stores an optimized plan, evicting when full the first entry past
// the hand that no get has touched since the hand last passed it.
func (c *planCache) put(query string, e planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[query]; ok {
		return
	}
	sl := &planSlot{query: query, entry: e}
	c.m[query] = sl
	if len(c.ring) < c.max {
		c.ring = append(c.ring, sl)
		return
	}
	for c.ring[c.hand].used.Load() {
		c.ring[c.hand].used.Store(false)
		c.hand = (c.hand + 1) % len(c.ring)
	}
	delete(c.m, c.ring[c.hand].query)
	c.ring[c.hand] = sl
	c.hand = (c.hand + 1) % len(c.ring)
}

// PlanCacheStats is the point-in-time plan-cache picture on /stats.
type PlanCacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return PlanCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: int64(n)}
}
