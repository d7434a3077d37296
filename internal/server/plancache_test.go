package server

import (
	"fmt"
	"testing"
)

// TestPlanCacheKeepsHotEntries: sixteen texts that are hit between
// insertions outlive ten thousand texts that are each sent once, in a
// cache of 128 — which evicting a random victim did not guarantee (a hot
// text was one of the 128 candidates every time) — and the cache never
// holds more than its bound.
func TestPlanCacheKeepsHotEntries(t *testing.T) {
	const max, hot, cold = 128, 16, 10_000
	c := newPlanCache(max)
	hotKey := func(i int) string { return fmt.Sprintf("hot %d", i) }
	for i := 0; i < hot; i++ {
		c.put(hotKey(i), planEntry{})
	}
	for i := 0; i < cold; i++ {
		c.put(fmt.Sprintf("cold %d", i), planEntry{})
		if n := c.stats().Entries; n > max {
			t.Fatalf("after %d cold insertions the cache holds %d entries, bound %d", i+1, n, max)
		}
		if _, ok := c.get(hotKey(i % hot)); !ok {
			t.Fatalf("hot entry %d evicted after %d cold insertions", i%hot, i+1)
		}
	}
	st := c.stats()
	if st.Entries != max || st.Hits != cold || st.Misses != 0 {
		t.Errorf("stats %+v, want %d entries, %d hits, 0 misses", st, max, cold)
	}
	// The most recent cold texts fill the rest; the oldest are gone.
	if _, ok := c.get("cold 0"); ok {
		t.Error("the first cold text is still cached")
	}
	if _, ok := c.get(fmt.Sprintf("cold %d", cold-1)); !ok {
		t.Error("the last cold text is not cached")
	}
	// Re-putting a cached text neither duplicates nor evicts.
	c.put(hotKey(0), planEntry{})
	if n := c.stats().Entries; n != max {
		t.Errorf("%d entries after a repeated put, want %d", n, max)
	}
}
