package payg

import (
	"context"
	"fmt"
	"testing"
)

func scoresEqual(a, b []Score) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueryCacheLRUAndGenerations(t *testing.T) {
	c := newQueryCache(2)
	s1 := []Score{{Domain: 0, LogPosterior: -1, Posterior: 0.9}}
	s2 := []Score{{Domain: 1, LogPosterior: -2, Posterior: 0.1}}

	if _, ok := c.get("a", 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("a", 0, s1)
	got, ok := c.get("a", 0)
	if !ok || !scoresEqual(got, s1) {
		t.Fatalf("get after put: %v %v", got, ok)
	}
	// The cache hands out copies: mutating a returned slice must not
	// corrupt the stored ranking.
	got[0].Domain = 99
	if again, _ := c.get("a", 0); again[0].Domain != 0 {
		t.Fatal("cache entry aliased by returned slice")
	}

	// A newer generation makes the entry unservable and drops it.
	if _, ok := c.get("a", 1); ok {
		t.Fatal("stale-generation entry served")
	}
	if _, ok := c.get("a", 0); ok {
		t.Fatal("stale entry not evicted on sight")
	}

	// LRU eviction at capacity 2: touching "b" makes "c" the eviction
	// victim's survivor... fill b, c, touch b, add d -> c evicted.
	c.put("b", 1, s1)
	c.put("c", 1, s2)
	if _, ok := c.get("b", 1); !ok {
		t.Fatal("b missing")
	}
	c.put("d", 1, s1)
	if _, ok := c.get("c", 1); ok {
		t.Fatal("LRU should have evicted c")
	}
	if _, ok := c.get("b", 1); !ok {
		t.Fatal("recently used b evicted")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}

	if newQueryCache(0) != nil || newQueryCache(-5) != nil {
		t.Fatal("non-positive capacity must disable the cache")
	}
}

func TestManagerClassifyUsesCache(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})

	first := mgr.Classify("departure destination airline")
	if want := mgr.System().Classify("departure destination airline"); !scoresEqual(first, want) {
		t.Fatalf("cached path diverges from System().Classify:\n%v\n%v", first, want)
	}
	if mgr.queries.len() != 1 {
		t.Fatalf("cache len %d after first query, want 1", mgr.queries.len())
	}
	second := mgr.Classify("departure destination airline")
	if !scoresEqual(first, second) {
		t.Fatal("repeat query returned a different ranking")
	}
	// Keyword order and duplicates canonicalize to the same key (the query
	// vector is a set union), so no extra entry appears.
	reordered := mgr.Classify("airline departure destination departure")
	if !scoresEqual(first, reordered) {
		t.Fatal("reordered query returned a different ranking")
	}
	if mgr.queries.len() != 1 {
		t.Fatalf("cache len %d after reordered repeat, want 1 (key not canonical)", mgr.queries.len())
	}
}

// TestManagerClassifyTopKeysOnK: an entry holds the k scores asked for, so
// k is part of the key — each k answers its own System().ClassifyTop,
// bit for bit, from its own entry — while every k past the domain count is
// the one full-ranking entry Classify uses.
func TestManagerClassifyTopKeysOnK(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
	kw := []string{"departure", "destination", "airline"}
	n := mgr.System().NumDomains()
	for round := 0; round < 2; round++ {
		for _, k := range []int{1, 2} {
			got := mgr.View().ClassifyTop(kw, k)
			if want := mgr.System().ClassifyTop(kw, k); len(got) != k || !scoresEqual(got, want) {
				t.Fatalf("round %d k=%d: cached %v, uncached %v", round, k, got, want)
			}
		}
		if mgr.queries.len() != 2 {
			t.Fatalf("round %d: cache len %d after k=1 and k=2, want 2", round, mgr.queries.len())
		}
	}
	full := mgr.Classify("departure destination airline")
	for _, k := range []int{n, n + 1, n + 100} {
		if got := mgr.View().ClassifyTop(kw, k); !scoresEqual(got, full) {
			t.Fatalf("k=%d: %v, want the full ranking %v", k, got, full)
		}
	}
	if mgr.queries.len() != 3 {
		t.Fatalf("cache len %d, want 3: every k ≥ %d domains is the full ranking's entry", mgr.queries.len(), n)
	}
	if a, b := cacheKey([]string{"b", "a"}, 3), cacheKey([]string{"a", "b"}, 3); a != b || a == cacheKey([]string{"a", "b"}, 2) {
		t.Fatalf("cacheKey: %q and %q should match and differ from k=2's", a, b)
	}
}

func TestManagerClassifyCacheDisabled(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1, QueryCacheSize: -1})
	if mgr.queries != nil {
		t.Fatal("negative QueryCacheSize must disable the cache")
	}
	got := mgr.Classify("departure destination")
	if want := mgr.System().Classify("departure destination"); !scoresEqual(got, want) {
		t.Fatal("uncached manager classify diverges")
	}
	batch := mgr.ClassifyBatch([]string{"departure", "title authors"}, mgr.System().NumDomains())
	if len(batch) != 2 {
		t.Fatalf("batch size %d", len(batch))
	}
	if want := mgr.System().Classify("title authors"); !scoresEqual(batch[1], want) {
		t.Fatal("uncached manager batch diverges")
	}
}

// TestCacheParityAcrossSwaps is the acceptance contract: a stream of
// repeated and novel queries, interleaved with a feedback swap and an
// ingest-triggered recluster, must always answer exactly what an uncached
// Classify against the current generation would — same posteriors, same
// order, same domains — and never serve a ranking across a generation
// swap.
func TestCacheParityAcrossSwaps(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})

	queries := []string{
		"departure destination airline",
		"title authors venue",
		"make model mileage",
		"departure destination airline", // repeat
		"price",
	}
	checkParity := func(phase string) {
		t.Helper()
		for _, q := range queries {
			cached := mgr.Classify(q)
			uncached := mgr.System().Classify(q)
			if !scoresEqual(cached, uncached) {
				t.Fatalf("%s: query %q: cached %v, uncached %v", phase, q, cached, uncached)
			}
			// Second hit must come from the cache and stay identical.
			if again := mgr.Classify(q); !scoresEqual(again, uncached) {
				t.Fatalf("%s: query %q: second (cached) answer diverged", phase, q)
			}
		}
	}

	checkParity("initial")
	genBefore := mgr.cur.Load().gen

	// Feedback swap: bumps the generation; every cached entry is stale.
	travel := mgr.System().Model().Clustering.Assign[0]
	if _, err := mgr.ApplyFeedback(Feedback{Moves: []Move{{Schema: 5, Domain: travel}}}); err != nil {
		t.Fatal(err)
	}
	if g := mgr.cur.Load().gen; g != genBefore+1 {
		t.Fatalf("feedback did not bump state generation: %d -> %d", genBefore, g)
	}
	checkParity("after feedback")

	// Ingest-triggered recluster: the published rebuild swaps a new system
	// (and generation) in.
	for _, sch := range newcomerSchemas() {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := mgr.cur.Load().gen; g != genBefore+2 {
		t.Fatalf("recluster did not bump state generation: got %d", g)
	}
	checkParity("after recluster")

	// Novel queries after the swaps keep populating the fresh generation.
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("novel query %d", i)
		if !scoresEqual(mgr.Classify(q), mgr.System().Classify(q)) {
			t.Fatalf("novel query %q diverged", q)
		}
	}
}

// TestManagerClassifyBatchParity mixes cached and novel queries in one
// batch and checks input-order parity with the sequential uncached path.
func TestManagerClassifyBatchParity(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})

	// Warm two of the five.
	mgr.Classify("departure destination airline")
	mgr.Classify("title authors")

	batch := []string{
		"departure destination airline", // hit
		"make model",                    // miss
		"title authors",                 // hit
		"fuel type transmission",        // miss
		"departure destination airline", // duplicate of a hit
	}
	got := mgr.ClassifyBatch(batch, mgr.System().NumDomains())
	if len(got) != len(batch) {
		t.Fatalf("batch returned %d results for %d queries", len(got), len(batch))
	}
	for i, q := range batch {
		if want := mgr.System().Classify(q); !scoresEqual(got[i], want) {
			t.Fatalf("batch[%d] (%q) diverged from uncached classify", i, q)
		}
	}
	// Everything in the batch is now cached; a repeat batch must be all
	// hits and identical.
	again := mgr.ClassifyBatch(batch, mgr.System().NumDomains())
	for i := range batch {
		if !scoresEqual(again[i], got[i]) {
			t.Fatalf("repeat batch[%d] diverged", i)
		}
	}
}
