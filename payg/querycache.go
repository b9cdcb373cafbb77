package payg

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// queryCache is a generation-keyed LRU over ranked classification results.
// Keys are canonicalized query term sets with the number of domains asked
// for, and an entry holds that many scores; each entry remembers the serving
// generation it was computed against, and the manager's atomic-swap
// generation counter makes invalidation free: an entry whose generation is
// not the current one is a miss (and is dropped on sight), so a feedback
// apply or recluster swap can never serve a stale ranking. There is no
// flush-on-swap — stale entries age out through lookups and LRU pressure.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key → element holding *cacheEntry
}

type cacheEntry struct {
	key    string
	gen    int
	scores []Score
}

// newQueryCache returns a cache bounded to capacity entries, or nil when
// capacity <= 0 (caching disabled; the nil cache is checked at call sites).
func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		return nil
	}
	return &queryCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// cacheKey canonicalizes a query's extracted term set and the number of
// domains asked for: classification depends only on the set of canonical
// terms (QueryVector is a union), so keyword order and duplicates must not
// fragment the cache, and an entry holds only the k best scores, so k is
// part of the key. Terms never contain control bytes, so 0x1F is a safe
// joiner and 0x1E ends the k prefix.
func cacheKey(terms []string, k int) string {
	if len(terms) > 1 && !sort.StringsAreSorted(terms) {
		terms = append([]string(nil), terms...)
		sort.Strings(terms)
	}
	return strconv.Itoa(k) + "\x1e" + strings.Join(terms, "\x1f")
}

// get returns a copy of the cached ranking for key at the given serving
// generation. A present entry from another generation counts as a miss and
// is evicted. The returned slice is the caller's to keep.
func (c *queryCache) get(key string, gen int) ([]Score, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		mQueryCacheMisses.Inc()
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		c.order.Remove(el)
		delete(c.items, key)
		mQueryCacheMisses.Inc()
		mQueryCacheEvictions.Inc()
		mQueryCacheSize.Set(float64(len(c.items)))
		return nil, false
	}
	c.order.MoveToFront(el)
	mQueryCacheHits.Inc()
	out := make([]Score, len(ent.scores))
	copy(out, ent.scores)
	return out, true
}

// put stores a copy of the ranking computed against the given generation,
// evicting least-recently-used entries to stay within capacity.
func (c *queryCache) put(key string, gen int, scores []Score) {
	stored := make([]Score, len(scores))
	copy(stored, scores)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.gen = gen
		ent.scores = stored
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		mQueryCacheEvictions.Inc()
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, gen: gen, scores: stored})
	mQueryCacheSize.Set(float64(len(c.items)))
}

// len reports the current entry count (for tests).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
