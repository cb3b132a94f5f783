package query

import (
	"sync"
	"time"

	"spotlight/pkg/api"
)

// resultCache is the API's one response cache: evaluated results keyed by
// each spec's ETag preimage (specKey) — its parameters, the generation of
// the shards its answer reads, and the clock when the answer depends on
// it. That is exactly the value a conditional request trusts (equal tag ⇒
// equal body), so a hit is as sound as a 304. The cache never needs
// explicit eviction on write: an append inside a spec's scope bumps the
// scope generation, the spec's key changes with it, and the stale entry
// is simply never probed again, while appends to unrelated shards leave
// the entry reachable — per-shard invalidation for free.
//
// Results are stored and returned by reference; nothing on the serving
// path mutates an api.Result after exec builds it.
type resultCache struct {
	mu           sync.Mutex
	entries      map[string]api.Result
	hits, misses uint64
}

// cacheSize bounds the entry map. Distinct specs on a serving node are
// few — applications poll the same dashboards — so the bound exists only
// to survive key churn: adversarial specs, or the dead keys an advancing
// clock and rotating generations leave behind.
const cacheSize = 1024

func newResultCache() *resultCache {
	return &resultCache{entries: make(map[string]api.Result)}
}

// get returns the cached result for key.
func (c *resultCache) get(key string) (api.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return res, ok
}

// put stores res for key. When the map is full it is reset wholesale:
// entries re-fill on demand and the reset path is cheaper and simpler
// than tracking recency for a cache this small.
func (c *resultCache) put(key string, res api.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= cacheSize {
		c.entries = make(map[string]api.Result)
	}
	c.entries[key] = res
}

// stats returns the hit/miss counters.
func (c *resultCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// fill evaluates q at now after a cache miss on key and stores the result.
// Error results are never stored: they are cheap to recompute, and
// keeping them would let a burst of malformed specs flush the answers
// worth keeping. The key's generation was read before exec runs, so an
// append racing the evaluation leaves the entry under the older key and
// the next request, reading the newer generation, recomputes.
func (a *API) fill(q api.Query, key string, now time.Time) api.Result {
	res := a.exec(q, now)
	if res.Error == nil {
		a.cache.put(key, res)
	}
	return res
}
