package quickr

import (
	"container/list"
	"sync"

	"quickr/internal/metrics"
)

// planCacheCap bounds the prepared plans kept per engine.
const planCacheCap = 128

// planKey identifies one cached prepared plan: the parser-normalized
// SQL text (whitespace, casing and formatting differences collapse to
// one canonical rendering), the execution mode, and the engine's config
// epoch — any DDL or engine setting change bumps the epoch, so stale
// plans can never be served.
// Contract escalation retries the same statement with a forced minimum
// sampling probability; minP keys each ladder rung separately so every
// retry of a given rung is a cache hit (0 for ordinary queries).
type planKey struct {
	sql    string
	approx bool
	epoch  uint64
	minP   float64
}

// planCache is a small thread-safe LRU of prepared plans. Prepared
// plans are immutable after construction (the executor instantiates
// per-run samplers and metrics), so one cached plan may back any number
// of concurrent executions.
type planCache struct {
	mu sync.Mutex
	// guarded-by: mu
	items map[planKey]*list.Element
	// guarded-by: mu
	order *list.List // front = most recently used
}

type planEntry struct {
	key  planKey
	prep *prepared
}

func newPlanCache() *planCache {
	return &planCache{items: map[planKey]*list.Element{}, order: list.New()}
}

func (c *planCache) get(k planKey) (*prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		metrics.PlanCacheMisses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	metrics.PlanCacheHits.Add(1)
	return el.Value.(*planEntry).prep, true
}

func (c *planCache) put(k planKey, p *prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*planEntry).prep = p
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&planEntry{key: k, prep: p})
	if c.order.Len() > planCacheCap {
		el := c.order.Back()
		delete(c.items, el.Value.(*planEntry).key)
		c.order.Remove(el)
	}
}

// purge drops every entry; reconfigure calls it so plans for
// dead epochs free their memory promptly (correctness never depends on
// this — the epoch in the key already prevents stale hits).
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = map[planKey]*list.Element{}
	c.order.Init()
}
