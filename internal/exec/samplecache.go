package exec

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"

	"quickr/internal/lplan"
	"quickr/internal/metrics"
)

// Hot-sample reuse: Quickr is deliberately lazy (samplers run at query
// time, nothing is pre-built), but dashboard traffic re-runs the same
// fused scan→filter→sample fragment every few seconds. PCachedSample
// marks such a fragment as reusable: the first execution puts the
// partitions its sink built (column-major Parts, the executor's one
// partition type) into a byte-budgeted LRU, as copies off the run's
// ledger, and repeated
// executions read them without touching the base table. The fragment itself stays
// in the plan as the node's only child, so every plan walker — the
// invariant checkers, EXPLAIN, the soundness prover — still sees the
// samplers and scans it replaces, and a cache miss simply runs it (the
// lazy path is always the fallback).
//
// Cached output carries the exact per-row Horvitz–Thompson weights the
// fragment produced, so downstream estimator math (CI95, missed-group
// accounting) is bit-identical between warm and cold runs.

// PCachedSample replaces a cacheable sampler fragment: a real sampler
// over a non-breaker filter/project chain ending at one base-table
// scan. Kids() exposes the replaced fragment, keeping the node
// transparent to plan walkers.
type PCachedSample struct {
	// Frag is the replaced fragment, executed verbatim on a cache miss.
	Frag PNode
	// Key fingerprints the fragment (sampler type/params/seeds, chain
	// expressions and scan columns). The executor extends it with the
	// table version and engine config epoch at run time.
	Key string
	// SamplerP echoes the fragment's root sampler pass probability; the
	// plan checker verifies it against the fragment so a hand-built plan
	// cannot claim cached output under different weights.
	SamplerP float64
	// Cache keeps the fragment's output across runs: the catalog's
	// sample cache when the node was planned. Nil runs the fragment
	// lazily every time.
	Cache *SampleCache
}

// Cols implements PNode: cached output has exactly the fragment's schema.
func (p *PCachedSample) Cols() []lplan.ColumnInfo {
	if p.Frag == nil {
		return nil
	}
	return p.Frag.Cols()
}

// Kids implements PNode. A fragment-less node (rejected by plancheck,
// but walkers run before checkers report) has no children.
func (p *PCachedSample) Kids() []PNode {
	if p.Frag == nil {
		return nil
	}
	return []PNode{p.Frag}
}

// Describe implements PNode.
func (p *PCachedSample) Describe() string {
	return fmt.Sprintf("CachedSample p=%.3g key=%016x", p.SamplerP, fnv64(p.Key))
}

// Breaker implements PNode: replay streams batch-at-a-time like the
// fragment it replaces.
func (p *PCachedSample) Breaker() bool { return false }

// CacheableFragment reports whether frag has the shape the sample cache
// supports: a real sampler (0 < p < 1) over any chain of filters,
// projections and samplers, ending at exactly one base-table scan. Both
// the optimizer rewrite and the plan checker use it, so a plan cannot
// carry a cached-sample node over a fragment the rewrite would never
// have produced.
func CacheableFragment(frag PNode) bool {
	s, ok := frag.(*PSample)
	if !ok || s.Def.Type == lplan.SamplerPassThrough || s.Def.P <= 0 || s.Def.P >= 1 {
		return false
	}
	n := s.In
	for {
		switch x := n.(type) {
		case *PScan:
			return true
		case *PFilter:
			n = x.In
		case *PProject:
			n = x.In
		case *PSample:
			n = x.In
		default:
			return false
		}
	}
}

// FragmentScan returns the base-table scan at the bottom of a cacheable
// fragment (nil when the shape is not cacheable).
func FragmentScan(frag PNode) *PScan {
	n := frag
	for n != nil {
		if s, ok := n.(*PScan); ok {
			return s
		}
		kids := n.Kids()
		if len(kids) != 1 {
			return nil
		}
		n = kids[0]
	}
	return nil
}

// FragmentKey fingerprints a cacheable fragment. Everything that can
// change the fragment's output stream is folded in: sampler type,
// probability, stratification/universe columns, δ, bucket functions,
// both seeds (the plan-location seed and the shared universe seed),
// filter predicates, projection expressions, the scan's table, column
// projection and apriori-weight column. The plan checker recomputes it,
// so a cached-sample node's key provably describes its own fragment.
func FragmentKey(frag PNode) string {
	var b strings.Builder
	var rec func(PNode)
	rec = func(n PNode) {
		switch x := n.(type) {
		case *PSample:
			fmt.Fprintf(&b, "sample{t=%d p=%g cols=%v delta=%d bcols=%v bw=%v dseed=%d seed=%d};",
				x.Def.Type, x.Def.P, x.Def.Cols, x.Def.Delta,
				x.Def.BucketCols, x.Def.BucketWidths, x.Def.Seed, x.Seed)
			rec(x.In)
		case *PScan:
			fmt.Fprintf(&b, "scan{%s cols=%v w=%d};", x.Tbl.Name, x.ColIdx, x.WeightIdx)
		default:
			fmt.Fprintf(&b, "%s;", n.Describe())
			for _, k := range n.Kids() {
				rec(k)
			}
		}
	}
	rec(frag)
	return b.String()
}

// fnv64 is FNV-1a over s, used only to render keys compactly.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// cacheEntry is one LRU slot: a fragment's full per-partition output,
// clones of the Parts the fragment's sink built. Parts are immutable and
// every reader copies the weights it goes on to scale, so one entry
// serves any number of concurrent queries. inBytes is the raw input the
// fragment's scan charged the job: a replay charges it again.
type cacheEntry struct {
	key     string
	parts   []Part
	inBytes float64
	bytes   int64
}

// SampleCache is a byte-budgeted, process-shareable LRU over
// materialized sampler outputs. Get/Put/Purge are safe for concurrent
// use; keys already embed the table version and engine config epoch, so
// a Put racing an invalidation can at worst insert an entry no future
// lookup can reach (Purge is promptness, correctness is the key).
type SampleCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	items  map[string]*list.Element
	order  *list.List // front = most recently used
}

// NewSampleCache builds a cache holding at most budget bytes of
// materialized sampler output.
func NewSampleCache(budget int64) *SampleCache {
	return &SampleCache{
		budget: budget,
		items:  make(map[string]*list.Element),
		order:  list.New(),
	}
}

// Get returns the cached fragment output for key and the raw input
// bytes its scan read, if present.
func (c *SampleCache) Get(key string) ([]Part, float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		metrics.SampleCacheMisses.Add(1)
		return nil, 0, false
	}
	c.order.MoveToFront(el)
	metrics.SampleCacheHits.Add(1)
	e := el.Value.(*cacheEntry)
	return e.parts, e.inBytes, true
}

// Put inserts a clone of a materialized fragment output, with the raw
// input bytes its scan read: the run that built parts releases their
// payloads when it ends, the entry keeps its own (and shares the
// dictionaries). Admission control rejects entries
// larger than a quarter of the budget (one giant fragment must not wipe
// the working set); otherwise least-recently-used entries are evicted
// until the new entry fits.
func (c *SampleCache) Put(key string, parts []Part, inBytes float64) {
	var bytes int64
	for i := range parts {
		bytes += cachedPartBytes(&parts[i])
	}
	bytes += int64(len(key))
	if bytes > c.budget/4 {
		metrics.SampleCacheRejects.Add(1)
		return
	}
	own := make([]Part, len(parts))
	for i := range parts {
		own[i] = parts[i].clone()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Concurrent misses can race to populate; keep the first copy
		// (both are bit-identical by construction).
		c.order.MoveToFront(el)
		return
	}
	for c.bytes+bytes > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.evict(back)
	}
	e := &cacheEntry{key: key, parts: own, inBytes: inBytes, bytes: bytes}
	c.items[key] = c.order.PushFront(e)
	c.bytes += bytes
	metrics.SampleCacheBytes.Store(c.bytes)
}

// evict removes one entry; callers hold c.mu.
func (c *SampleCache) evict(el *list.Element) {
	e := c.order.Remove(el).(*cacheEntry)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	metrics.SampleCacheEvictions.Add(1)
	metrics.SampleCacheBytes.Store(c.bytes)
}

// Purge drops every entry (config-epoch bumps and DDL call this, the
// same invalidation path the plan cache uses).
func (c *SampleCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[string]*list.Element)
	c.order.Init()
	c.bytes = 0
	metrics.SampleCacheBytes.Store(0)
}

// Len returns the number of cached fragments.
func (c *SampleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the cached payload size.
func (c *SampleCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the configured byte budget.
func (c *SampleCache) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// cachedPartBytes estimates one partition's resident size for the byte
// budget (payload slices plus dictionary strings; bookkeeping rounded
// into per-value constants).
func cachedPartBytes(p *Part) int64 {
	var b int64
	for i := range p.Cols {
		v := &p.Cols[i]
		b += int64(len(v.Ints))*8 + int64(len(v.Floats))*8 + int64(len(v.Nulls))*8
		for _, s := range v.Dict {
			b += int64(len(s)) + 16
		}
	}
	return b + int64(len(p.W))*8
}

// execCachedSample resolves a cached-sample node into the source of the
// chain above it: on a hit the stream carries the cached partitions, on
// a miss (or with no cache on the node) the fragment runs lazily and its
// output populates the cache. Either way the chain above windows the
// same Parts zero-copy. The runtime key extends the plan-time fragment
// key with the scan table's version and the engine's config epoch,
// reusing the exact invalidation discipline of the columnar and plan
// caches.
func (ex *executor) execCachedSample(cs *PCachedSample) (*stream, error) {
	scan := FragmentScan(cs.Frag)
	sc := cs.Cache
	var key string
	if sc != nil && scan != nil {
		key = fmt.Sprintf("%s|v%d|e%d", cs.Key, scan.Tbl.Version(), ex.cacheEpoch)
		if cached, inBytes, ok := sc.Get(key); ok {
			op := ex.opFor(cs)
			op.Grow(len(cached))
			for i := range cached {
				sl := op.Slot(i)
				sl.RowsOut += int64(cached[i].N)
				if cached[i].N > 0 {
					sl.NoteBatch(cached[i].bytes)
				}
			}
			// Cached output is a materialized boundary: no scan stage
			// exists (a replay costs fewer machine hours than the lazy
			// run), the outer pipeline opens its own stage over it. The
			// job still reads the fragment's input, which the passes
			// metric divides by. The stream gets its own slice: breakers
			// replace partitions in place, the entry's must stay.
			ex.run.JobInputBytes += inBytes
			return &stream{parts: slices.Clone(cached)}, nil
		}
	}
	before := ex.run.JobInputBytes
	s, err := ex.execColPipeline(cs.Frag)
	if err != nil {
		return nil, err
	}
	op := ex.opFor(cs)
	op.Grow(len(s.parts))
	for i := range s.parts {
		sl := op.Slot(i)
		sl.RowsIn += int64(s.parts[i].N)
		sl.RowsOut += int64(s.parts[i].N)
	}
	if sc != nil && scan != nil {
		// Populate-on-miss: Put clones the sink's partitions. The key was
		// computed before the fragment ran, so an Append or config bump
		// landing mid-run leaves the entry unreachable, never wrong.
		sc.Put(key, s.parts, ex.run.JobInputBytes-before)
	}
	return s, nil
}
