package opt

import (
	"quickr/internal/catalog"
	"quickr/internal/exec"
)

// Sample-cache rewrite (hot-sample reuse): wrap every cacheable sampler
// fragment — a real sampler over a non-breaker filter/project chain
// ending at one base-table scan — in an exec.PCachedSample node, so the
// executor can replay the fragment's materialized weighted output on
// repeated queries instead of re-scanning. The fragment stays in the
// plan as the node's child: semantics, weights and estimator wiring are
// untouched (a cache miss simply runs it), which is what the soundness
// prover verifies when it applies this pass to seeded plans.

// SampleCacheOf returns the catalog's sample cache, nil when off:
// Plan wraps cacheable fragments only when there is one to replay from.
func SampleCacheOf(cat *catalog.Catalog) *exec.SampleCache {
	if cat == nil {
		return nil
	}
	sc, _ := cat.SampleStore().(*exec.SampleCache)
	return sc
}

// applySampleCache wraps every cacheable sampler fragment below root in
// a cached-sample node over the catalog's sample cache. It mutates the
// plan in place and, when invoked directly (the soundness prover does),
// applies unconditionally, leaving the nodes without a cache when the
// catalog has none; Plan applies it only when the catalog has one. The
// plan root itself is never wrapped — there is no parent link to
// rewrite — but in practice a sampler never roots a plan (an aggregate
// or sort sits above it).
func (pl *Planner) applySampleCache(root exec.PNode) {
	sc := SampleCacheOf(pl.CM.Est.Cat)
	var rec func(n exec.PNode, set func(exec.PNode))
	rec = func(n exec.PNode, set func(exec.PNode)) {
		if set != nil && exec.CacheableFragment(n) {
			s := n.(*exec.PSample)
			set(&exec.PCachedSample{
				Frag:     s,
				Key:      exec.FragmentKey(s),
				SamplerP: s.Def.P,
				Cache:    sc,
			})
			// The fragment below is now cached wholesale; nested samplers
			// inside it are part of the cached stream, not candidates.
			return
		}
		switch x := n.(type) {
		case *exec.PCachedSample:
			// Already rewritten (idempotence under re-application): the
			// fragment below is cached wholesale, leave it untouched.
			return
		case *exec.PSample:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PFilter:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PProject:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PExchange:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PHashJoin:
			rec(x.Left, func(c exec.PNode) { x.Left = c })
			rec(x.Right, func(c exec.PNode) { x.Right = c })
		case *exec.PHashAgg:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PSort:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PLimit:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PWindow:
			rec(x.In, func(c exec.PNode) { x.In = c })
		case *exec.PUnion:
			for i := range x.Ins {
				i := i
				rec(x.Ins[i], func(c exec.PNode) { x.Ins[i] = c })
			}
		default:
			for _, k := range n.Kids() {
				rec(k, nil)
			}
		}
	}
	rec(root, nil)
}
