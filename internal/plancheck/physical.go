package plancheck

import (
	"fmt"

	"quickr/internal/exec"
	"quickr/internal/lplan"
)

// Physical checks a compiled physical plan and returns an error joining
// all violations, or nil.
func Physical(p exec.PNode) error { return asError(New().CheckPhysical(p)) }

// CheckPhysical verifies the physical-plan invariants: the exchange and
// breaker discipline the fused-pipeline executor keys off (every
// partition-sensitive operator sits on a correctly shaped exchange),
// sampler legality after compilation, cross-join universe agreement
// including the §4.1.3 shared-weight correction, and weight
// propagation into a Horvitz–Thompson aggregation.
func (c *Checker) CheckPhysical(root exec.PNode) []Violation {
	var vs []Violation
	if root == nil {
		return vs
	}
	vs = append(vs, c.checkPSamplers(root)...)
	vs = append(vs, checkPNestedSamplers(root)...)
	vs = append(vs, checkBreakerPlacement(root)...)
	vs = append(vs, checkExchanges(root)...)
	vs = append(vs, checkEstimatorConfig(root)...)
	vs = append(vs, checkPUniverseGroups(root)...)
	vs = append(vs, checkSharedUniverse(root)...)
	vs = append(vs, checkPWeightReachesAggregate(root)...)
	vs = append(vs, checkCachedSample(root)...)
	return annotatePaths(vs, root, physicalPaths)
}

// physicalPaths mirrors logicalPaths on the compiled plan: every node
// mapped to its root→node Describe() chain.
func physicalPaths(root exec.PNode) map[any]string {
	paths := map[any]string{}
	var rec func(n exec.PNode, prefix string)
	rec = func(n exec.PNode, prefix string) {
		p := prefix + n.Describe()
		if _, seen := paths[n]; !seen {
			paths[n] = p
		}
		for _, k := range n.Kids() {
			rec(k, p+" > ")
		}
	}
	rec(root, "")
	return paths
}

// isRealP reports whether p is a non-pass-through physical sampler.
func isRealP(p *exec.PSample) bool { return p.Def.Type != lplan.SamplerPassThrough }

// pSamplers collects the real samplers of a physical subtree.
func pSamplers(n exec.PNode) []*exec.PSample {
	var out []*exec.PSample
	exec.WalkP(n, func(x exec.PNode) {
		if s, ok := x.(*exec.PSample); ok && isRealP(s) {
			out = append(out, s)
		}
	})
	return out
}

// colIDs returns the set of column IDs a physical node produces.
func colIDs(n exec.PNode) lplan.ColSet {
	s := lplan.ColSet{}
	for _, c := range n.Cols() {
		s.Add(c.ID)
	}
	return s
}

// checkPSamplers mirrors checkSamplerDefs on the compiled plan: the
// probability cap and the availability of the sampler's columns at its
// input survive physical planning.
func (c *Checker) checkPSamplers(root exec.PNode) []Violation {
	var vs []Violation
	for _, s := range pSamplers(root) {
		if s.Def.P <= 0 || s.Def.P > c.maxP() {
			vs = append(vs, Violation{
				Rule: "p-sampler-p", Node: s.Describe(),
				Detail: fmt.Sprintf("probability %g outside (0, %g] (§4.2.6)", s.Def.P, c.maxP()),
				node:   s,
			})
		}
		in := colIDs(s.In)
		for _, id := range s.Def.Cols {
			if !in.Has(id) {
				vs = append(vs, Violation{
					Rule: "p-sampler-support", Node: s.Describe(),
					Detail: fmt.Sprintf("sampler column #%d not produced by input", id),
					node:   s,
				})
			}
		}
		if s.Def.Type == lplan.SamplerUniverse && s.Def.Seed == 0 {
			vs = append(vs, Violation{
				Rule: "p-sampler-def", Node: s.Describe(),
				Detail: "universe sampler with zero subspace seed",
				node:   s,
			})
		}
	}
	return vs
}

// checkPNestedSamplers enforces §A's no-nested-samplers rule on the
// compiled plan.
func checkPNestedSamplers(root exec.PNode) []Violation {
	var vs []Violation
	var rec func(n exec.PNode, above *exec.PSample)
	rec = func(n exec.PNode, above *exec.PSample) {
		if s, ok := n.(*exec.PSample); ok && isRealP(s) {
			if above != nil {
				vs = append(vs, Violation{
					Rule: "p-nested-sampler", Node: s.Describe(),
					Detail: fmt.Sprintf("nested under %s (§A)", above.Describe()),
					node:   s,
				})
			}
			above = s
		}
		for _, k := range n.Kids() {
			rec(k, above)
		}
	}
	rec(root, nil)
	return vs
}

// gatherExchange reports whether n is a single-partition exchange.
func gatherExchange(n exec.PNode) bool {
	x, ok := n.(*exec.PExchange)
	return ok && x.Parts == 1
}

// checkBreakerPlacement verifies the contract between the physical
// planner and the fused-pipeline executor: operators that must see (or
// hand off) whole partitions report Breaker() true and sit on an
// exchange of the right shape — sorts and global limits on a gather,
// aggregations on an exchange over their group columns, partitioned
// joins on co-partitioned exchanges. Streaming operators (scan, filter,
// project, sample) must be unary non-breakers so pipelines fuse.
func checkBreakerPlacement(root exec.PNode) []Violation {
	var vs []Violation
	bad := func(n exec.PNode, format string, args ...any) {
		vs = append(vs, Violation{Rule: "p-breaker", Node: n.Describe(), Detail: fmt.Sprintf(format, args...), node: n})
	}
	exec.WalkP(root, func(n exec.PNode) {
		if len(n.Kids()) > 1 && !n.Breaker() {
			bad(n, "multi-input operator must be a pipeline breaker")
		}
		switch x := n.(type) {
		case *exec.PScan, *exec.PFilter, *exec.PProject, *exec.PSample:
			if n.Breaker() {
				bad(n, "streaming operator must not report Breaker()")
			}
		case *exec.PSort:
			if !gatherExchange(x.In) {
				bad(n, "sort input must be a gather exchange (Parts=1), got %s", x.In.Describe())
			}
		case *exec.PLimit:
			if _, overSort := x.In.(*exec.PSort); !overSort && !gatherExchange(x.In) {
				bad(n, "limit input must be a sort or a gather exchange, got %s", x.In.Describe())
			}
		case *exec.PHashAgg:
			ex, ok := x.In.(*exec.PExchange)
			if !ok {
				bad(n, "aggregation input must be an exchange, got %s", x.In.Describe())
				break
			}
			if len(x.GroupCols) == 0 {
				if ex.Parts != 1 {
					bad(n, "global aggregation must gather to one partition, exchange has %d", ex.Parts)
				}
				break
			}
			if len(ex.Keys) != len(x.GroupCols) {
				bad(n, "aggregation exchange keys %v do not match group columns %v", ex.Keys, x.GroupCols)
				break
			}
			for i, k := range ex.Keys {
				if k != x.GroupCols[i] {
					bad(n, "aggregation exchange keys %v do not match group columns %v", ex.Keys, x.GroupCols)
					break
				}
			}
		case *exec.PHashJoin:
			if x.Broadcast {
				break
			}
			lx, lok := x.Left.(*exec.PExchange)
			rx, rok := x.Right.(*exec.PExchange)
			if !lok || !rok {
				bad(n, "partitioned join inputs must both be exchanges")
				break
			}
			if lx.Parts != rx.Parts {
				bad(n, "join inputs partitioned %d vs %d ways: partitions would not line up", lx.Parts, rx.Parts)
			}
			if !sameKeys(lx.Keys, x.LeftKeys) || !sameKeys(rx.Keys, x.RightKeys) {
				bad(n, "join exchanges partition on %v/%v but join keys are %v/%v", lx.Keys, rx.Keys, x.LeftKeys, x.RightKeys)
			}
		}
	})
	return vs
}

func sameKeys(a, b []lplan.ColumnID) bool {
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

// checkExchanges verifies exchange shape: a positive partition count
// and hash keys the input actually produces.
func checkExchanges(root exec.PNode) []Violation {
	var vs []Violation
	exec.WalkP(root, func(n exec.PNode) {
		x, ok := n.(*exec.PExchange)
		if !ok {
			return
		}
		if x.Parts < 1 {
			vs = append(vs, Violation{
				Rule: "p-exchange", Node: n.Describe(),
				Detail: fmt.Sprintf("partition count %d < 1", x.Parts),
				node:   n,
			})
		}
		in := colIDs(x.In)
		for _, k := range x.Keys {
			if !in.Has(k) {
				vs = append(vs, Violation{
					Rule: "p-exchange", Node: n.Describe(),
					Detail: fmt.Sprintf("hash key #%d not produced by input", k),
					node:   n,
				})
			}
		}
	})
	return vs
}

// checkEstimatorConfig verifies the Horvitz–Thompson estimator wiring:
// estimator configs only appear on the one Top aggregate, and carry a
// legal effective probability.
func checkEstimatorConfig(root exec.PNode) []Violation {
	var vs []Violation
	tops := 0
	exec.WalkP(root, func(n exec.PNode) {
		a, ok := n.(*exec.PHashAgg)
		if !ok {
			return
		}
		if a.Top {
			tops++
			if tops > 1 {
				vs = append(vs, Violation{
					Rule: "p-estimator", Node: n.Describe(),
					Detail: "more than one Top aggregate: result estimates would be ambiguous",
					node:   n,
				})
			}
		}
		if a.Est != nil {
			if !a.Top {
				vs = append(vs, Violation{
					Rule: "p-estimator", Node: n.Describe(),
					Detail: "estimator config on a non-Top aggregate (dominance analysis applies at the root only, §4.3)",
					node:   n,
				})
			}
			if a.Est.P <= 0 || a.Est.P > 1 {
				vs = append(vs, Violation{
					Rule: "p-estimator", Node: n.Describe(),
					Detail: fmt.Sprintf("effective probability %g outside (0, 1]", a.Est.P),
					node:   n,
				})
			}
		}
	})
	return vs
}

// checkPUniverseGroups mirrors checkUniverseGroups after compilation:
// universe samplers sharing a subspace seed must agree on probability
// and column count.
func checkPUniverseGroups(root exec.PNode) []Violation {
	var vs []Violation
	groups := map[uint64][]*exec.PSample{}
	for _, s := range pSamplers(root) {
		if s.Def.Type == lplan.SamplerUniverse {
			groups[s.Def.Seed] = append(groups[s.Def.Seed], s)
		}
	}
	for _, members := range groups {
		first := members[0]
		for _, m := range members[1:] {
			if m.Def.P != first.Def.P || len(m.Def.Cols) != len(first.Def.Cols) {
				vs = append(vs, Violation{
					Rule: "p-universe-group", Node: m.Describe(),
					Detail: fmt.Sprintf("disagrees with paired sampler %s (same seed %d must share fraction and column count, §A)", first.Describe(), m.Def.Seed),
					node:   m,
				})
			}
		}
	}
	return vs
}

// checkSharedUniverse verifies the §4.1.3 weight correction wiring: a
// join's SharedUniverseP must be set exactly when both inputs carry
// universe samplers from the same subspace, and must equal their
// probability — without it joined weights stay 1/p² and every estimate
// is off by 1/p.
func checkSharedUniverse(root exec.PNode) []Violation {
	var vs []Violation
	exec.WalkP(root, func(n exec.PNode) {
		j, ok := n.(*exec.PHashJoin)
		if !ok {
			return
		}
		shared := 0.0
		left := map[uint64]float64{}
		for _, s := range pSamplers(j.Left) {
			if s.Def.Type == lplan.SamplerUniverse {
				left[s.Def.Seed] = s.Def.P
			}
		}
		for _, s := range pSamplers(j.Right) {
			if s.Def.Type == lplan.SamplerUniverse {
				if p, ok := left[s.Def.Seed]; ok {
					shared = p
				}
			}
		}
		if j.SharedUniverseP != shared {
			vs = append(vs, Violation{
				Rule: "p-shared-universe", Node: j.Describe(),
				Detail: fmt.Sprintf("SharedUniverseP=%g but paired universe samplers imply %g (weight correction §4.1.3)", j.SharedUniverseP, shared),
				node:   j,
			})
		}
	})
	return vs
}

// checkCachedSample verifies hot-sample-reuse nodes: the replaced
// fragment must still be present as the node's child, have the
// cacheable shape the rewrite recognizes (a real sampler over
// filters/projects over one base-table scan), and the node's claims
// about it — the root sampler probability (which fixes the cached rows'
// Horvitz–Thompson weights) and the fragment fingerprint the executor
// keys the cache on — must match the fragment exactly. A hand-built
// plan that swaps fragments or claims different weights is rejected
// before it can serve cached rows as if they were the lazy stream.
func checkCachedSample(root exec.PNode) []Violation {
	var vs []Violation
	bad := func(n exec.PNode, format string, args ...any) {
		vs = append(vs, Violation{Rule: "p-cached-sample", Node: n.Describe(), Detail: fmt.Sprintf(format, args...), node: n})
	}
	exec.WalkP(root, func(n exec.PNode) {
		cs, ok := n.(*exec.PCachedSample)
		if !ok {
			return
		}
		if cs.Frag == nil {
			bad(n, "cached-sample node without a fragment: there is no lazy fallback to run")
			return
		}
		if !exec.CacheableFragment(cs.Frag) {
			bad(n, "fragment %s is not cacheable (must be a real sampler over filters/projects over one scan)", cs.Frag.Describe())
			return
		}
		s := cs.Frag.(*exec.PSample)
		if cs.SamplerP != s.Def.P {
			bad(n, "node claims sampler p=%g but the fragment samples at p=%g: cached rows would carry different HT weights than the lazy path", cs.SamplerP, s.Def.P)
		}
		if cs.Key != exec.FragmentKey(cs.Frag) {
			bad(n, "cache key does not fingerprint this fragment: a warm run could replay a different sampler/filter combination")
		}
	})
	return vs
}

// checkPWeightReachesAggregate verifies weight propagation on the
// compiled plan: any weighted source — a real sampler or a scan with an
// apriori weight column — must have a hash aggregation above it (the
// only operator that consumes row weights), with no sort or limit in
// between (both would reorder or truncate the weighted stream before
// estimation).
func checkPWeightReachesAggregate(root exec.PNode) []Violation {
	var vs []Violation
	// blocked is "" outside any aggregation, the Describe() of the most
	// recent sort/limit when one sits between here and the nearest
	// aggregation above, and "ok" when an aggregation is directly
	// reachable upward through weight-preserving operators.
	var rec func(n exec.PNode, blocked string)
	rec = func(n exec.PNode, blocked string) {
		weighted := ""
		switch x := n.(type) {
		case *exec.PSample:
			if isRealP(x) {
				weighted = "sampler"
			}
		case *exec.PScan:
			if x.WeightIdx >= 0 {
				weighted = "weighted scan"
			}
		case *exec.PHashAgg:
			blocked = "ok"
		case *exec.PSort, *exec.PLimit:
			if blocked == "ok" {
				blocked = n.Describe()
			}
		}
		if weighted != "" && blocked != "ok" {
			detail := fmt.Sprintf("%s has no aggregation above it: row weights would be dropped, biasing the answer", weighted)
			if blocked != "" {
				detail = fmt.Sprintf("%s between %s and its aggregation reorders or truncates the weighted stream before estimation", blocked, weighted)
			}
			vs = append(vs, Violation{Rule: "p-weight-propagation", Node: n.Describe(), Detail: detail, node: n})
		}
		for _, k := range n.Kids() {
			rec(k, blocked)
		}
	}
	rec(root, "")
	return vs
}
