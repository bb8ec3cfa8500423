// Package plancheck verifies the plan invariants Quickr's correctness
// depends on but which no compiler or unit test sees end to end: the
// sampler-dominance discipline of §4.2 (Props 7–9), the C1/C2 support
// requirements at the chosen sampler site (§4.2.6), the global
// universe-pairing requirements of §A, the §B.1 requirement that
// universe columns reach the aggregate, and the physical planner's
// exchange/breaker discipline the fused-pipeline executor keys off.
//
// The checker is intentionally independent of the optimizer: it imports
// only the plan algebras (internal/lplan, internal/exec) and re-derives
// every invariant from first principles, so a bug in ASALQA or the
// physical planner cannot hide inside a shared helper. It runs
//
//   - on every plan the engine prepares, before it executes: a
//     violation fails the query instead of returning a biased answer,
//   - over every optimized TPC-DS / TPC-H / Other / dashboard workload
//     plan in the experiment test suite, and
//   - inside the core and opt unit tests on the outputs of fixup and
//     normalize rewrites.
package plancheck

import (
	"fmt"
	"strings"

	"quickr/internal/lplan"
)

// Violation is one broken invariant.
type Violation struct {
	// Rule is the stable identifier of the invariant (e.g.
	// "nested-sampler", "universe-pair").
	Rule string
	// Node is the Describe() text of the offending operator.
	Node string
	// Path is the root→node operator chain (Describe() texts joined
	// with " > "), filled in by CheckLogical / CheckPhysical when the
	// offending operator is part of the checked tree. In a plan with
	// several look-alike operators (two scans of the same table, say)
	// the path is what tells them apart.
	Path string
	// Detail explains what was expected and what was found.
	Detail string

	// node is the offending operator object, recorded at the
	// construction site so the path annotation can key on identity
	// rather than on Describe() text.
	node any
}

func (v Violation) String() string {
	if v.Path != "" {
		return fmt.Sprintf("%s: %s: %s (path: %s)", v.Rule, v.Node, v.Detail, v.Path)
	}
	return fmt.Sprintf("%s: %s: %s", v.Rule, v.Node, v.Detail)
}

// annotatePaths fills each violation's Path from the node recorded at
// its construction site. Violations whose node is not in the map (or
// was never recorded) keep an empty Path. paths is only called when
// there is something to annotate: a clean plan builds no map.
func annotatePaths[N any](vs []Violation, root N, paths func(N) map[any]string) []Violation {
	if len(vs) == 0 {
		return vs
	}
	byNode := paths(root)
	for i := range vs {
		if p, ok := byNode[vs[i].node]; ok {
			vs[i].Path = p
		}
	}
	return vs
}

// logicalPaths maps every node of a logical plan to its root→node
// chain. If the same node object appears twice (a shared subtree), the
// first — leftmost, outermost — path wins.
func logicalPaths(root lplan.Node) map[any]string {
	paths := map[any]string{}
	var rec func(n lplan.Node, prefix string)
	rec = func(n lplan.Node, prefix string) {
		p := prefix + n.Describe()
		if _, seen := paths[n]; !seen {
			paths[n] = p
		}
		for _, ch := range n.Children() {
			rec(ch, p+" > ")
		}
	}
	rec(root, "")
	return paths
}

// Checker verifies plans. The zero value uses the paper's parameters.
type Checker struct {
	// MaxP is the largest legal sampling probability (paper §4.2.6:
	// p ≤ 0.1 "to ensure that the performance gains are high").
	MaxP float64
}

// New returns a Checker with the paper's probability cap.
func New() *Checker { return &Checker{MaxP: 0.1} }

func (c *Checker) maxP() float64 {
	if c.MaxP <= 0 {
		return 0.1
	}
	return c.MaxP
}

// Logical checks an optimized logical plan and returns an error joining
// all violations, or nil.
func Logical(n lplan.Node) error { return asError(New().CheckLogical(n)) }

func asError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return fmt.Errorf("plancheck: %d violation(s):\n  %s", len(vs), strings.Join(parts, "\n  "))
}

// CheckLogical verifies all logical-plan invariants.
func (c *Checker) CheckLogical(root lplan.Node) []Violation {
	var vs []Violation
	if root == nil {
		return vs
	}
	vs = append(vs, c.checkSamplerDefs(root)...)
	vs = append(vs, checkNestedSamplers(root)...)
	vs = append(vs, checkSamplerDominance(root)...)
	vs = append(vs, checkUniversePropagation(root)...)
	vs = append(vs, checkUniverseGroups(root)...)
	vs = append(vs, checkUniversePairs(root)...)
	vs = append(vs, checkWeightReachesAggregate(root)...)
	return annotatePaths(vs, root, logicalPaths)
}

// isReal reports whether s is a materialized, non-pass-through sampler.
func isReal(s *lplan.Sample) bool {
	return s.Def != nil && s.Def.Type != lplan.SamplerPassThrough
}

// checkSamplerDefs verifies each sampler's physical definition is
// internally consistent and its column requirements are satisfiable at
// the chosen site — the site-local residue of C1/C2 (§4.2.6): the
// stratification / universe columns the costing step reasoned about
// must actually be produced by the sampler's input.
func (c *Checker) checkSamplerDefs(root lplan.Node) []Violation {
	var vs []Violation
	bad := func(s *lplan.Sample, rule, format string, args ...any) {
		vs = append(vs, Violation{Rule: rule, Node: s.Describe(), Detail: fmt.Sprintf(format, args...), node: s})
	}
	for _, s := range lplan.FindSamplers(root) {
		if s.Def == nil {
			bad(s, "sampler-def", "sampler not costed: Def is nil (exploration state leaked out of ASALQA)")
			continue
		}
		d := s.Def
		switch d.Type {
		case lplan.SamplerPassThrough:
			continue
		case lplan.SamplerUniform, lplan.SamplerDistinct, lplan.SamplerUniverse:
			if d.P <= 0 || d.P > c.maxP() {
				bad(s, "sampler-p", "probability %g outside (0, %g] (§4.2.6)", d.P, c.maxP())
			}
		default:
			bad(s, "sampler-def", "unknown sampler type %d", d.Type)
			continue
		}
		inputIDs := lplan.OutputIDs(s.Input)
		for _, id := range d.Cols {
			if !inputIDs.Has(id) {
				bad(s, "sampler-support", "sampler column #%d not produced by input (C1/C2 unsupported at this site)", id)
			}
		}
		switch d.Type {
		case lplan.SamplerDistinct:
			if d.Delta < 1 {
				bad(s, "sampler-def", "distinct sampler delta %d < 1 (must guarantee rows per stratum, §4.1.2)", d.Delta)
			}
			if len(d.Cols) == 0 && len(d.BucketCols) == 0 {
				bad(s, "sampler-def", "distinct sampler with no stratification columns")
			}
			if len(d.BucketCols) != len(d.BucketWidths) {
				bad(s, "sampler-def", "bucket columns/widths mismatch: %d vs %d", len(d.BucketCols), len(d.BucketWidths))
			}
			for _, id := range d.BucketCols {
				if !inputIDs.Has(id) {
					bad(s, "sampler-support", "bucket column #%d not produced by input", id)
				}
			}
			for _, w := range d.BucketWidths {
				if w <= 0 {
					bad(s, "sampler-def", "bucket width %g not positive", w)
				}
			}
		case lplan.SamplerUniverse:
			if len(d.Cols) == 0 {
				bad(s, "sampler-def", "universe sampler with no universe columns (§4.1.3)")
			}
			if d.Seed == 0 {
				bad(s, "sampler-def", "universe sampler with zero subspace seed: paired samplers could not agree")
			}
		}
	}
	return vs
}

// checkNestedSamplers enforces §A: "Quickr does not allow nested
// samplers" — no root-to-leaf path may contain more than one real
// sampler.
func checkNestedSamplers(root lplan.Node) []Violation {
	var vs []Violation
	var rec func(n lplan.Node, above *lplan.Sample)
	rec = func(n lplan.Node, above *lplan.Sample) {
		if s, ok := n.(*lplan.Sample); ok && isReal(s) {
			if above != nil {
				vs = append(vs, Violation{
					Rule: "nested-sampler", Node: s.Describe(),
					Detail: fmt.Sprintf("nested under %s (§A forbids nested samplers)", above.Describe()),
					node:   s,
				})
			}
			above = s
		}
		for _, ch := range n.Children() {
			rec(ch, above)
		}
	}
	rec(root, nil)
	return vs
}

// checkSamplerDominance enforces the dominance discipline behind Props
// 7–9 (§4.2): a sampler is only ever seeded directly below an aggregate
// and pushed down past selects, projects and joins, so in a legal plan
// every real sampler (a) has an Aggregate ancestor, and (b) the path up
// to the nearest Aggregate crosses only Select, Project, Join and
// pass-through Sample operators — never Sort, Limit, Window, UnionAll
// or another Aggregate's output, whose semantics sampling below would
// change.
func checkSamplerDominance(root lplan.Node) []Violation {
	var vs []Violation
	var rec func(n lplan.Node, path []lplan.Node)
	rec = func(n lplan.Node, path []lplan.Node) {
		if s, ok := n.(*lplan.Sample); ok && isReal(s) {
			agg := -1
			for i := len(path) - 1; i >= 0; i-- {
				if _, isAgg := path[i].(*lplan.Aggregate); isAgg {
					agg = i
					break
				}
			}
			if agg < 0 {
				vs = append(vs, Violation{
					Rule: "sampler-dominance", Node: s.Describe(),
					Detail: "no Aggregate above the sampler: sample weights would never reach an estimator",
					node:   s,
				})
			} else {
				for _, anc := range path[agg+1:] {
					switch a := anc.(type) {
					case *lplan.Select, *lplan.Project, *lplan.Join:
					case *lplan.Sample:
						if isReal(a) {
							// Reported separately by nested-sampler.
							continue
						}
					default:
						vs = append(vs, Violation{
							Rule: "sampler-dominance", Node: s.Describe(),
							Detail: fmt.Sprintf("%s between sampler and its aggregate (Props 7–9 cover only select/project/join)", anc.Describe()),
							node:   s,
						})
					}
				}
			}
		}
		path = append(path, n)
		for _, ch := range n.Children() {
			rec(ch, path)
		}
	}
	rec(root, nil)
	return vs
}

// checkUniversePropagation enforces §B.1: the universe columns of every
// universe sampler must stay visible at each operator between the
// sampler and its nearest enclosing Aggregate, because the estimator
// computes per-group variance over subspace subgroups and needs the
// subspace identity alongside each row (core's addUniversePassthrough
// widens projections to guarantee exactly this).
func checkUniversePropagation(root lplan.Node) []Violation {
	var vs []Violation
	var rec func(n lplan.Node, path []lplan.Node)
	rec = func(n lplan.Node, path []lplan.Node) {
		if s, ok := n.(*lplan.Sample); ok && isReal(s) && s.Def.Type == lplan.SamplerUniverse {
			for i := len(path) - 1; i >= 0; i-- {
				if _, isAgg := path[i].(*lplan.Aggregate); isAgg {
					break
				}
				out := lplan.OutputIDs(path[i])
				for _, id := range s.Def.Cols {
					if !out.Has(id) {
						vs = append(vs, Violation{
							Rule: "universe-propagation", Node: s.Describe(),
							Detail: fmt.Sprintf("universe column #%d dropped by %s before reaching the aggregate (§B.1)", id, path[i].Describe()),
							node:   s,
						})
					}
				}
			}
		}
		path = append(path, n)
		for _, ch := range n.Children() {
			rec(ch, path)
		}
	}
	rec(root, nil)
	return vs
}

// universeSamplers returns the real universe samplers in the subtree.
func universeSamplers(n lplan.Node) []*lplan.Sample {
	var out []*lplan.Sample
	for _, s := range lplan.FindSamplers(n) {
		if isReal(s) && s.Def.Type == lplan.SamplerUniverse {
			out = append(out, s)
		}
	}
	return out
}

// checkUniverseGroups enforces the subspace-seed contract: all universe
// samplers sharing a subspace seed must pick the same p-fraction (§A:
// "identical ... probability"). Column IDs legitimately differ between
// the members of a cross-join pair (each side samples its own join
// keys); checkUniversePairs verifies that correspondence at the join.
func checkUniverseGroups(root lplan.Node) []Violation {
	var vs []Violation
	groups := map[uint64][]*lplan.Sample{}
	for _, s := range universeSamplers(root) {
		groups[s.Def.Seed] = append(groups[s.Def.Seed], s)
	}
	for _, members := range groups {
		first := members[0]
		for _, m := range members[1:] {
			if m.Def.P != first.Def.P {
				vs = append(vs, Violation{
					Rule: "universe-group", Node: m.Describe(),
					Detail: fmt.Sprintf("probability %g differs from paired sampler's %g (same seed %d must sample the same subspace fraction, §A)", m.Def.P, first.Def.P, m.Def.Seed),
					node:   m,
				})
			}
			if len(m.Def.Cols) != len(first.Def.Cols) {
				vs = append(vs, Violation{
					Rule: "universe-group", Node: m.Describe(),
					Detail: fmt.Sprintf("%d universe columns vs paired sampler's %d (seed %d): subspaces cannot line up", len(m.Def.Cols), len(first.Def.Cols), m.Def.Seed),
					node:   m,
				})
			}
		}
	}
	return vs
}

// checkUniversePairs verifies cross-join universe consistency (§4.1.3,
// §A): when the two inputs of a join carry universe samplers with the
// same subspace seed, the columns each side universe-samples must be
// the same columns under the join's key equivalence — otherwise the two
// samplers keep different subspaces and the join silently loses the
// matching rows. Inner equi-joins beneath the join have already equated
// their keys on every surviving row, so a sampler on either of those
// keys samples the same subspace: a ⋈ U(b) ON a.k=b.k ⋈ U(c) ON a.k=c.k
// pairs b.k with c.k through a.k.
func checkUniversePairs(root lplan.Node) []Violation {
	var vs []Violation
	lplan.Walk(root, func(n lplan.Node) {
		j, ok := n.(*lplan.Join)
		if !ok {
			return
		}
		left := map[uint64]*lplan.Sample{}
		for _, s := range universeSamplers(j.Left) {
			left[s.Def.Seed] = s
		}
		for _, rs := range universeSamplers(j.Right) {
			ls, shared := left[rs.Def.Seed]
			if !shared {
				continue
			}
			eq := joinKeyClasses(j)
			want, have := eq.of(ls.Def.Cols), eq.of(rs.Def.Cols)
			if len(want) != len(have) || !want.SubsetOf(have) {
				vs = append(vs, Violation{
					Rule: "universe-pair", Node: j.Describe(),
					Detail: fmt.Sprintf("paired universe samplers (seed %d) sample %v on the left and %v on the right, which the join keys do not identify (§A)", rs.Def.Seed, ls.Def.Cols, rs.Def.Cols),
					node:   j,
				})
			}
		}
	})
	return vs
}

// colClasses is a union-find over column IDs; a column never joined on
// is its own class.
type colClasses map[lplan.ColumnID]lplan.ColumnID

func (c colClasses) find(id lplan.ColumnID) lplan.ColumnID {
	for {
		parent, ok := c[id]
		if !ok || parent == id {
			return id
		}
		id = parent
	}
}

// of returns the classes the given columns fall into.
func (c colClasses) of(ids []lplan.ColumnID) lplan.ColSet {
	out := lplan.ColSet{}
	for _, id := range ids {
		out.Add(c.find(id))
	}
	return out
}

// joinKeyClasses returns the column equivalence that holds on j's
// output: j's own key pairs plus those of every inner equi-join beneath
// it. An outer join beneath equates nothing for the rows it pads, so
// its keys stay apart.
func joinKeyClasses(j *lplan.Join) colClasses {
	eq := colClasses{}
	lplan.Walk(j, func(n lplan.Node) {
		if x, ok := n.(*lplan.Join); ok && (x == j || x.Kind == lplan.InnerJoin) {
			for i := range x.LeftKeys {
				eq[eq.find(x.LeftKeys[i])] = eq.find(x.RightKeys[i])
			}
		}
	})
	return eq
}

// checkWeightReachesAggregate enforces weight propagation for the
// apriori-sample path: a Scan with a weight column produces rows whose
// weights only the Horvitz–Thompson aggregation consumes, so such a
// scan without an Aggregate above it silently discards its weights and
// the answer is biased by 1/p.
func checkWeightReachesAggregate(root lplan.Node) []Violation {
	var vs []Violation
	var rec func(n lplan.Node, underAgg bool)
	rec = func(n lplan.Node, underAgg bool) {
		if s, ok := n.(*lplan.Scan); ok && s.WeightColumn != "" && !underAgg {
			vs = append(vs, Violation{
				Rule: "weight-propagation", Node: s.Describe(),
				Detail: fmt.Sprintf("weight column %q has no Aggregate above it: sampling weights would be dropped, biasing the answer", s.WeightColumn),
				node:   s,
			})
		}
		if _, ok := n.(*lplan.Aggregate); ok {
			underAgg = true
		}
		for _, ch := range n.Children() {
			rec(ch, underAgg)
		}
	}
	rec(root, false)
	return vs
}
