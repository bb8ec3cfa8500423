// Package accuracy implements the paper's §4.3 accuracy analysis: it
// unrolls a query plan with samplers at arbitrary locations into an
// equivalent expression with a single sampler at the root, using the
// sampling-dominance transformation rules (Propositions 1 and 5–9), and
// derives from it the Horvitz–Thompson estimator configuration, the
// group-coverage probabilities (Proposition 4) and the error guarantees
// the executor reports.
package accuracy

import (
	"fmt"
	"math"

	"quickr/internal/lplan"
)

// Analysis is the result of unrolling a sampled plan.
type Analysis struct {
	// Sampled reports whether the plan contains any live sampler.
	Sampled bool
	// Type is the dominant sampler type of the equivalent root sampler:
	// by the switching rule (Prop 6) Γ^V ⇒ Γ^U ⇒ Γ^D in increasing
	// accuracy, so the worst type present governs the variance bound.
	Type lplan.SamplerType
	// P is the effective end-to-end sampling probability (product of
	// probabilities of stacked samplers; paired universe samplers across
	// a join count once, Rule V3a).
	P float64
	// UniverseCols are the universe-sampled columns visible at the root
	// (variance for universe plans is computed over these subspaces).
	UniverseCols []lplan.ColumnID
	// StratCols are the stratification columns of a distinct sampler, if
	// one is the root equivalent.
	StratCols []lplan.ColumnID
	// Delta is the distinct sampler's per-value guarantee.
	Delta int
	// Trace lists the dominance rules applied while unrolling (Fig. 9).
	Trace []string
}

// effSampler is one sampler hoisted to the top of a subtree.
type effSampler struct {
	def  lplan.SamplerDef
	pair bool // true when formed by merging a universe pair (V3a)
}

// Analyze unrolls the plan and returns the root-equivalent analysis.
func Analyze(plan lplan.Node) *Analysis {
	a := &Analysis{P: 1, Type: lplan.SamplerPassThrough}
	samplers := unroll(plan, a)
	eq := joinEquivalences(plan)
	for _, s := range samplers {
		if s.def.Type == lplan.SamplerPassThrough {
			continue
		}
		a.Sampled = true
		a.P *= s.def.P
		switch s.def.Type {
		case lplan.SamplerUniverse:
			a.Type = lplan.SamplerUniverse
			// Close the universe columns over join-key equivalences: a
			// universe sample on sr_customer_sk is, through the equi-join,
			// equally a universe sample on ss_customer_sk, and the
			// estimators (COUNT DISTINCT scaling, subspace variance) must
			// see every equivalent column.
			for _, c := range s.def.Cols {
				a.UniverseCols = append(a.UniverseCols, eq.class(c)...)
			}
		case lplan.SamplerUniform:
			if a.Type != lplan.SamplerUniverse {
				a.Type = lplan.SamplerUniform
			}
		case lplan.SamplerDistinct:
			if a.Type == lplan.SamplerPassThrough {
				a.Type = lplan.SamplerDistinct
			}
			a.StratCols = append(a.StratCols, s.def.Cols...)
			if s.def.Delta > a.Delta {
				a.Delta = s.def.Delta
			}
		}
	}
	if !a.Sampled {
		a.P = 1
	}
	return a
}

// unroll hoists samplers in the subtree to its root, recording the
// dominance rules used.
func unroll(n lplan.Node, a *Analysis) []effSampler {
	switch x := n.(type) {
	case nil:
		return nil
	case *lplan.Sample:
		below := unroll(x.Input, a)
		if x.Def == nil || x.Def.Type == lplan.SamplerPassThrough {
			return below
		}
		return append(below, effSampler{def: *x.Def})
	case *lplan.Select:
		below := unroll(x.Input, a)
		for _, s := range below {
			a.trace("σ", s.def, ruleForSelect(s.def))
		}
		return below
	case *lplan.Project:
		below := unroll(x.Input, a)
		for _, s := range below {
			a.trace("π", s.def, ruleForProject(s.def))
		}
		return below
	case *lplan.Join:
		l := unroll(x.Left, a)
		r := unroll(x.Right, a)
		// A uniform sampler on the dimension side of a foreign-key join
		// does NOT stay row-independent across the join: every fact row
		// keyed to the same dimension row survives or dies together, so
		// the join output is cluster-sampled by the join key. That is
		// exactly a universe sample on the key subspace, and the
		// Horvitz–Thompson variance must be computed per subspace or it
		// understates the error by the mean cluster size. Rewrite the
		// root-equivalent sampler accordingly (the physical sampler is
		// untouched; only the estimator configuration changes).
		if x.FKJoin {
			for i, rs := range r {
				if rs.def.Type == lplan.SamplerUniform {
					def := rs.def
					def.Type = lplan.SamplerUniverse
					def.Cols = append([]lplan.ColumnID{}, x.RightKeys...)
					a.trace("⋈", rs.def, "Rule-U3′ (uniform on FK dimension side ⇒ universe on join key)")
					r[i] = effSampler{def: def}
				}
			}
		}
		// Merge paired universe samplers: Γ^V_p(L) ⋈ Γ^V_p(R) with the
		// same subspace unrolls to Γ^V_p(L ⋈ R) — Rule V3a.
		var out []effSampler
		used := make([]bool, len(r))
		for _, ls := range l {
			merged := false
			if ls.def.Type == lplan.SamplerUniverse {
				for i, rs := range r {
					if !used[i] && rs.def.Type == lplan.SamplerUniverse && rs.def.Seed == ls.def.Seed {
						used[i] = true
						merged = true
						a.trace("⋈", ls.def, "Rule-V3a (paired universe merge)")
						out = append(out, effSampler{def: ls.def, pair: true})
						break
					}
				}
			}
			if !merged {
				a.trace("⋈", ls.def, ruleForJoinOneSide(ls.def))
				out = append(out, ls)
			}
		}
		for i, rs := range r {
			if !used[i] {
				a.trace("⋈", rs.def, ruleForJoinOneSide(rs.def))
				out = append(out, rs)
			}
		}
		return out
	default:
		var out []effSampler
		for _, c := range n.Children() {
			out = append(out, unroll(c, a)...)
		}
		return out
	}
}

func (a *Analysis) trace(op string, def lplan.SamplerDef, rule string) {
	a.Trace = append(a.Trace, fmt.Sprintf("hoist %s past %s: %s", def.Type, op, rule))
}

func ruleForSelect(def lplan.SamplerDef) string {
	switch def.Type {
	case lplan.SamplerUniform:
		return "Rule-U2"
	case lplan.SamplerDistinct:
		return "Rule-D2a/b (weak dominance)"
	case lplan.SamplerUniverse:
		return "Rule-V2 (|D∩C| small)"
	}
	return "-"
}

func ruleForProject(def lplan.SamplerDef) string {
	switch def.Type {
	case lplan.SamplerUniform:
		return "Rule-U1"
	case lplan.SamplerDistinct:
		return "Rule-D1"
	case lplan.SamplerUniverse:
		return "Rule-V1"
	}
	return "-"
}

func ruleForJoinOneSide(def lplan.SamplerDef) string {
	switch def.Type {
	case lplan.SamplerUniform:
		return "Rule-U3 (p2=1)"
	case lplan.SamplerDistinct:
		return "Rule-D3a/b"
	case lplan.SamplerUniverse:
		return "Rule-V3b"
	}
	return "-"
}

// GroupCoverage is Proposition 4: the probability that a group with the
// given support appears in the answer.
//
//   - uniform:  1 − (1−p)^|G|
//   - distinct: 1 when the stratification columns contain the group-by
//     dimensions, else bounded below by the uniform expression
//   - universe: 1 − (1−p)^|G(C)| over the distinct universe values in
//     the group
func GroupCoverage(typ lplan.SamplerType, p float64, support float64, stratCoversGroup bool, universeValuesInGroup float64) float64 {
	switch typ {
	case lplan.SamplerPassThrough:
		return 1
	case lplan.SamplerDistinct:
		if stratCoversGroup {
			return 1
		}
		return 1 - math.Pow(1-p, support)
	case lplan.SamplerUniverse:
		n := universeValuesInGroup
		if n <= 0 {
			n = support
		}
		return 1 - math.Pow(1-p, n)
	default:
		return 1 - math.Pow(1-p, support)
	}
}

// MissProbability is 1 − GroupCoverage.
func MissProbability(typ lplan.SamplerType, p, support float64, stratCoversGroup bool, uniVals float64) float64 {
	return 1 - GroupCoverage(typ, p, support, stratCoversGroup, uniVals)
}

// Dominates implements the switching rule (Proposition 6) as a partial
// order on sampler types at equal probability: Γ^V ⇒ Γ^U ⇒ Γ^D, i.e.
// the distinct sampler is most accurate and the universe sampler least.
func Dominates(a, b lplan.SamplerType) bool {
	rank := func(t lplan.SamplerType) int {
		switch t {
		case lplan.SamplerUniverse:
			return 0
		case lplan.SamplerUniform:
			return 1
		case lplan.SamplerDistinct:
			return 2
		default:
			return 3
		}
	}
	return rank(a) >= rank(b)
}

// colEquiv is a union-find over ColumnIDs built from equi-join key
// pairs; it closes sampler column sets over value equivalences.
type colEquiv struct {
	parent map[lplan.ColumnID]lplan.ColumnID
}

func joinEquivalences(plan lplan.Node) *colEquiv {
	eq := &colEquiv{parent: map[lplan.ColumnID]lplan.ColumnID{}}
	lplan.Walk(plan, func(n lplan.Node) {
		if j, ok := n.(*lplan.Join); ok {
			for i := range j.LeftKeys {
				eq.union(j.LeftKeys[i], j.RightKeys[i])
			}
		}
	})
	return eq
}

func (e *colEquiv) find(id lplan.ColumnID) lplan.ColumnID {
	p, ok := e.parent[id]
	if !ok || p == id {
		return id
	}
	root := e.find(p)
	e.parent[id] = root
	return root
}

func (e *colEquiv) union(a, b lplan.ColumnID) {
	// Register both ids so class() can enumerate every member.
	if _, ok := e.parent[a]; !ok {
		e.parent[a] = a
	}
	if _, ok := e.parent[b]; !ok {
		e.parent[b] = b
	}
	ra, rb := e.find(a), e.find(b)
	if ra != rb {
		e.parent[ra] = rb
	}
}

// class returns every column known to be value-equivalent to id
// (including id itself).
func (e *colEquiv) class(id lplan.ColumnID) []lplan.ColumnID {
	root := e.find(id)
	out := []lplan.ColumnID{id}
	seen := map[lplan.ColumnID]bool{id: true}
	for member := range e.parent {
		if !seen[member] && e.find(member) == root {
			seen[member] = true
			out = append(out, member)
		}
	}
	return out
}
