package core

import (
	"math"

	"quickr/internal/lplan"
)

// materialize performs the costing step of §4.2.6 on every Sample node
// in the subtree: given the logical state {S, U, ds, sfm}, check
//
//	C1 — the stratification requirement is empty, or some p ≤ MaxP gives
//	     every distinct value of S at least K rows, where per-group
//	     support is estimated as rows/NDV(S) scaled by ds·sfm;
//	C2 — the universe requirement is empty;
//
// and pick: uniform (C1∧C2), universe (C1∧¬C2), distinct (¬C1∧C2, only
// if it still reduces data), pass-through otherwise.
func (a *Asalqa) materialize(n lplan.Node) lplan.Node {
	// Look up the extended exploration state by the ORIGINAL Sample
	// pointer before any rebuilding copies the node.
	if s, ok := n.(*lplan.Sample); ok {
		st, okx := a.extended[s]
		if !okx {
			st = samplerState{SamplerState: s.State}
		}
		def := a.chooseSampler(s.Input, st)
		out := &lplan.Sample{Input: a.materialize(s.Input), State: s.State, Def: &def}
		// Re-stash under the materialized copy so the pair-consistency
		// pass can recover the universe group.
		a.stash(out, st)
		return out
	}
	ch := n.Children()
	if len(ch) > 0 {
		newCh := make([]lplan.Node, len(ch))
		for i, c := range ch {
			newCh[i] = a.materialize(c)
		}
		n = n.WithChildren(newCh)
	}
	return n
}

// chooseSampler decides the physical sampler for a logical state at a
// given input.
func (a *Asalqa) chooseSampler(input lplan.Node, st samplerState) lplan.SamplerDef {
	rows := a.Est.Props(input).Rows
	if rows <= 0 {
		return lplan.SamplerDef{Type: lplan.SamplerPassThrough}
	}
	ds := math.Max(st.DS, 1e-9)

	// Columns that are stratified only because of COUNT DISTINCT are
	// exempt when the universe sampler covers them: the distinct count
	// over the chosen subspace scales up by 1/p (Table 8), so no
	// stratification is needed (§4.2.4's dissonance exception).
	strat := st.Strat
	if len(st.Univ) > 0 {
		strat = strat.Minus(st.CountDistinct.Intersect(st.Univ))
	}

	// Effective number of answer groups: join keys that replaced
	// other-side stratification columns contribute those columns' group
	// counts (the sfm correction of §4.2.4); unreplaced columns
	// contribute their own distinct-value count. Entries attached to
	// universe columns count even when the exemption emptied the strat
	// set — the answer still has those groups.
	stratCols := strat.Sorted()
	covered := lplan.ColSet{}
	live := strat.Union(st.Univ)
	groupDV := 1.0
	for _, e := range st.SFMEntries {
		if e.cols.SubsetOf(live) && e.groups > 0 {
			groupDV *= e.groups
			covered = covered.Union(e.cols)
		}
	}
	if residual := strat.Minus(covered); len(residual) > 0 {
		groupDV *= a.Est.NDVNoCap(input, residual.Sorted())
	}
	if st.SFMEntries == nil && st.SFM > 0 && st.SFM != 1 && len(stratCols) > 0 {
		// Fallback when only the scalar sfm survived.
		groupDV = a.Est.NDVNoCap(input, stratCols) * st.SFM
	}
	groupDV = math.Min(math.Max(1, groupDV), math.Max(1, rows))
	support := rows * ds / groupDV

	// Smallest p meeting C1 with binomial headroom (≥1.5K expected rows
	// per group, whp ≥ K actual), floored so aggregate values stay
	// within a small ratio of truth.
	need := 1.5 * a.Opts.K
	p := need / support
	if p < 0.01 {
		// Floor: below 1% the marginal performance gain is negligible but
		// per-group variance keeps growing; the paper's ±10% goal needs a
		// few hundred rows per group.
		p = 0.01
	}
	if p < a.Opts.MinP {
		// Contract-imposed floor: escalation rungs raise p above the
		// coverage-driven choice (callers raise MaxP alongside, so the
		// floor never flips C1 on its own).
		p = a.Opts.MinP
	}
	c1 := p <= a.Opts.MaxP
	c2 := len(st.Univ) == 0
	if p > a.Opts.MaxP {
		p = a.Opts.MaxP
	}

	// Bucketized stratification for value-skewed aggregate arguments:
	// applies to row-level samplers when the skewed column is visible at
	// this location (the paper stratifies on functions of columns,
	// §4.1.2; it does not apply to universe sampling, whose subspaces
	// must stay value-independent).
	inputIDs := lplan.OutputIDs(input)
	var bucketCols []lplan.ColumnID
	var bucketWidths []float64
	for _, id := range sortedSkewCols(st.SkewBuckets) {
		if inputIDs.Has(id) {
			bucketCols = append(bucketCols, id)
			bucketWidths = append(bucketWidths, st.SkewBuckets[id])
		}
	}

	switch {
	case c1 && c2:
		if len(bucketCols) > 0 {
			delta := int(math.Ceil(a.Opts.K / math.Min(1, ds)))
			return lplan.SamplerDef{
				Type: lplan.SamplerDistinct, P: p, Cols: stratCols, Delta: delta,
				BucketCols: bucketCols, BucketWidths: bucketWidths,
			}
		}
		return lplan.SamplerDef{Type: lplan.SamplerUniform, P: p}
	case c1 && !c2:
		// Universe sampling includes or excludes whole key subspaces, so
		// both group coverage (Prop. 4: 1−(1−p)^|G(C)|) and estimator
		// variance are governed by the number of distinct universe values
		// per group, not by rows. Raise p until p·|G(C)| ≥ K (Opts.K,
		// 30 by default) expected subspaces per group; a p above MaxP
		// rejects the plan.
		univDV := a.Est.NDVNoCap(input, st.Univ.Sorted())
		perGroupUniv := math.Max(1, univDV/groupDV)
		if pU := a.Opts.K / perGroupUniv; pU > p {
			p = pU
		}
		if p > a.Opts.MaxP {
			return lplan.SamplerDef{Type: lplan.SamplerPassThrough}
		}
		seed := st.UnivGroup
		if seed == 0 {
			a.univGroupSeq++
			seed = a.univGroupSeq
		}
		return lplan.SamplerDef{Type: lplan.SamplerUniverse, P: p, Cols: st.Univ.Sorted(), Seed: seed}
	case !c1 && c2:
		if len(stratCols) == 0 {
			// Insufficient support for the whole answer and nothing to
			// stratify on: sampling cannot help.
			return lplan.SamplerDef{Type: lplan.SamplerPassThrough}
		}
		// Distinct sampler: worthwhile only when values repeat enough
		// that dropping the excess reduces data (≥ KL rows per value).
		perValue := rows / math.Max(1, a.Est.NDV(input, stratCols))
		if perValue < a.Opts.KL {
			return lplan.SamplerDef{Type: lplan.SamplerPassThrough}
		}
		delta := int(math.Ceil(a.Opts.K / math.Min(1, ds)))
		if delta < int(a.Opts.KL) {
			delta = int(a.Opts.KL)
		}
		if delta > 10000 {
			return lplan.SamplerDef{Type: lplan.SamplerPassThrough}
		}
		// Estimated output must still shrink meaningfully.
		outRows := rows*p + float64(delta)*a.Est.NDV(input, stratCols)
		if outRows > 0.8*rows {
			return lplan.SamplerDef{Type: lplan.SamplerPassThrough}
		}
		return lplan.SamplerDef{
			Type: lplan.SamplerDistinct, P: p, Cols: stratCols, Delta: delta,
			BucketCols: bucketCols, BucketWidths: bucketWidths,
		}
	default:
		return lplan.SamplerDef{Type: lplan.SamplerPassThrough}
	}
}

// sortedSkewCols returns the skew-bucket columns in deterministic order.
func sortedSkewCols(m map[lplan.ColumnID]float64) []lplan.ColumnID {
	out := make([]lplan.ColumnID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// dropNestedSamplers removes samplers that have another sampler in
// their subtree (§A: "Quickr does not allow nested samplers"). The
// deeper sampler — closer to the first pass, where gains are largest —
// is kept.
func (a *Asalqa) dropNestedSamplers(n lplan.Node) lplan.Node {
	ch := n.Children()
	if len(ch) > 0 {
		newCh := make([]lplan.Node, len(ch))
		for i, c := range ch {
			newCh[i] = a.dropNestedSamplers(c)
		}
		n = n.WithChildren(newCh)
	}
	s, ok := n.(*lplan.Sample)
	if !ok {
		return n
	}
	if inner := lplan.FindSamplers(s.Input); len(inner) > 0 {
		for _, in := range inner {
			if in.Def == nil || in.Def.Type != lplan.SamplerPassThrough {
				a.notef("dropped nested sampler above %s", in.Describe())
				return s.Input
			}
		}
	}
	return n
}

// enforceUniverseGroups applies the global requirement of §A: paired
// universe samplers (both sides of a join) must use identical column
// sets and probabilities. If costing demoted one member of a pair to a
// pass-through or a different type, the whole pair is demoted — a join
// of a universe sample of one input with the full other input is only
// valid when planned that way (a one-sided push), never as half of a
// pair. Surviving pairs unify on the minimum probability.
func (a *Asalqa) enforceUniverseGroups(n lplan.Node) {
	groups := map[uint64][]*lplan.Sample{}
	lplan.Walk(n, func(x lplan.Node) {
		s, ok := x.(*lplan.Sample)
		if !ok || s.Def == nil {
			return
		}
		st, okx := a.extended[s]
		if okx && st.UnivGroup != 0 {
			groups[st.UnivGroup] = append(groups[st.UnivGroup], s)
		} else if s.Def.Type == lplan.SamplerUniverse {
			groups[s.Def.Seed] = append(groups[s.Def.Seed], s)
		}
	})
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		// Members unify on the LARGEST chosen probability: each member's
		// own p already satisfies its accuracy requirement, and raising p
		// never hurts accuracy (it costs performance, which costing has
		// already accepted within the 0.1 cap).
		p := 0.0
		allUniverse := true
		for _, m := range members {
			if m.Def.Type != lplan.SamplerUniverse {
				allUniverse = false
				break
			}
			if m.Def.P > p {
				p = m.Def.P
			}
		}
		if !allUniverse {
			for _, m := range members {
				m.Def = &lplan.SamplerDef{Type: lplan.SamplerPassThrough}
			}
			continue
		}
		for _, m := range members {
			m.Def.P = p
		}
	}
}
