package core

import (
	"math"

	"quickr/internal/lplan"
)

// pushPastJoin implements Figure 7 of the paper: pushing a sampler past
// an equi-join, either onto one input (PushSamplerOnOneSide) or onto
// both inputs as a paired universe sampler (PushSamplerOntoBothSides).
func (a *Asalqa) pushPastJoin(j *lplan.Join, st samplerState, depth int) []alternative {
	if len(j.LeftKeys) == 0 {
		return nil // cross joins: keep the sampler above
	}
	var out []alternative

	// One side: left, then right (outer joins only allow the preserved
	// side — sampling the null-supplying side of a left outer join can
	// only turn matches into padded rows, which dominance does not
	// cover, so we restrict to the left input for outer joins).
	for _, side := range []struct {
		left bool
	}{{true}, {false}} {
		if !side.left && j.Kind == lplan.LeftOuterJoin {
			continue
		}
		states := a.pushOneSide(j, st, side.left)
		for _, ns := range states {
			child := j.Left
			if !side.left {
				child = j.Right
			}
			for _, alt := range a.explore(child, ns, depth+1) {
				var node lplan.Node
				if side.left {
					node = j.WithChildren([]lplan.Node{alt.node, j.Right})
				} else {
					node = j.WithChildren([]lplan.Node{j.Left, alt.node})
				}
				out = append(out, alternative{node: node, cost: a.CM.Cost(node)})
			}
		}
	}

	// Both sides with a paired universe sampler. Its coordinates hash
	// the keys (Value.Hash64), which keys equal in float space need not
	// share, so no pair spans an Int and a Float key.
	if j.Kind == lplan.InnerJoin && !j.FloatSpaceKeys() {
		out = append(out, a.pushBothSides(j, st, depth)...)
	}
	return out
}

// keyMap returns the projection of column IDs across the join's key
// equivalence (πK_from→K_to).
func keyMap(from, to []lplan.ColumnID) map[lplan.ColumnID]lplan.ColumnID {
	m := make(map[lplan.ColumnID]lplan.ColumnID, len(from))
	for i := range from {
		m[from[i]] = to[i]
	}
	return m
}

// projectColSet replaces columns of s present in the map with their
// images (Figure 7 ProjectColSet).
func projectColSet(s lplan.ColSet, m map[lplan.ColumnID]lplan.ColumnID) lplan.ColSet {
	out := lplan.ColSet{}
	for id := range s {
		if img, ok := m[id]; ok {
			out.Add(img)
		} else {
			out.Add(id)
		}
	}
	return out
}

// pushOneSide computes the candidate sampler states for pushing the
// sampler to one input of the join (Figure 7 PushSamplerOnOneSide +
// OneSideHelper). left selects which input.
func (a *Asalqa) pushOneSide(j *lplan.Join, st samplerState, left bool) []samplerState {
	L, R := j.Left, j.Right
	Kl, Kr := j.LeftKeys, j.RightKeys
	if !left {
		L, R = R, L
		Kl, Kr = Kr, Kl
	}
	toL := keyMap(Kr, Kl)

	// Universe requirement: every universe column must exist on this
	// side (possibly through the key equivalence).
	Lc := lplan.OutputIDs(L)
	Ul := projectColSet(st.Univ, toL)
	if !Ul.SubsetOf(Lc) {
		return nil
	}
	return a.oneSideHelper(j, st, L, R, Kl, Kr, Ul)
}

// oneSideHelper is Figure 7's OneSideHelper: satisfy stratification on
// this side (replacing missing stratification columns by the join keys
// with an sfm correction) and enumerate join-key subsets to either
// stratify on or to penalize through ds.
func (a *Asalqa) oneSideHelper(j *lplan.Join, st samplerState, L, R lplan.Node, Kl, Kr []lplan.ColumnID, Ul lplan.ColSet) []samplerState {
	toL := keyMap(Kr, Kl)
	toR := keyMap(Kl, Kr)
	Lc := lplan.OutputIDs(L)

	base := st.clone()
	base.projectSFMEntries(toL)
	base.CountDistinct = projectColSet(base.CountDistinct, toL)
	if base.SkewBuckets != nil {
		mapped := map[lplan.ColumnID]float64{}
		for id, w := range base.SkewBuckets {
			if img, ok := toL[id]; ok {
				mapped[img] = w
			} else {
				mapped[id] = w
			}
		}
		base.SkewBuckets = mapped
	}

	Sf := projectColSet(base.Strat, toL) // normalized "full" strat cols
	Sl := Sf.Intersect(Lc)               // strat cols available on this side
	KlSet := lplan.NewColSet(Kl...)

	missing := Sf.Minus(Sl)
	keysNotInStrat := KlSet.Minus(Sl)
	var newEntry *sfmEntry
	if len(missing) > 0 && len(keysNotInStrat) > 0 {
		// Some stratification columns live on the other side: stratify on
		// the join keys instead and correct the group-support estimate by
		// sfm — the keys may have many more (or fewer) distinct values
		// than the columns they stand in for (§4.2.4's date_sk-for-d_year
		// example).
		numer := math.Min(
			a.Est.NDVNoCap(L, keysNotInStrat.Sorted()),
			a.Est.NDVNoCap(R, missing.Sorted()),
		)
		denom := a.Est.NDVNoCap(R, projectColSet(keysNotInStrat, toR).Sorted())
		if denom > 0 {
			newEntry = &sfmEntry{cols: keysNotInStrat, factor: numer / denom, groups: numer}
		}
		Sl = Sl.Union(KlSet)
	}
	// Stratification columns that are unavailable on this side and not
	// replaced by join keys are dropped: when the join keys are already
	// stratified, every key value keeps rows, so the group coverage
	// transfers through the join; any sfm corrections accrued for
	// dropped columns are removed by refreshSFM below. For universe
	// pushes, the dropped columns' group count still divides the
	// universe values per answer group, so it is re-attached to the
	// universe column set (costing filters entries by strat ∪ univ).
	var univEntry *sfmEntry
	if len(missing) > 0 && len(keysNotInStrat) == 0 && len(Ul) > 0 {
		g := 1.0
		for id := range missing {
			covered := false
			for _, e := range base.SFMEntries {
				if e.cols.Has(id) && e.groups > 0 {
					g *= e.groups
					covered = true
					break
				}
			}
			if !covered {
				g *= a.Est.NDVNoCap(R, []lplan.ColumnID{id})
			}
		}
		if g > 1 {
			univEntry = &sfmEntry{cols: Ul.Union(lplan.ColSet{}), groups: g}
		}
	}

	// Enumerate subsets of the remaining join keys to stratify on; the
	// skipped keys penalize ds because sampled key values may miss their
	// match on the other side.
	Krem := KlSet.Minus(Sl).Sorted()
	if len(Krem) > a.Opts.MaxSubsetKeys {
		Krem = Krem[:a.Opts.MaxSubsetKeys]
	}
	var out []samplerState
	for _, sub := range subsets(Krem) {
		subSet := lplan.NewColSet(sub...)
		skip := lplan.NewColSet(Krem...).Minus(subSet)
		ds := base.DS
		if len(skip) > 0 {
			dvL := a.Est.NDV(L, skip.Sorted())
			dvR := a.Est.NDV(R, projectColSet(skip, toR).Sorted())
			if dvL > 0 {
				ds = ds / dvL * math.Min(dvL, dvR)
			}
		}
		ns := base.clone()
		ns.Strat = Sl.Union(subSet)
		ns.Univ = Ul
		ns.DS = ds
		if newEntry != nil {
			ns.SFMEntries = append(ns.SFMEntries, *newEntry)
		}
		if univEntry != nil {
			ns.SFMEntries = append(ns.SFMEntries, *univEntry)
		}
		ns.refreshSFM()
		if !a.compatible(ns) {
			continue
		}
		out = append(out, ns)
	}
	return out
}

// subsets enumerates all subsets of ids (ids is small, capped by
// MaxSubsetKeys).
func subsets(ids []lplan.ColumnID) [][]lplan.ColumnID {
	n := len(ids)
	out := make([][]lplan.ColumnID, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		var s []lplan.ColumnID
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, ids[i])
			}
		}
		out = append(out, s)
	}
	return out
}

// prepareUnivCols is Figure 7's PrepareUnivCol: a universe requirement
// can attach to this join only when there is no existing requirement or
// the existing requirement is exactly the join keys.
func prepareUnivCols(existing lplan.ColSet, keys []lplan.ColumnID) lplan.ColSet {
	keySet := lplan.NewColSet(keys...)
	if len(existing) == 0 {
		return keySet
	}
	if len(existing) == len(keySet) && existing.SubsetOf(keySet) {
		return keySet
	}
	return nil
}

// pushBothSides pushes a paired universe sampler onto both join inputs
// (Figure 7 PushSamplerOntoBothSides). Both sides share a universe
// group so the physical samplers pick the same subspace.
func (a *Asalqa) pushBothSides(j *lplan.Join, st samplerState, depth int) []alternative {
	toL := keyMap(j.RightKeys, j.LeftKeys)
	toR := keyMap(j.LeftKeys, j.RightKeys)
	Ul := prepareUnivCols(projectColSet(st.Univ, toL), j.LeftKeys)
	Ur := prepareUnivCols(projectColSet(st.Univ, toR), j.RightKeys)
	if Ul == nil || Ur == nil {
		return nil
	}
	// Universe sampling applies to exactly one column set per query
	// sub-tree (§4.1.4): when an outer join already established a
	// universe requirement (st.Univ == these join keys), this pair joins
	// the existing group so all members pick the same subspace; only a
	// fresh requirement allocates a new group.
	group := st.UnivGroup
	if group == 0 {
		a.univGroupSeq++
		group = a.univGroupSeq
	}

	mk := func(L, R lplan.Node, Kl, Kr []lplan.ColumnID, u lplan.ColSet) []samplerState {
		states := a.oneSideHelper(j, st, L, R, Kl, Kr, u)
		for i := range states {
			states[i].UnivGroup = group
		}
		return states
	}
	ls := mk(j.Left, j.Right, j.LeftKeys, j.RightKeys, Ul)
	rs := mk(j.Right, j.Left, j.RightKeys, j.LeftKeys, Ur)
	if len(ls) == 0 || len(rs) == 0 {
		return nil
	}

	var out []alternative
	// Cap the cross product via the beam on each side's exploration.
	for _, lst := range ls {
		lAlts := a.explore(j.Left, lst, depth+1)
		for _, rst := range rs {
			rAlts := a.explore(j.Right, rst, depth+1)
			for _, la := range lAlts {
				for _, ra := range rAlts {
					node := j.WithChildren([]lplan.Node{la.node, ra.node})
					out = append(out, alternative{node: node, cost: a.CM.Cost(node)})
				}
			}
			if len(out) > 4*a.Opts.BeamWidth {
				return a.trim(out)
			}
		}
	}
	return a.trim(out)
}
