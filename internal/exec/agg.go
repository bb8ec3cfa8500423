package exec

import (
	"math"
	"slices"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

// aggRunner computes one PHashAgg over one partition. With an
// EstimatorConfig it produces Horvitz–Thompson estimates (Table 8
// rewrites) plus one-pass variance estimates (Proposition 2/3):
//
//	SUM(X)            -> SUM(w·X)
//	COUNT(*)          -> SUM(w)
//	AVG(X)            -> SUM(w·X)/SUM(w)
//	SUMIF(F, X)       -> SUM(IF(F, w·X, 0))
//	COUNTIF(F)        -> SUM(IF(F, w, 0))
//	COUNT(DISTINCT X) -> COUNT(DISTINCT X)·(univ(X) ? 1/p : 1)
//
// Variance: for the uniform and distinct samplers rows are included
// independently, so Var̂[Σ w·x] = Σ_{i∈sample} (w_i²−w_i)·x_i². For the
// universe sampler whole key-subspaces are included together, so the
// variance is computed over per-subspace partial sums Y_g:
// Var̂ = ((1−p)/p²)·Σ_{g∈sample} Y_g².
//
// The runner never sees a row. addBatch resolves one dense group id per
// live lane from the group-key vectors (keyTable) and then folds one
// aggregate at a time over (group ids, argument vector, condition
// vector, weights) into accumulator columns indexed by group id, reading
// only group, argument, condition and universe columns. Every
// accumulator still meets its lanes in partition order, so each float
// sum adds the same terms in the same order as a row-at-a-time fold.
type aggRunner struct {
	p        *PHashAgg
	mem      *ledger
	groupIdx []int
	argIdx   []int     // -1: the aggregate reads no argument
	condIdx  []int     // -1: the aggregate tests no condition
	uniIdx   []int     // positions of universe columns, if present in input
	groups   *keyTable // group key -> group id, in first-seen order
	subs     *keyTable // universe-column tuple -> subspace id
	n        []int64   // input rows per group
	aggs     []aggAcc

	// gh memoizes, per group id g, the hash state of a (group, value)
	// pair after its first key, HashRowStep(seed, HashInt(g)).
	gh []uint64

	// Per-batch scratch; all but use are indexed by lane.
	ident, use        []int32
	gids, uids, slots []int64
	xs, ones          []float64
	pairHash          []uint64
	keys              []table.Vector
	pair              [2]table.Vector
}

// aggAcc holds one aggregate's accumulators as columns indexed by group
// id; only those its kind needs are ever grown.
type aggAcc struct {
	sumWX   []float64
	sumW    []float64
	varTerm []float64     // Σ (w²−w)·x² (row-independent samplers)
	mm      []table.Value // MIN or MAX so far; NULL until a value is met
	// distinct is the COUNT(DISTINCT) set: the (group id, argument) pairs
	// met, under Key() equality, so 2 and 2.0 are one value.
	distinct *keyTable
	// uni numbers the (group id, subspace id) pairs met, in first-seen
	// order, and uniSum holds their partial sums Y_g.
	uni    *keyTable
	uniSum []float64
}

// newAggRunner keeps the runner's group keys and output on mem.
func newAggRunner(p *PHashAgg, cm colMap, mem *ledger) (*aggRunner, error) {
	r := &aggRunner{p: p, mem: mem, groups: newKeyTable(mem, len(p.GroupCols)), aggs: make([]aggAcc, len(p.Aggs))}
	for _, g := range p.GroupCols {
		i, ok := cm[g]
		if !ok {
			return nil, errColMissing(g)
		}
		r.groupIdx = append(r.groupIdx, i)
	}
	if p.Est != nil && p.Est.Type == lplan.SamplerUniverse {
		for _, u := range p.Est.UniverseCols {
			if i, ok := cm[u]; ok {
				r.uniIdx = append(r.uniIdx, i)
			}
		}
		r.subs = newKeyTable(mem, len(r.uniIdx))
	}
	for j, a := range p.Aggs {
		ai, ci := -1, -1
		if a.Arg != lplan.NoColumn {
			i, ok := cm[a.Arg]
			if !ok {
				return nil, errColMissing(a.Arg)
			}
			ai = i
		}
		if a.Cond != lplan.NoColumn {
			i, ok := cm[a.Cond]
			if !ok {
				return nil, errColMissing(a.Cond)
			}
			ci = i
		}
		// Which of the two an aggregate consults is a property of its kind.
		switch a.Kind {
		case lplan.AggCountIf:
			ai = -1
		case lplan.AggSumIf, lplan.AggAvg:
		case lplan.AggCountDistinct:
			ci = -1
			r.aggs[j].distinct = newKeyTable(mem, 2)
		default:
			ci = -1
		}
		if len(r.uniIdx) > 0 && a.Kind != lplan.AggCountDistinct && a.Kind != lplan.AggMin && a.Kind != lplan.AggMax {
			r.aggs[j].uni = newKeyTable(mem, 2)
		}
		r.argIdx = append(r.argIdx, ai)
		r.condIdx = append(r.condIdx, ci)
	}
	return r, nil
}

type colMissingError lplan.ColumnID

func (e colMissingError) Error() string { return "exec: aggregate input column missing" }

func errColMissing(id lplan.ColumnID) error { return colMissingError(id) }

// growZero lengthens a group-indexed column to n entries, the new ones
// zero.
func growZero[T any](s []T, n int) []T {
	m := len(s)
	if n <= m {
		return s
	}
	s = slices.Grow(s, n-m)[:n]
	clear(s[m:])
	return s
}

// pick lists the idx columns of b in the runner's key scratch.
func (r *aggRunner) pick(b *Batch, idx []int) []table.Vector {
	r.keys = r.keys[:0]
	for _, i := range idx {
		r.keys = append(r.keys, b.cols[i])
	}
	return r.keys
}

// addBatch folds a batch's live lanes into the runner and returns how
// many there were. hashes, when not nil, holds the lanes' group hashes
// by lane (the routing hashes of an exchange on the group keys).
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkGroupedAgg, BenchmarkAggDictKey, BenchmarkAggIntKeys).
func (r *aggRunner) addBatch(b *Batch, hashes []uint64) int {
	lanes := b.liveSel(r.ident)
	if b.sel == nil {
		r.ident = lanes // keep the buffer
	}
	r.gids = growTo(r.gids, b.n)
	r.groups.resolve(r.gids, r.pick(b, r.groupIdx), lanes, hashes)
	r.n = growZero(r.n, r.groups.len())
	for _, i := range lanes {
		r.n[r.gids[i]]++
	}
	if len(r.uniIdx) > 0 {
		r.uids = growTo(r.uids, b.n)
		r.subs.resolve(r.uids, r.pick(b, r.uniIdx), lanes, nil)
	}
	for j := range r.aggs {
		r.fold(j, b, lanes)
	}
	return len(lanes)
}

// live returns the lanes whose cond lane is true and whose arg lane is
// not NULL; a nil vector tests nothing.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkAggMinMax thins NULL arguments).
func (r *aggRunner) live(lanes []int32, arg, cond *table.Vector) []int32 {
	if cond != nil {
		r.use = truthyLanes(r.use[:0], cond, &Batch{sel: lanes})
		lanes = r.use
	}
	if arg != nil && arg.HasNulls() {
		// Compacts r.use in place when the condition has just filled it.
		use := r.use[:0]
		for _, i := range lanes {
			if !arg.IsNull(int(i)) {
				use = append(use, i)
			}
		}
		r.use, lanes = use, use
	}
	return lanes
}

// fold accumulates aggregate j over the batch's lanes, whose group ids
// (and subspace ids) addBatch has resolved.
//
// TestHotPathAllocCeilings holds the allocations of its per-lane loops
// (BenchmarkGroupedAgg, BenchmarkAggMinMax, BenchmarkUniverseAgg).
func (r *aggRunner) fold(j int, b *Batch, lanes []int32) {
	a, kind, ng := &r.aggs[j], r.p.Aggs[j].Kind, r.groups.len()
	var arg, cond *table.Vector
	if ai := r.argIdx[j]; ai >= 0 {
		arg = &b.cols[ai]
	} else if kind != lplan.AggCount && kind != lplan.AggCountIf {
		lanes = nil // an aggregate without its argument meets no value
	}
	if ci := r.condIdx[j]; ci >= 0 {
		cond = &b.cols[ci]
	}
	lanes = r.live(lanes, arg, cond)
	gids, w := r.gids, b.weights
	var xs []float64 // the addends, by lane
	switch kind {
	case lplan.AggCountDistinct:
		if len(lanes) > 0 {
			r.slots = growTo(r.slots, b.n)
			r.pair[0], r.pair[1] = table.Vector{K: table.VKInt, N: b.n, Ints: gids}, *arg
			a.distinct.resolve(r.slots, r.pair[:], lanes, r.pairHashes(&r.pair[1], lanes))
		}
		return
	case lplan.AggMin, lplan.AggMax:
		sign := 1
		if kind == lplan.AggMax {
			sign = -1
		}
		a.mm = growZero(a.mm, ng)
		for _, i := range lanes {
			if v, cur := arg.Value(int(i)), &a.mm[gids[i]]; cur.IsNull() || sign*v.Compare(*cur) < 0 {
				*cur = v
			}
		}
		return
	case lplan.AggCount, lplan.AggCountIf:
		for len(r.ones) < b.n {
			r.ones = append(r.ones, 1)
		}
		xs = r.ones
	default:
		xs = r.addends(arg, lanes)
	}
	a.sumWX, a.varTerm = growZero(a.sumWX, ng), growZero(a.varTerm, ng)
	sumWX, varTerm := a.sumWX, a.varTerm
	for _, i := range lanes {
		g, x, wi := gids[i], xs[i], w[i]
		sumWX[g] += wi * x
		varTerm[g] += (wi*wi - wi) * x * x
	}
	if kind == lplan.AggAvg {
		// The denominator weight follows the same condition filter.
		a.sumW = growZero(a.sumW, ng)
		for _, i := range lanes {
			a.sumW[gids[i]] += w[i]
		}
	}
	if a.uni != nil && len(lanes) > 0 {
		r.slots = growTo(r.slots, b.n)
		r.pair[0], r.pair[1] = table.Vector{K: table.VKInt, N: b.n, Ints: gids}, table.Vector{K: table.VKInt, N: b.n, Ints: r.uids}
		a.uni.resolve(r.slots, r.pair[:], lanes, r.pairHashes(&r.pair[1], lanes))
		a.uniSum = growZero(a.uniSum, a.uni.len())
		for _, i := range lanes {
			a.uniSum[r.slots[i]] += xs[i]
		}
	}
}

// pairHashes returns, by lane, the keyTable hashes of the listed lanes'
// (group id, lane of x) pairs: each group's first step comes from gh,
// so only x is hashed per lane.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkCountDistinctOverExchange, BenchmarkAggMinMax,
// BenchmarkUniverseAgg).
func (r *aggRunner) pairHashes(x *table.Vector, lanes []int32) []uint64 {
	h0 := table.HashRowSeed(exchangeHashSeed)
	for g := len(r.gh); g < r.groups.len(); g++ {
		r.gh = append(r.gh, table.HashRowStep(h0, table.HashInt(int64(g))))
	}
	r.pairHash = extend(r.pairHash[:0], x.N)
	hs, gh, gids := r.pairHash, r.gh, r.gids
	if x.K == table.VKInt && x.Nulls == nil {
		for _, i := range lanes {
			hs[i] = table.HashRowStep(gh[gids[i]], table.HashInt(x.Ints[i]))
		}
		return hs
	}
	for _, i := range lanes {
		hs[i] = table.HashRowStep(gh[gids[i]], laneHash(x, int(i)))
	}
	return hs
}

// addends returns arg's listed lanes, Int or Float, as floats indexed
// by lane: the payload itself, or the runner's scratch filled with the
// Ints widened.
func (r *aggRunner) addends(arg *table.Vector, lanes []int32) []float64 {
	if len(lanes) == 0 {
		return nil // also the aggregate without an argument
	}
	if arg.K == table.VKFloat {
		return arg.Floats
	}
	r.xs = growTo(r.xs, arg.N)
	for _, i := range lanes {
		r.xs[i] = float64(arg.Ints[i])
	}
	return r.xs
}

// finish converts the accumulators into output values and standard
// errors, group g's at [g*len(Aggs), (g+1)*len(Aggs)).
func (r *aggRunner) finish(vals []table.Value, errs []float64) {
	est, ng, na := r.p.Est, r.groups.len(), len(r.p.Aggs)
	universe := est != nil && est.Type == lplan.SamplerUniverse && est.P > 0
	for j, spec := range r.p.Aggs {
		a := &r.aggs[j]
		switch spec.Kind {
		case lplan.AggCountDistinct:
			cnt := make([]float64, ng)
			for _, g := range a.distinct.cols[0].ints {
				cnt[g]++
			}
			scale := universe && r.argIsUniverse(spec)
			for g, n := range cnt {
				if scale {
					n /= est.P
				}
				vals[g*na+j] = table.NewInt(int64(math.Round(n)))
			}
			continue
		case lplan.AggMin, lplan.AggMax:
			for g, v := range a.mm {
				vals[g*na+j] = v
			}
			continue
		}
		// Σ Y_g² per group, each group's subspaces in first-seen order.
		var sub []float64
		if universe && a.uni != nil {
			sub = make([]float64, ng)
			for e, g := range a.uni.cols[0].ints {
				sub[g] += a.uniSum[e] * a.uniSum[e]
			}
		}
		for g := 0; g < ng; g++ {
			o := g*na + j
			v := a.sumWX[g]
			if spec.Kind == lplan.AggAvg {
				if a.sumW[g] <= 0 {
					vals[o] = table.Null
					continue
				}
				v /= a.sumW[g]
			}
			variance := a.varTerm[g]
			if sub != nil {
				if uvar := (1 - est.P) / (est.P * est.P) * sub[g]; uvar > variance {
					variance = uvar
				}
			}
			if variance > 0 {
				errs[o] = math.Sqrt(variance)
				if spec.Kind == lplan.AggAvg {
					errs[o] /= a.sumW[g]
				}
			}
			if spec.Out.Kind == table.KindInt {
				vals[o] = table.NewInt(int64(math.Round(v)))
			} else {
				vals[o] = table.NewFloat(v)
			}
		}
	}
}

// argIsUniverse reports whether the aggregate argument is exactly over
// the universe-sampled columns (the COUNT DISTINCT scaling case of
// Table 8).
func (r *aggRunner) argIsUniverse(spec lplan.AggSpec) bool {
	if r.p.Est == nil {
		return false
	}
	for _, u := range r.p.Est.UniverseCols {
		if u == spec.Arg {
			return true
		}
	}
	return false
}

// emit renders the partition's groups as a column-major output
// partition of weight-1 rows in group-id order — the order the groups
// were first met in the partition's lanes — copying the typed key
// columns whole, plus — for the top aggregate — their estimate records,
// carved from one backing array per field. The order is no contract
// (SQL promises none without ORDER BY); it depends only on the
// partition's lane order, so it is the same at every batch size.
func (r *aggRunner) emit() (Part, []GroupEstimate) {
	ng, nk, na := r.groups.len(), len(r.groupIdx), len(r.p.Aggs)
	if ng == 0 && nk > 0 {
		return emptyPart(nk + na), nil
	}
	vals, errs := make([]table.Value, max(ng, 1)*na), make([]float64, max(ng, 1)*na)
	out := newPartBuilder(r.mem, nk+na, max(ng, 1))
	if ng == 0 {
		// Global aggregate over an empty input still yields one row.
		for j, spec := range r.p.Aggs {
			switch spec.Kind {
			case lplan.AggCount, lplan.AggCountIf, lplan.AggCountDistinct:
				vals[j] = table.NewInt(0)
			}
		}
		out.appendRow(vals)
		return out.finish(), []GroupEstimate{{Values: vals, StdErr: errs}}
	}
	r.finish(vals, errs)
	for k := range r.groups.keys {
		out.cols[k].appendLanes(&r.groups.keys[k], nil, true)
	}
	for j := 0; j < na; j++ {
		for g := 0; g < ng; g++ {
			out.cols[nk+j].append(vals[g*na+j])
		}
	}
	out.w = out.w[:ng]
	for i := range out.w {
		out.w[i] = 1
	}
	if !r.p.Top {
		return out.finish(), nil
	}
	ests, keys := make([]GroupEstimate, ng), make([]table.Value, ng*nk)
	for g := range ests {
		key, o := keys[g*nk:(g+1)*nk:(g+1)*nk], g*na
		for k := range key {
			key[k] = r.groups.keys[k].Value(g)
		}
		ests[g] = GroupEstimate{Key: key, Values: vals[o : o+na : o+na], StdErr: errs[o : o+na : o+na], SampleRows: r.n[g]}
	}
	return out.finish(), ests
}

// GroupEstimate is the per-group outcome of the top aggregate: values,
// standard errors of the HT estimators, and sample support.
type GroupEstimate struct {
	Key        []table.Value
	Values     []table.Value
	StdErr     []float64
	SampleRows int64
}
