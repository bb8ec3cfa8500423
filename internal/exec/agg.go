package exec

import (
	"math"
	"sort"

	"quickr/internal/accuracy"
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
type aggRunner struct {
	p        *PHashAgg
	groupIdx []int
	argIdx   []int
	condIdx  []int
	uniIdx   []int // positions of universe columns, if present in input
	// Groups are found by 64-bit canonical hash through an
	// open-addressing index (key equality verified on collision), so the
	// per-row hot loop allocates nothing for already-seen groups. The
	// dense group array is in first-seen order; each group's legacy
	// concatenated string key is built once at creation and only used to
	// reproduce the historical emit order.
	idx    *hashIndex
	groups []*groupAcc
	keyBuf []byte // scratch for canonical key strings (new groups only)
}

type groupAcc struct {
	key  []table.Value
	skey string // concatenated Value.Key() form; sorted at emit
	n    int64
	aggs []aggAcc
}

type aggAcc struct {
	sumWX    float64
	sumW     float64
	varTerm  float64 // Σ (w²−w)·x² (row-independent samplers)
	distinct map[string]bool
	min, max table.Value
	uni      *uniAcc // per-universe-subspace Σx
	seen     bool
}

// uniAcc accumulates per-universe-subspace partial sums Y_g for the
// universe variance estimator, hash-indexed like the group table so
// rows of an already-seen subspace cost no allocation.
type uniAcc struct {
	idx  *hashIndex
	keys [][]table.Value
	sums []float64
}

// add folds x into the subspace holding row's universe columns.
func (u *uniAcc) add(h uint64, row table.Row, uniIdx []int, x float64) {
	e := u.idx.probe(h, func(i int) bool { return rowKeyEqualValues(u.keys[i], row, uniIdx) })
	if e < 0 {
		key := make([]table.Value, len(uniIdx))
		for j, i := range uniIdx {
			key[j] = row[i]
		}
		e = u.idx.add(h)
		u.keys = append(u.keys, key)
		u.sums = append(u.sums, 0)
	}
	u.sums[e] += x
}

func newAggRunner(p *PHashAgg, cm colMap) (*aggRunner, error) {
	r := &aggRunner{p: p, idx: newHashIndex(16)}
	for _, g := range p.GroupCols {
		i, ok := cm[g]
		if !ok {
			return nil, errColMissing(g)
		}
		r.groupIdx = append(r.groupIdx, i)
	}
	for _, a := range p.Aggs {
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
		r.argIdx = append(r.argIdx, ai)
		r.condIdx = append(r.condIdx, ci)
	}
	if p.Est != nil && p.Est.Type == lplan.SamplerUniverse {
		for _, u := range p.Est.UniverseCols {
			if i, ok := cm[u]; ok {
				r.uniIdx = append(r.uniIdx, i)
			}
		}
	}
	return r, nil
}

type colMissingError lplan.ColumnID

func (e colMissingError) Error() string { return "exec: aggregate input column missing" }

func errColMissing(id lplan.ColumnID) error { return colMissingError(id) }

//hot:per-input-row grouped-aggregation accumulate, gated by BenchmarkGroupedAgg and BenchmarkPreAggKernel
func (r *aggRunner) add(row table.Row, w float64) {
	h := hashRowKey(row, r.groupIdx)
	gi := r.idx.probe(h, func(i int) bool { return rowKeyEqualValues(r.groups[i].key, row, r.groupIdx) })
	var g *groupAcc
	if gi >= 0 {
		g = r.groups[gi]
	} else {
		g = &groupAcc{key: make([]table.Value, len(r.groupIdx)), aggs: make([]aggAcc, len(r.p.Aggs))}
		for j, i := range r.groupIdx {
			g.key[j] = row[i]
		}
		r.keyBuf = appendRowKey(r.keyBuf[:0], row, r.groupIdx)
		g.skey = string(r.keyBuf)
		r.idx.add(h)
		r.groups = append(r.groups, g)
	}
	g.n++

	// The universe-subspace hash is only needed on accumulation paths
	// that actually consume it; computed at most once per row.
	uniH := uint64(0)
	uniHashed := false

	for j, spec := range r.p.Aggs {
		acc := &g.aggs[j]
		ai, ci := r.argIdx[j], r.condIdx[j]
		condTrue := true
		if ci >= 0 {
			condTrue = truthy(row[ci])
		}
		var x float64
		use := false
		switch spec.Kind {
		case lplan.AggCount:
			if ai < 0 || !row[ai].IsNull() {
				x, use = 1, true
			}
		case lplan.AggCountIf:
			if condTrue {
				x, use = 1, true
			}
		case lplan.AggSum:
			if ai >= 0 && !row[ai].IsNull() {
				x, use = row[ai].Float(), true
			}
		case lplan.AggSumIf:
			if condTrue && ai >= 0 && !row[ai].IsNull() {
				x, use = row[ai].Float(), true
			}
		case lplan.AggAvg:
			if condTrue && ai >= 0 && !row[ai].IsNull() {
				x, use = row[ai].Float(), true
			}
		case lplan.AggCountDistinct:
			if ai >= 0 && !row[ai].IsNull() {
				if acc.distinct == nil {
					acc.distinct = map[string]bool{}
				}
				acc.distinct[row[ai].Key()] = true
			}
		case lplan.AggMin:
			if ai >= 0 && !row[ai].IsNull() {
				if acc.min.IsNull() || row[ai].Compare(acc.min) < 0 {
					acc.min = row[ai]
				}
				acc.seen = true
			}
		case lplan.AggMax:
			if ai >= 0 && !row[ai].IsNull() {
				if acc.max.IsNull() || row[ai].Compare(acc.max) > 0 {
					acc.max = row[ai]
				}
				acc.seen = true
			}
		}
		if use {
			acc.sumWX += w * x
			acc.varTerm += (w*w - w) * x * x
			acc.seen = true
			if len(r.uniIdx) > 0 {
				if !uniHashed {
					uniH = hashRowKey(row, r.uniIdx)
					uniHashed = true
				}
				if acc.uni == nil {
					acc.uni = &uniAcc{idx: newHashIndex(4)}
				}
				acc.uni.add(uniH, row, r.uniIdx, x)
			}
		}
		// Denominator weight for AVG tracks the same condition filter.
		if spec.Kind == lplan.AggAvg && condTrue && ai >= 0 && !row[ai].IsNull() {
			acc.sumW += w
		}
	}
}

// addBatch folds a columnar batch's live rows into the runner through a
// reusable gather row (the accumulators copy every Value they keep, so
// reusing the row is safe). The add() call sequence — and therefore
// every accumulator state — is identical to running add() over the
// materialized rows. Returns the number of rows folded.
//
//hot:per-batch columnar aggregation gather loop
func (r *aggRunner) addBatch(b *Batch, sc *colScratch) int {
	row := sc.row(len(b.cols))
	if b.sel != nil {
		for _, lane := range b.sel {
			for c := range b.cols {
				row[c] = b.cols[c].Value(int(lane))
			}
			r.add(row, b.weights[lane])
		}
		return len(b.sel)
	}
	for i := 0; i < b.n; i++ {
		for c := range b.cols {
			row[c] = b.cols[c].Value(i)
		}
		r.add(row, b.weights[i])
	}
	return b.n
}

// finishGroup converts a group's accumulators into output values and
// standard errors.
func (r *aggRunner) finishGroup(g *groupAcc) ([]table.Value, []float64) {
	est := r.p.Est
	vals := make([]table.Value, len(r.p.Aggs))
	errs := make([]float64, len(r.p.Aggs))
	for j, spec := range r.p.Aggs {
		acc := &g.aggs[j]
		var v float64
		switch spec.Kind {
		case lplan.AggCount, lplan.AggCountIf, lplan.AggSum, lplan.AggSumIf:
			v = acc.sumWX
		case lplan.AggAvg:
			if acc.sumW > 0 {
				v = acc.sumWX / acc.sumW
			} else {
				vals[j] = table.Null
				continue
			}
		case lplan.AggCountDistinct:
			n := float64(len(acc.distinct))
			if est != nil && est.Type == lplan.SamplerUniverse && est.P > 0 && r.argIsUniverse(spec) {
				n /= est.P
			}
			vals[j] = table.NewInt(int64(math.Round(n)))
			continue
		case lplan.AggMin:
			vals[j] = acc.min
			continue
		case lplan.AggMax:
			vals[j] = acc.max
			continue
		}
		// Variance estimate.
		variance := acc.varTerm
		if est != nil && est.Type == lplan.SamplerUniverse && est.P > 0 && acc.uni != nil && len(acc.uni.sums) > 0 {
			var sub float64
			for _, y := range acc.uni.sums {
				sub += y * y
			}
			uvar := (1 - est.P) / (est.P * est.P) * sub
			if uvar > variance {
				variance = uvar
			}
		}
		if est != nil && est.PartP > 0 && est.PartP < 1 {
			// Partition pruning cluster-samples the scan: add the
			// selection variance on the weighted-sum scale (AVG's ÷sumW
			// below rescales it with the rest).
			variance += accuracy.PartitionVariance(acc.sumWX, est.PartP, est.PartTail, est.PartTailFrac)
		}
		if variance > 0 {
			errs[j] = math.Sqrt(variance)
			if spec.Kind == lplan.AggAvg && acc.sumW > 0 {
				errs[j] /= acc.sumW
			}
		}
		switch spec.Out.Kind {
		case table.KindInt:
			vals[j] = table.NewInt(int64(math.Round(v)))
		default:
			vals[j] = table.NewFloat(v)
		}
	}
	return vals, errs
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
// partition of weight-1 rows (deterministically ordered) plus estimate
// records. Order is by the canonical string key, exactly as when groups
// lived in a string-keyed map.
func (r *aggRunner) emit() (Part, []GroupEstimate) {
	order := make([]*groupAcc, len(r.groups))
	copy(order, r.groups)
	sort.Slice(order, func(a, b int) bool { return order[a].skey < order[b].skey })
	out := newPartBuilder(len(r.groupIdx)+len(r.p.Aggs), len(order))
	ests := make([]GroupEstimate, 0, len(order))
	for _, g := range order {
		vals, errs := r.finishGroup(g)
		out.appendRow(g.key, vals)
		ests = append(ests, GroupEstimate{Key: g.key, Values: vals, StdErr: errs, SampleRows: g.n})
	}
	// Global aggregate over an empty input still yields one row.
	if len(r.groups) == 0 && len(r.groupIdx) == 0 {
		row := make(table.Row, len(r.p.Aggs))
		for j, spec := range r.p.Aggs {
			switch spec.Kind {
			case lplan.AggCount, lplan.AggCountIf, lplan.AggCountDistinct:
				row[j] = table.NewInt(0)
			default:
				row[j] = table.Null
			}
		}
		out.appendRow(row)
		ests = append(ests, GroupEstimate{Values: row, StdErr: make([]float64, len(r.p.Aggs))})
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
