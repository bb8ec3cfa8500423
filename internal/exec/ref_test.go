package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/refimpl"
	"quickr/internal/sampler"
	"quickr/internal/table"
)

// The row-at-a-time reference the executor is tested against. It shares
// none of the batch or partition code: expressions evaluate through
// refimpl.EvalExpr, samplers admit one boxed row at a time
// (refSample), exchanges route through table.HashRow of boxed rows, joins
// through a map of boxed build rows probed with Value.Equal,
// aggregation through refAgg's string-keyed maps — one row, one
// partition at a time, with the executor's seed derivations
// (pipeSpec.newSampler).

// wrow is a boxed row with its sampling weight and accounted byte size.
type wrow struct {
	row table.Row
	w   float64
	sz  float64
}

// newWRow wraps a row, computing its accounted size once.
func newWRow(r table.Row, w float64) wrow {
	return wrow{row: r, w: w, sz: float64(r.ByteSize() + 8)}
}

// refChain evaluates scan, filter, project, sample, exchange and
// hash-join nodes per partition over boxed weighted rows.
func refChain(t *testing.T, n PNode) [][]wrow {
	t.Helper()
	switch x := n.(type) {
	case *PScan:
		parts := make([][]wrow, len(x.Tbl.Partitions))
		for i := range x.Tbl.Partitions {
			for _, r := range x.Tbl.Rows(i) {
				pr := make(table.Row, len(x.ColIdx))
				for k, ci := range x.ColIdx {
					pr[k] = r[ci]
				}
				parts[i] = append(parts[i], newWRow(pr, 1))
			}
		}
		return parts
	case *PFilter:
		in := refChain(t, x.In)
		cm := buildColMap(x.In.Cols())
		for i, part := range in {
			var out []wrow
			for _, r := range part {
				if truthy(refEval(t, x.Pred, cm, r.row)) {
					out = append(out, r)
				}
			}
			in[i] = out
		}
		return in
	case *PProject:
		in := refChain(t, x.In)
		cm := buildColMap(x.In.Cols())
		for i, part := range in {
			for j, r := range part {
				out := make(table.Row, len(x.Exprs))
				for k, e := range x.Exprs {
					out[k] = refEval(t, e, cm, r.row)
				}
				in[i][j] = newWRow(out, r.w)
			}
		}
		return in
	case *PSample:
		in := refChain(t, x.In)
		if x.Def.Type == lplan.SamplerPassThrough {
			return in
		}
		sp, err := (&executor{qm: metrics.NewQuery(), mem: newLedger()}).compilePipeOp(x, len(in))
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range in {
			in[i] = refSample(sp, sp.newSampler(newLedger(), i), part)
		}
		return in
	case *PCachedSample:
		return refChain(t, x.Frag) // the lazy fragment is the definition
	case *PExchange:
		in := refChain(t, x.In)
		out := make([][]wrow, max(x.Parts, 1))
		idx := refKeyIdx(t, x.In, x.Keys)
		for i, part := range in {
			for _, r := range part {
				d := i % len(out)
				if len(idx) > 0 {
					d = int(table.HashRow(r.row, idx, 7) % uint64(len(out)))
				}
				out[d] = append(out[d], r)
			}
		}
		return out
	case *PHashJoin:
		right, left := refChain(t, x.Right), refChain(t, x.Left)
		rIdx, lIdx := refKeyIdx(t, x.Right, x.RightKeys), refKeyIdx(t, x.Left, x.LeftKeys)
		cm := buildColMap(x.Cols())
		if x.Broadcast {
			var all []wrow
			for _, part := range right {
				all = append(all, part...)
			}
			right = make([][]wrow, len(left))
			for i := range right {
				right[i] = all
			}
		} else if len(left) != len(right) {
			t.Fatalf("refChain: join inputs have %d vs %d partitions", len(left), len(right))
		}
		nRight := len(x.Right.Cols())
		out := make([][]wrow, len(left))
		for i, lpart := range left {
			build := map[uint64][]wrow{}
			for _, r := range right[i] {
				h := table.HashRow(r.row, rIdx, 3)
				build[h] = append(build[h], r)
			}
			for _, l := range lpart {
				matched := false
				for _, r := range build[table.HashRow(l.row, lIdx, 3)] {
					equal := true
					for k := range lIdx {
						equal = equal && l.row[lIdx[k]].Equal(r.row[rIdx[k]])
					}
					if !equal {
						continue
					}
					combined := append(append(table.Row{}, l.row...), r.row...)
					w := l.w * r.w
					if x.SharedUniverseP > 0 {
						w *= x.SharedUniverseP
					}
					if x.Residual != nil && !truthy(refEval(t, x.Residual, cm, combined)) {
						continue
					}
					out[i] = append(out[i], newWRow(combined, w))
					matched = true
				}
				if !matched && x.Kind == lplan.LeftOuterJoin {
					combined := append(table.Row{}, l.row...)
					for k := 0; k < nRight; k++ {
						combined = append(combined, table.Null)
					}
					out[i] = append(out[i], newWRow(combined, l.w))
				}
			}
		}
		return out
	case *PHashAgg:
		in := refChain(t, x.In)
		out := make([][]wrow, len(in))
		for i, part := range in {
			// Only the first partition emits a global aggregate's empty row.
			if len(x.GroupCols) == 0 && i > 0 && len(part) == 0 {
				continue
			}
			rows, _ := refAggregate(t, x, buildColMap(x.In.Cols()), part)
			for _, r := range rows {
				out[i] = append(out[i], newWRow(r, 1))
			}
		}
		return out
	}
	t.Fatalf("refChain: %T is not a reference operator", n)
	return nil
}

// refEval evaluates e over one boxed row through refimpl's evaluator.
func refEval(t *testing.T, e lplan.Expr, cm colMap, row table.Row) table.Value {
	t.Helper()
	v, err := refimpl.EvalExpr(e, cm, row)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// refSample runs one partition's rows through the production sampler
// of op one lane at a time: the universe hash over the boxed row's
// values, and for the distinct sampler stratum ids from a first-met map
// of each row's key string (the sampler columns' and the ⌈v/width⌉
// buckets' AppendKey forms, each followed by a NUL), with the held rows
// kept boxed by handle. Key resolution, bucketing, the hold store and
// batching are the executor's own and are not used here. The string key
// merges strata whose strings line up around a NUL, so inputs compared
// against this reference keep NUL-free strings.
func refSample(sp *pipeSpec, op *colSampleOp, part []wrow) []wrow {
	var out []wrow
	w := []float64{0}
	lane := []int32{0}
	switch {
	case op.unif != nil:
		for _, r := range part {
			w[0] = r.w
			if len(op.unif.AdmitBatch(append(lane[:0], 0), w)) > 0 {
				out = append(out, newWRow(r.row, w[0]))
			}
		}
	case op.uni != nil:
		for _, r := range part {
			w[0] = r.w
			vals := make([]table.Value, len(sp.colIdx))
			for j, c := range sp.colIdx {
				vals[j] = r.row[c]
			}
			hash := []uint64{sampler.HashValues(vals, op.uni.s.Seed)}
			if len(op.uni.s.AdmitBatch(append(lane[:0], 0), w, hash)) > 0 {
				out = append(out, newWRow(r.row, w[0]))
			}
		}
	default:
		d := op.dist.s
		ids := map[string]int64{}
		var keys []string
		var held []table.Row
		var em []sampler.Emit
		var holds []int32
		emit := func(r table.Row) {
			for _, e := range em {
				if e.Held {
					out = append(out, newWRow(held[e.Ref], e.W))
				} else {
					out = append(out, newWRow(r, e.W))
				}
			}
		}
		for _, r := range part {
			var b []byte
			for _, c := range sp.colIdx {
				b = append(r.row[c].AppendKey(b), 0)
			}
			for _, bc := range sp.buckets {
				v := r.row[bc.pos]
				if v.IsNumeric() {
					v = table.NewInt(int64(math.Ceil(v.Float() / bc.width)))
				}
				b = append(v.AppendKey(b), 0)
			}
			id, ok := ids[string(b)]
			if !ok {
				id = int64(len(keys))
				ids[string(b)] = id
				keys = append(keys, string(b))
			}
			w[0] = r.w
			em, holds = d.AdmitBatch(lane, []int64{id}, w, em[:0], holds[:0])
			if len(holds) > 0 {
				held = append(held, r.row)
			}
			emit(r.row)
		}
		em = d.Flush(func(dst []byte, id int32) []byte { return append(dst, keys[id]...) }, em[:0])
		emit(nil)
	}
	return out
}

func refKeyIdx(t *testing.T, in PNode, keys []lplan.ColumnID) []int {
	t.Helper()
	cm := buildColMap(in.Cols())
	idx := make([]int, len(keys))
	for i, id := range keys {
		pos, ok := cm[id]
		if !ok {
			t.Fatalf("refChain: key #%d not available", id)
		}
		idx[i] = pos
	}
	return idx
}

// testExecutor is an executor for p as RunWithOptions would set it up.
func testExecutor(ctx context.Context, p PNode, batch int) *executor {
	qm := metrics.NewQuery()
	registerOps(qm, p, nil, nil)
	return &executor{run: cluster.NewRun(cluster.DefaultConfig()), qm: qm, batch: resolveBatch(batch), ctx: ctx, mem: newLedger()}
}

// execParts runs p through the executor at the given batch size and
// returns the partitions it produced, weights included.
func execParts(t *testing.T, p PNode, batch int) []Part {
	t.Helper()
	s, err := testExecutor(context.Background(), p, batch).exec(p)
	if err != nil {
		t.Fatal(err)
	}
	return s.parts
}

// scatter is the exchange as it was before it routed: every batch's
// lanes are copied into one partition builder per destination and the
// destinations' pieces are concatenated in source order (refExchange).
// It is kept as the oracle the routed exchange is held to column for
// column: NULL bitmaps, dictionaries in first-appearance order and
// mixed-kind degradation are all defined by what this copy builds.
type scatter struct {
	dst    []*partBuilder
	keyIdx []int

	keys   []Vector
	hashes []uint64
	sels   [][]int32
}

func newScatter(parts, width int, keyIdx []int) *scatter {
	sc := &scatter{dst: make([]*partBuilder, parts), keyIdx: keyIdx, sels: make([][]int32, parts)}
	for d := range sc.dst {
		sc.dst[d] = newPartBuilder(newLedger(), width, 0)
	}
	return sc
}

// appendLanes sends each of the n lanes of cols to the builder of the
// destination its key hash names.
func (sc *scatter) appendLanes(cols []Vector, n int, weights []float64) {
	sc.keys = sc.keys[:0]
	for _, ci := range sc.keyIdx {
		sc.keys = append(sc.keys, cols[ci])
	}
	sc.hashes = extend(sc.hashes[:0], n)
	hashKeys(sc.hashes, sc.keys, nil, exchangeHashSeed, nil, n)
	for d := range sc.sels {
		sc.sels[d] = sc.sels[d][:0]
	}
	for i, h := range sc.hashes {
		d := h % uint64(len(sc.dst))
		sc.sels[d] = append(sc.sels[d], int32(i))
	}
	for d, lanes := range sc.sels {
		if len(lanes) > 0 {
			sc.dst[d].appendLanes(cols, lanes, n, weights)
		}
	}
}

// refExchange scatters every source in windows of at most window lanes
// and concatenates each destination's pieces.
func refExchange(srcs []Part, width int, keyIdx []int, parts, window int) []Part {
	pieces := make([][]Part, parts)
	for i := range srcs {
		src, sc := &srcs[i], newScatter(parts, width, keyIdx)
		for pos := 0; pos < src.N; pos += window {
			n := min(window, src.N-pos)
			sc.appendLanes(src.window(nil, pos, n), n, src.W[pos:pos+n])
		}
		for d, pb := range sc.dst {
			pieces[d] = append(pieces[d], pb.finish())
		}
	}
	out := make([]Part, parts)
	for d := range out {
		out[d] = concatParts(newLedger(), pieces[d], width)
	}
	return out
}

// sameValue reports bit-identity of two values (NaN payloads and the
// sign of zero included).
func sameValue(a, b table.Value) bool {
	return a.Kind() == b.Kind() && a.Int() == b.Int() && a.Str() == b.Str() &&
		(a.Kind() != table.KindFloat || math.Float64bits(a.Float()) == math.Float64bits(b.Float()))
}

// sameParts asserts the executor's partitions equal the reference's row
// for row: values, weights and accounted bytes, bit for bit.
func sameParts(t *testing.T, want [][]wrow, got []Part, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d partitions, want %d", label, len(got), len(want))
	}
	for i := range want {
		for c := range got[i].Cols {
			if n := got[i].Cols[c].Len(); n != got[i].N {
				t.Fatalf("%s: partition %d column %d holds %d lanes for %d rows", label, i, c, n, got[i].N)
			}
		}
		rows := got[i].rows()
		if len(rows) != len(want[i]) {
			t.Fatalf("%s: partition %d has %d rows, want %d", label, i, len(rows), len(want[i]))
		}
		var bytes float64
		for j, w := range want[i] {
			bytes += w.sz
			if math.Float64bits(got[i].W[j]) != math.Float64bits(w.w) {
				t.Fatalf("%s: partition %d row %d weight %v, want %v", label, i, j, got[i].W[j], w.w)
			}
			if len(rows[j]) != len(w.row) {
				t.Fatalf("%s: partition %d row %d width %d, want %d", label, i, j, len(rows[j]), len(w.row))
			}
			for c := range w.row {
				if !sameValue(rows[j][c], w.row[c]) {
					t.Fatalf("%s: partition %d row %d col %d = %v, want %v", label, i, j, c, rows[j][c], w.row[c])
				}
			}
		}
		if got[i].bytes != bytes {
			t.Fatalf("%s: partition %d accounts %v bytes, want %v", label, i, got[i].bytes, bytes)
		}
	}
}

var refBatchSizes = []int{1, 7, 256, -1}

// sameAsReference checks a plan built by mk (fresh nodes per run)
// against the row reference at every batch size.
func sameAsReference(t *testing.T, mk func() PNode) {
	t.Helper()
	want := refChain(t, mk())
	for _, bs := range refBatchSizes {
		sameParts(t, want, execParts(t, mk(), bs), fmt.Sprintf("batch=%d", bs))
	}
}

// refRun is the reference answer of a plan that is a bare chain or a
// hash aggregate directly over one, shaped like the executor's Result.
func refRun(t *testing.T, p PNode) *Result {
	t.Helper()
	res := &Result{}
	agg, ok := p.(*PHashAgg)
	if !ok {
		for _, part := range refChain(t, p) {
			for _, r := range part {
				res.Rows = append(res.Rows, r.row)
			}
		}
		return res
	}
	for i, part := range refChain(t, agg.In) {
		// Only the first partition emits a global aggregate's empty row.
		if len(agg.GroupCols) == 0 && i > 0 && len(part) == 0 {
			continue
		}
		rows, ests := refAggregate(t, agg, buildColMap(agg.In.Cols()), part)
		res.Rows = append(res.Rows, rows...)
		if agg.Top {
			res.Estimates = append(res.Estimates, ests...)
		}
	}
	return res
}

// refGroup is one group of the reference aggregate: the key values as
// first met, the row count and one refAcc per aggregate.
type refGroup struct {
	key  []table.Value
	n    int64
	accs []refAcc
}

type refAcc struct {
	sumWX, sumW, varTerm float64
	distinct             map[string]bool
	min, max             table.Value
	// Universe variance: Σx per subspace, subspaces in first-met order.
	subspace map[string]int
	subSums  []float64
}

// refKeyOf concatenates the Value.Key() forms of row's idx columns, each
// followed by a NUL: the identity of a group, and what emit order sorts.
func refKeyOf(row table.Row, idx []int) string {
	var sb strings.Builder
	for _, i := range idx {
		sb.WriteString(row[i].Key())
		sb.WriteByte(0)
	}
	return sb.String()
}

// refAggregate is the row-at-a-time definition of PHashAgg over one
// partition (the Table 8 rewrites and the one-pass variance terms): it
// folds one boxed row at a time into string-keyed maps and returns the
// output rows and the estimate records in emit order. It shares nothing
// with aggRunner.
func refAggregate(t *testing.T, p *PHashAgg, cm colMap, part []wrow) ([]table.Row, []GroupEstimate) {
	t.Helper()
	pos := func(id lplan.ColumnID) int {
		if id == lplan.NoColumn {
			return -1
		}
		i, ok := cm[id]
		if !ok {
			t.Fatalf("refAggregate: column #%d not available", id)
		}
		return i
	}
	var groupIdx, uniIdx []int
	for _, g := range p.GroupCols {
		groupIdx = append(groupIdx, pos(g))
	}
	est := p.Est
	universe := est != nil && est.Type == lplan.SamplerUniverse
	if universe {
		for _, u := range est.UniverseCols {
			if i, ok := cm[u]; ok {
				uniIdx = append(uniIdx, i)
			}
		}
	}
	groups := map[string]*refGroup{}
	for _, wr := range part {
		row, w := wr.row, wr.w
		gk := refKeyOf(row, groupIdx)
		g := groups[gk]
		if g == nil {
			g = &refGroup{accs: make([]refAcc, len(p.Aggs))}
			for _, i := range groupIdx {
				g.key = append(g.key, row[i])
			}
			groups[gk] = g
		}
		g.n++
		for j, spec := range p.Aggs {
			acc := &g.accs[j]
			ai, ci := pos(spec.Arg), pos(spec.Cond)
			cond := ci < 0 || truthy(row[ci])
			hasArg := ai >= 0 && !row[ai].IsNull()
			var x float64
			use := false
			switch spec.Kind {
			case lplan.AggCount:
				x, use = 1, ai < 0 || hasArg
			case lplan.AggCountIf:
				x, use = 1, cond
			case lplan.AggSum:
				use = hasArg
			case lplan.AggSumIf, lplan.AggAvg:
				use = cond && hasArg
			case lplan.AggCountDistinct:
				if hasArg {
					if acc.distinct == nil {
						acc.distinct = map[string]bool{}
					}
					acc.distinct[row[ai].Key()] = true
				}
			case lplan.AggMin:
				if hasArg && (acc.min.IsNull() || row[ai].Compare(acc.min) < 0) {
					acc.min = row[ai]
				}
			case lplan.AggMax:
				if hasArg && (acc.max.IsNull() || row[ai].Compare(acc.max) > 0) {
					acc.max = row[ai]
				}
			}
			if !use {
				continue
			}
			if spec.Kind != lplan.AggCount && spec.Kind != lplan.AggCountIf {
				x = row[ai].Float()
			}
			acc.sumWX += w * x
			acc.varTerm += (w*w - w) * x * x
			if spec.Kind == lplan.AggAvg {
				acc.sumW += w
			}
			if len(uniIdx) > 0 {
				uk := refKeyOf(row, uniIdx)
				if acc.subspace == nil {
					acc.subspace = map[string]int{}
				}
				e, ok := acc.subspace[uk]
				if !ok {
					e = len(acc.subSums)
					acc.subspace[uk] = e
					acc.subSums = append(acc.subSums, 0)
				}
				acc.subSums[e] += x
			}
		}
	}

	if len(groups) == 0 && len(groupIdx) == 0 {
		// Global aggregate over an empty input still yields one row.
		row := make(table.Row, len(p.Aggs))
		for j, spec := range p.Aggs {
			switch spec.Kind {
			case lplan.AggCount, lplan.AggCountIf, lplan.AggCountDistinct:
				row[j] = table.NewInt(0)
			}
		}
		return []table.Row{row}, []GroupEstimate{{Values: row, StdErr: make([]float64, len(p.Aggs))}}
	}
	order := make([]string, 0, len(groups))
	for gk := range groups {
		order = append(order, gk)
	}
	sort.Strings(order)
	var rows []table.Row
	var ests []GroupEstimate
	for _, gk := range order {
		g := groups[gk]
		vals := make([]table.Value, len(p.Aggs))
		errs := make([]float64, len(p.Aggs))
		for j, spec := range p.Aggs {
			acc := &g.accs[j]
			v := acc.sumWX
			switch spec.Kind {
			case lplan.AggAvg:
				if acc.sumW <= 0 {
					continue // NULL, no standard error
				}
				v = acc.sumWX / acc.sumW
			case lplan.AggCountDistinct:
				n := float64(len(acc.distinct))
				if universe && est.P > 0 {
					for _, u := range est.UniverseCols {
						if u == spec.Arg {
							n /= est.P
							break
						}
					}
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
			variance := acc.varTerm
			if universe && est.P > 0 && len(acc.subSums) > 0 {
				var sub float64
				for _, y := range acc.subSums {
					sub += y * y
				}
				if uvar := (1 - est.P) / (est.P * est.P) * sub; uvar > variance {
					variance = uvar
				}
			}
			if variance > 0 {
				errs[j] = math.Sqrt(variance)
				if spec.Kind == lplan.AggAvg {
					errs[j] /= acc.sumW
				}
			}
			if spec.Out.Kind == table.KindInt {
				vals[j] = table.NewInt(int64(math.Round(v)))
			} else {
				vals[j] = table.NewFloat(v)
			}
		}
		rows = append(rows, append(append(table.Row{}, g.key...), vals...))
		ests = append(ests, GroupEstimate{Key: g.key, Values: vals, StdErr: errs, SampleRows: g.n})
	}
	return rows, ests
}
