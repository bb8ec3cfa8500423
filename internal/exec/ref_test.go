package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/sampler"
	"quickr/internal/table"
)

// The row-at-a-time reference the executor is tested against. It shares
// none of the batch or partition code: expressions evaluate through the
// compileExpr row closures, samplers through their one-row Admit
// definitions, exchanges through table.HashRow of boxed rows, joins
// through a map of boxed build rows probed with Value.Equal,
// aggregation through aggRunner.add — one row, one partition at a time,
// with the executor's seed derivations (pipeSpec.newSampler).

// refChain evaluates scan, filter, project, sample, exchange and
// hash-join nodes per partition over boxed weighted rows.
func refChain(t *testing.T, n PNode) [][]wrow {
	t.Helper()
	switch x := n.(type) {
	case *PScan:
		parts := make([][]wrow, len(x.Tbl.Partitions))
		for i, rows := range x.Tbl.Partitions {
			for _, r := range rows {
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
		pred, err := compileExpr(x.Pred, buildColMap(x.In.Cols()))
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range in {
			var out []wrow
			for _, r := range part {
				if truthy(pred(r.row)) {
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
					f, err := compileExpr(e, cm)
					if err != nil {
						t.Fatal(err)
					}
					out[k] = f(r.row)
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
		sp, err := (&executor{qm: metrics.NewQuery()}).compilePipeOp(x, len(in))
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range in {
			sm := sp.newSampler(i)
			dist, _ := sm.(*sampler.Distinct)
			var out []wrow
			emit := func(fl []sampler.Weighted) {
				for _, w := range fl {
					out = append(out, newWRow(w.Row, w.W))
				}
			}
			for _, r := range part {
				if pass, w := sm.Admit(r.row, r.w); pass {
					out = append(out, newWRow(r.row, w))
				}
				if dist != nil {
					emit(dist.TakePending())
				}
			}
			emit(sm.Flush())
			in[i] = out
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
		var residual evalFunc
		if x.Residual != nil {
			f, err := compileExpr(x.Residual, buildColMap(x.Cols()))
			if err != nil {
				t.Fatal(err)
			}
			residual = f
		}
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
					if residual != nil && !truthy(residual(combined)) {
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
	}
	t.Fatalf("refChain: %T is not a reference operator", n)
	return nil
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

// execParts runs p through the executor at the given batch size and
// returns the partitions it produced, weights included.
func execParts(t *testing.T, p PNode, batch int) []Part {
	t.Helper()
	qm := metrics.NewQuery()
	registerOps(qm, p, nil, nil)
	ex := &executor{run: cluster.NewRun(cluster.DefaultConfig()), qm: qm, batch: resolveBatch(batch), ctx: context.Background()}
	s, err := ex.exec(p)
	if err != nil {
		t.Fatal(err)
	}
	return s.parts
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
	cm := buildColMap(agg.In.Cols())
	for i, part := range refChain(t, agg.In) {
		r, err := newAggRunner(agg, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range part {
			r.add(w.row, w.w)
		}
		// Only the first partition emits a global aggregate's empty row.
		if len(agg.GroupCols) == 0 && i > 0 && len(part) == 0 {
			continue
		}
		out, ests := r.emit()
		res.Rows = append(res.Rows, out.rows()...)
		res.Estimates = append(res.Estimates, ests...)
	}
	return res
}
