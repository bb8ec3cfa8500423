package exec

import (
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/sampler"
	"quickr/internal/table"
)

// The row-at-a-time reference the fused chain is tested against. It
// shares none of the chain's batch code: expressions evaluate through
// the compileExpr row closures, samplers through their one-row Admit
// definitions, aggregation through aggRunner.add — one row, one
// partition at a time, with the executor's seed derivations
// (pipeSpec.newSampler).

// refChain evaluates a scan→filter→project→sample chain per partition.
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
	}
	t.Fatalf("refChain: %T is not a chain operator", n)
	return nil
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
		rows, ests := r.emit()
		for _, w := range rows {
			res.Rows = append(res.Rows, w.row)
		}
		res.Estimates = append(res.Estimates, ests...)
	}
	return res
}
