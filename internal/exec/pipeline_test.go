package exec

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/table"
)

// runBatched executes a plan at the given batch size.
func runBatched(t *testing.T, p PNode, batch int) *Result {
	t.Helper()
	res, err := RunWithOptions(context.Background(), p, cluster.DefaultConfig(), nil, Options{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRows asserts two results carry identical rows in identical order,
// value for value of the same kind and bits (sameValue), so int 3
// differs from float 3.0 and a NaN equals only a NaN of the same bits.
func sameRows(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		w, g := want.Rows[i], got.Rows[i]
		if len(w) != len(g) {
			t.Fatalf("%s: row %d has %d values, want %d", label, i, len(g), len(w))
		}
		for k := range w {
			if !sameValue(w[k], g[k]) {
				t.Fatalf("%s: row %d column %d is %v (kind %v), want %v (kind %v): %v vs %v",
					label, i, k, g[k], g[k].Kind(), w[k], w[k].Kind(), g, w)
			}
		}
	}
}

// chainOf builds a fresh scan→filter→project→sample chain over tbl with
// the given sampler definition (passthrough when def.Type is zero with
// P=0: pass nil to skip the sampler entirely).
func chainOf(tbl *table.Table, def *lplan.SamplerDef, seed uint64) PNode {
	scan := scanOf(tbl)
	kCol, vCol := scan.OutCols[0], scan.OutCols[1]
	filter := &PFilter{In: scan, Pred: &lplan.Binary{
		Op: lplan.OpGt,
		L:  &lplan.ColRef{ID: vCol.ID, Name: "v", Kind: table.KindFloat},
		R:  &lplan.Const{Val: table.NewInt(50)},
	}}
	nextID++
	k2 := lplan.ColumnInfo{ID: nextID, Name: "k2", Kind: table.KindInt}
	nextID++
	v2 := lplan.ColumnInfo{ID: nextID, Name: "v2", Kind: table.KindFloat}
	proj := &PProject{In: filter, Exprs: []lplan.Expr{
		&lplan.ColRef{ID: kCol.ID, Name: "k", Kind: table.KindInt},
		&lplan.Binary{Op: lplan.OpMul,
			L: &lplan.ColRef{ID: vCol.ID, Name: "v", Kind: table.KindFloat},
			R: &lplan.Const{Val: table.NewInt(3)}},
	}, OutCols: []lplan.ColumnInfo{k2, v2}}
	if def == nil {
		return proj
	}
	d := *def
	if len(d.Cols) > 0 {
		// Sampler columns refer to this chain's first projected column.
		d.Cols = []lplan.ColumnID{k2.ID}
	}
	return &PSample{In: proj, Def: d, Seed: seed}
}

func pipelineRows(n int) [][2]float64 {
	rows := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, [2]float64{float64(i % 53), float64(i)})
	}
	return rows
}

// The acceptance bar of the streaming refactor: query results are
// bit-identical for every batch size, including pathological ones (1,
// primes that straddle partition boundaries) and whole-partition
// batches (<0), for every sampler type.
func TestPipelineBitIdenticalAcrossBatchSizes(t *testing.T) {
	samplers := map[string]*lplan.SamplerDef{
		"nosampler": nil,
		"uniform":   {Type: lplan.SamplerUniform, P: 0.25},
		"universe":  {Type: lplan.SamplerUniverse, P: 0.25, Cols: []lplan.ColumnID{1}, Seed: 99},
		"distinct":  {Type: lplan.SamplerDistinct, P: 0.1, Cols: []lplan.ColumnID{1}, Delta: 4},
		"passthru":  {Type: lplan.SamplerPassThrough},
	}
	for name, def := range samplers {
		t.Run(name, func(t *testing.T) {
			tbl, _ := buildT("t_"+name, 8, pipelineRows(4000))
			base := runBatched(t, chainOf(tbl, def, 7), -1) // one batch per partition
			if name == "nosampler" && len(base.Rows) != 4000-51 {
				t.Fatalf("baseline filtered to %d rows", len(base.Rows))
			}
			for _, bs := range []int{1, 3, 7, 64, 0, DefaultBatchSize + 1} {
				got := runBatched(t, chainOf(tbl, def, 7), bs)
				sameRows(t, base, got, fmt.Sprintf("batch=%d", bs))
			}
		})
	}
}

// Limit, union and sort are pipeline breakers; their results must be
// unchanged whatever the upstream batch size.
func TestPipelineLimitUnionSortBatched(t *testing.T) {
	t1, _ := buildT("u1", 3, pipelineRows(500))
	t2, _ := buildT("u2", 5, pipelineRows(300))
	build := func() PNode {
		s1, s2 := scanOf(t1), scanOf(t2)
		union := &PUnion{Ins: []PNode{s1, s2}, OutCols: s1.OutCols}
		filter := &PFilter{In: union, Pred: &lplan.Binary{
			Op: lplan.OpLt,
			L:  &lplan.ColRef{ID: s1.OutCols[0].ID, Name: "k", Kind: table.KindInt},
			R:  &lplan.Const{Val: table.NewInt(40)},
		}}
		gather := &PExchange{In: filter, Parts: 1}
		sort := &PSort{In: gather, Keys: []lplan.SortKey{
			{Col: s1.OutCols[1].ID, Desc: true},
			{Col: s1.OutCols[0].ID},
		}}
		return &PLimit{In: sort, N: 97}
	}
	base := runBatched(t, build(), -1)
	if len(base.Rows) != 97 {
		t.Fatalf("limit produced %d rows, want 97", len(base.Rows))
	}
	if base.Rows[0][1].Float() != 499 {
		t.Fatalf("sort desc: first row %v", base.Rows[0])
	}
	for _, bs := range []int{1, 5, 0} {
		sameRows(t, base, runBatched(t, build(), bs), fmt.Sprintf("batch=%d", bs))
	}
}

// Pipelines must behave at partition-count extremes: a single
// partition, more partitions than GOMAXPROCS, empty partitions, and a
// completely empty table.
func TestPipelinePartitionCounts(t *testing.T) {
	wide := runtime.GOMAXPROCS(0)*2 + 1
	for _, parts := range []int{1, 4, wide, 64} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			tbl, _ := buildT(fmt.Sprintf("p%d", parts), parts, pipelineRows(997))
			base := runBatched(t, chainOf(tbl, nil, 0), -1)
			got := runBatched(t, chainOf(tbl, nil, 0), 16)
			sameRows(t, base, got, "streamed")
		})
	}
	t.Run("empty-table", func(t *testing.T) {
		tbl, _ := buildT("pempty", 6, nil)
		def := &lplan.SamplerDef{Type: lplan.SamplerDistinct, P: 0.1, Cols: []lplan.ColumnID{1}, Delta: 2}
		res := runBatched(t, chainOf(tbl, def, 3), 0)
		if len(res.Rows) != 0 {
			t.Fatalf("empty table produced %d rows", len(res.Rows))
		}
	})
	t.Run("sparse-partitions", func(t *testing.T) {
		// All rows in one partition, the other 15 empty.
		sc := table.NewSchema(
			table.Column{Name: "k", Kind: table.KindInt},
			table.Column{Name: "v", Kind: table.KindFloat},
		)
		tbl := table.New("psparse", sc, 16)
		for i := 0; i < 400; i++ {
			tbl.Append(0, table.Row{table.NewInt(int64(i % 11)), table.NewFloat(float64(i))})
		}
		base := runBatched(t, chainOf(tbl, nil, 0), -1)
		got := runBatched(t, chainOf(tbl, nil, 0), 32)
		sameRows(t, base, got, "sparse")
	})
}

// Hammer a fused scan→filter→sample(distinct) chain across many
// partitions repeatedly; under -race this proves the per-partition
// kernel scratch, selection buffers, metric slots and stage writes stay
// index-disjoint.
func TestPipelineFusedChainRaceFree(t *testing.T) {
	tbl, _ := buildT("race", 64, pipelineRows(6400))
	def := &lplan.SamplerDef{Type: lplan.SamplerDistinct, P: 0.2, Cols: []lplan.ColumnID{1}, Delta: 3}
	var want *Result
	for round := 0; round < 8; round++ {
		plan := chainOf(tbl, def, uint64(11))
		res := runBatched(t, plan, 17)
		if want == nil {
			want = res
		} else {
			sameRows(t, want, res, fmt.Sprintf("round=%d", round))
		}
		samp := res.Stats.Op(plan)
		if samp == nil {
			t.Fatal("sampler op not registered")
		}
		tot := samp.Total()
		if tot.SamplerPassed != int64(len(res.Rows)) {
			t.Fatalf("sampler passed %d, result has %d rows", tot.SamplerPassed, len(res.Rows))
		}
		if tot.Batches <= 0 || tot.PeakBytes <= 0 {
			t.Fatalf("sampler batch telemetry empty: %+v", tot)
		}
	}
	sameRows(t, refRun(t, chainOf(tbl, def, 11)), want, "vs row reference")
}

// EXPLAIN ANALYZE must surface the new batch telemetry: per-operator
// batch counts and peak in-flight bytes.
func TestAnalyzeReportsBatchesAndPeak(t *testing.T) {
	tbl, _ := buildT("ba", 4, pipelineRows(2000))
	plan := chainOf(tbl, &lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.25}, 5)
	res := runBatched(t, plan, 100)
	if !strings.Contains(res.AnalyzedPlan, "batches=") || !strings.Contains(res.AnalyzedPlan, "peak=") {
		t.Fatalf("analyze missing batch telemetry:\n%s", res.AnalyzedPlan)
	}
	scanOp := res.Stats.Op(plan.(*PSample).In.(*PProject).In.(*PFilter).In)
	if scanOp == nil {
		t.Fatal("scan op not registered")
	}
	tot := scanOp.Total()
	// 2000 rows over 4 partitions at 100-row batches: 5 batches per task.
	if tot.Batches != 20 {
		t.Fatalf("scan batches = %d, want 20", tot.Batches)
	}
	if tot.PeakBytes <= 0 {
		t.Fatalf("scan peak bytes = %v", tot.PeakBytes)
	}
	if res.PeakInFlightBytes <= 0 {
		t.Fatalf("run peak in-flight = %v", res.PeakInFlightBytes)
	}
	if res.RowsProcessed != 2000 {
		t.Fatalf("rows processed = %d, want 2000", res.RowsProcessed)
	}
}

// The point of streaming: a fused pipeline's in-flight footprint must
// stay strictly below that of whole-partition batches.
func TestStreamingPeakBelowMaterializing(t *testing.T) {
	tbl, _ := buildT("peak", 4, pipelineRows(20000))
	stream := runBatched(t, chainOf(tbl, &lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.1}, 9), 0)
	mat := runBatched(t, chainOf(tbl, &lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.1}, 9), -1)
	sameRows(t, mat, stream, "streamed")
	if stream.PeakInFlightBytes >= mat.PeakInFlightBytes {
		t.Fatalf("streaming peak %.0fB not below whole-partition peak %.0fB",
			stream.PeakInFlightBytes, mat.PeakInFlightBytes)
	}
}
