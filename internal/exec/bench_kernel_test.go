package exec

// Microbenchmarks for the vectorized kernels (filter, project, sampler,
// fused pre-aggregation), each run through its chain's sink.
// TestHotPathAllocCeilings (bench_micro_test.go) holds each plan's
// allocations per run at 1.25x what it measured once the sinks went
// column-major, so neither the kernels nor the sinks can start boxing
// rows again.

import (
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

const kernelRows, kernelKeys = 65536, 1024

// benchKernelTable builds the scan input shared by the kernel
// benchmarks: int, string (dictionary-friendly) and float columns with
// a sprinkling of NULLs, pre-columnarized so the timed loop measures
// kernels rather than first-touch columnarization.
func benchKernelTable() *table.Table {
	sc := table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "v", Kind: table.KindFloat},
	)
	tbl := table.New("bench_kernel", sc, 4)
	words := []string{"north", "south", "east", "west", "up", "down"}
	for i := 0; i < kernelRows; i++ {
		v := table.NewFloat(float64(i))
		if i%97 == 11 {
			v = table.Value{}
		}
		tbl.Append(i, table.Row{
			table.NewInt(int64(i % kernelKeys)),
			table.NewString(words[i%len(words)]),
			v,
		})
	}
	tbl.EnsureColumnar()
	return tbl
}

func kernelFilterPlan() (PNode, int) {
	scan := scanOf(benchKernelTable())
	k, _, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	return &PFilter{In: scan, Pred: &lplan.Binary{
		Op: lplan.OpAnd,
		L: &lplan.Binary{Op: lplan.OpLt,
			L: &lplan.ColRef{ID: k.ID, Name: "k", Kind: table.KindInt},
			R: &lplan.Const{Val: table.NewInt(512)}},
		R: &lplan.Binary{Op: lplan.OpGe,
			L: &lplan.ColRef{ID: v.ID, Name: "v", Kind: table.KindFloat},
			R: &lplan.Const{Val: table.NewFloat(1000)}},
	}}, 31925 // k<512, less the 512 rows with v<1000 and the NULL v lanes
}

func kernelProjectPlan() (PNode, int) {
	scan := scanOf(benchKernelTable())
	k, s, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	nextID += 3
	return &PProject{In: scan, Exprs: []lplan.Expr{
		&lplan.Binary{Op: lplan.OpAdd,
			L: &lplan.ColRef{ID: k.ID, Name: "k", Kind: table.KindInt},
			R: &lplan.Const{Val: table.NewInt(7)}},
		&lplan.Binary{Op: lplan.OpMul,
			L: &lplan.ColRef{ID: v.ID, Name: "v", Kind: table.KindFloat},
			R: &lplan.Const{Val: table.NewFloat(0.5)}},
		&lplan.Binary{Op: lplan.OpEq,
			L: &lplan.ColRef{ID: s.ID, Name: "s", Kind: table.KindString},
			R: &lplan.Const{Val: table.NewString("east")}},
	}, OutCols: []lplan.ColumnInfo{
		{ID: nextID - 2, Name: "k7", Kind: table.KindInt},
		{ID: nextID - 1, Name: "vh", Kind: table.KindFloat},
		{ID: nextID, Name: "e", Kind: table.KindBool},
	}}, kernelRows
}

func kernelSamplerPlan() (PNode, int) {
	scan := scanOf(benchKernelTable())
	return &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.1}, Seed: 42}, 6706
}

func kernelPreAggPlan() (PNode, int) {
	scan := scanOf(benchKernelTable())
	k, v := scan.OutCols[0], scan.OutCols[2]
	smp := &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.25}, Seed: 43}
	nextID += 2
	return &PHashAgg{
		In:        smp,
		GroupCols: []lplan.ColumnID{k.ID},
		GroupInfo: []lplan.ColumnInfo{k},
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggSum, Arg: v.ID, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "s", Kind: table.KindFloat}},
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "c", Kind: table.KindInt}},
		},
		Top: true,
	}, kernelKeys
}

// BenchmarkFilterKernel measures the columnar filter: typed comparison
// kernels over dense vectors writing a selection vector.
func BenchmarkFilterKernel(b *testing.B) { benchPlan(b, kernelFilterPlan) }

// BenchmarkProjectKernel measures columnar projection: arithmetic and
// dictionary-compare kernels building output vectors.
func BenchmarkProjectKernel(b *testing.B) { benchPlan(b, kernelProjectPlan) }

// BenchmarkSamplerKernel measures the columnar uniform sampler:
// selection-vector thinning with in-place weight scaling.
func BenchmarkSamplerKernel(b *testing.B) { benchPlan(b, kernelSamplerPlan) }

// BenchmarkPreAggKernel measures the fused columnar sample→group-by
// pre-aggregation (scan batches feed the aggregation without an
// intermediate materialized stream).
func BenchmarkPreAggKernel(b *testing.B) { benchPlan(b, kernelPreAggPlan) }
