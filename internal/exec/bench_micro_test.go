package exec

// Microbenchmarks for the executor's hottest paths — hash-join
// build/probe, the exchange scatter, grouped aggregation and window
// partitioning — plus the parallel sort; the four kernel plans live in
// bench_kernel_test.go. Every plan is built by one function that both
// its Benchmark (time, -benchmem) and TestHotPathAllocCeilings
// (allocations per run, tier 1) call, so the two measure the same thing.

import (
	"fmt"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/table"
)

// benchTables builds a dim table (one row per key) and a fact table
// (rows cycling over the keys), co-located so the same plan can run
// broadcast or co-partitioned. Keys mix an int and a string column so
// the hash paths see both fixed-width and variable-width values.
func benchTables(parts, dimRows, factRows int) (dim, fact *table.Table) {
	sc := table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "v", Kind: table.KindFloat},
	)
	dim = table.New("bench_dim", sc, parts)
	for k := 0; k < dimRows; k++ {
		dim.Append(k, table.Row{
			table.NewInt(int64(k)),
			table.NewString(fmt.Sprintf("key-%04d", k)),
			table.NewFloat(float64(k) * 0.5),
		})
	}
	fact = table.New("bench_fact", sc, parts)
	for i := 0; i < factRows; i++ {
		k := i % dimRows
		fact.Append(k, table.Row{
			table.NewInt(int64(k)),
			table.NewString(fmt.Sprintf("key-%04d", k)),
			table.NewFloat(float64(i)),
		})
	}
	return dim, fact
}

// hotPlan is one gated hot-path plan: build returns the plan and the
// number of rows a run of it must return.
type hotPlan struct {
	name      string // the Benchmark function that times build's plan
	build     func() (PNode, int)
	maxAllocs float64 // allocations per run, held by TestHotPathAllocCeilings
}

// hotPlans is the gated surface. The ceilings are absolute counts: for
// the two joins and the four kernels 1.25× what a run allocated when
// every breaker went column-major (933, 922, 948, 1277, 631, 6827 — a
// 32Ki–64Ki-row run allocates builders and index lists, nothing per
// row, and one boxed row per lane would add tens of thousands); for the
// exchange 1.25× its count at introduction (2628); for aggregation and
// window 0.70× and for the sort 1.05× what they allocated before the
// hash-path rework of DESIGN §10 (369649, 165554, 66017 — a run of them
// allocates 2181, 2157 and 971 today, so these three have slack to
// take up). Counts repeat to within ±6 at GOMAXPROCS 1, 2 and 8: pool
// scheduling is the only jitter.
var hotPlans = []hotPlan{
	{"BenchmarkJoinBroadcast", joinBroadcastPlan, 1166},
	{"BenchmarkJoinCoPartitioned", joinCoPartitionedPlan, 1152},
	{"BenchmarkExchangeScatter", exchangeScatterPlan, 3285},
	{"BenchmarkGroupedAgg", groupedAggPlan, 258754},
	{"BenchmarkWindowPartition", windowPartitionPlan, 115887},
	{"BenchmarkSortPartitions", sortPartitionsPlan, 69317},
	{"BenchmarkFilterKernel", kernelFilterPlan, 1185},
	{"BenchmarkProjectKernel", kernelProjectPlan, 1596},
	{"BenchmarkSamplerKernel", kernelSamplerPlan, 788},
	{"BenchmarkPreAggKernel", kernelPreAggPlan, 8533},
}

// TestHotPathAllocCeilings runs every gated plan under
// testing.AllocsPerRun and fails when a run allocates more than its
// ceiling, so per-row boxing cannot creep back into a sink, a scatter, a
// probe or a kernel without tier 1 noticing.
func TestHotPathAllocCeilings(t *testing.T) {
	// A benchmark whose row is dropped from hotPlans is no longer gated.
	if len(hotPlans) != 10 {
		t.Fatalf("hotPlans holds %d plans, want the 10 gated benchmarks", len(hotPlans))
	}
	for _, hp := range hotPlans {
		t.Run(hp.name, func(t *testing.T) {
			plan, rows := hp.build()
			got := testing.AllocsPerRun(3, func() {
				res, err := Run(plan, cluster.DefaultConfig())
				if err != nil {
					t.Error(err)
				} else if len(res.Rows) != rows {
					t.Errorf("%d result rows, want %d", len(res.Rows), rows)
				}
			})
			if got > hp.maxAllocs {
				t.Errorf("%.0f allocs/run, ceiling %.0f", got, hp.maxAllocs)
			}
		})
	}
}

// benchPlan times runs of build's plan.
func benchPlan(b *testing.B, build func() (PNode, int)) {
	plan, rows := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(plan, cluster.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != rows {
			b.Fatalf("%d result rows, want %d", len(res.Rows), rows)
		}
	}
}

func benchJoinPlan(broadcast bool) (PNode, int) {
	const parts, dimRows, factRows = 4, 2048, 32768
	dim, fact := benchTables(parts, dimRows, factRows)
	ls, rs := scanOf(fact), scanOf(dim)
	join := &PHashJoin{
		Kind: lplan.InnerJoin, Left: ls, Right: rs,
		LeftKeys:  []lplan.ColumnID{ls.OutCols[0].ID},
		RightKeys: []lplan.ColumnID{rs.OutCols[0].ID},
		Broadcast: broadcast,
	}
	return join, factRows
}

func joinBroadcastPlan() (PNode, int)     { return benchJoinPlan(true) }
func joinCoPartitionedPlan() (PNode, int) { return benchJoinPlan(false) }

// BenchmarkJoinBroadcast measures the broadcast hash join: the gathered
// build side is shared read-only across every probe task, and each
// probe task gathers its output columns once at their final size.
func BenchmarkJoinBroadcast(b *testing.B) { benchPlan(b, joinBroadcastPlan) }

// BenchmarkJoinCoPartitioned measures the co-partitioned hash join
// (per-task build over the task's co-located build partition).
func BenchmarkJoinCoPartitioned(b *testing.B) { benchPlan(b, joinCoPartitionedPlan) }

func exchangeScatterPlan() (PNode, int) {
	const parts, keys, rows = 4, 2048, 65536
	_, fact := benchTables(parts, keys, rows)
	scan := scanOf(fact)
	return &PExchange{In: scan, Keys: []lplan.ColumnID{scan.OutCols[0].ID, scan.OutCols[1].ID}, Parts: 8}, rows
}

// BenchmarkExchangeScatter measures a keyed exchange over a scan: every
// source task hashes the (int, string) key vectors of its batches and
// scatters lanes into eight destination builders, and the coordinator
// concatenates the pieces.
func BenchmarkExchangeScatter(b *testing.B) { benchPlan(b, exchangeScatterPlan) }

func groupedAggPlan() (PNode, int) {
	const parts, groups, rows = 4, 256, 65536
	_, fact := benchTables(parts, groups, rows)
	scan := scanOf(fact)
	k, s, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	nextID += 2
	return &PHashAgg{
		In:        scan,
		GroupCols: []lplan.ColumnID{k.ID, s.ID},
		GroupInfo: []lplan.ColumnInfo{k, s},
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggSum, Arg: v.ID, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "sum_v", Kind: table.KindFloat}},
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "cnt", Kind: table.KindInt}},
		},
	}, groups
}

// BenchmarkGroupedAgg measures the grouped-aggregation hot loop: one
// group lookup per input row (int + string group key) with SUM and
// COUNT accumulators. Already-seen groups must not allocate.
func BenchmarkGroupedAgg(b *testing.B) { benchPlan(b, groupedAggPlan) }

func windowPartitionPlan() (PNode, int) {
	const parts, groups, rows = 4, 64, 16384
	_, fact := benchTables(parts, groups, rows)
	scan := scanOf(fact)
	k, s, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	nextID += 2
	return &PWindow{
		In: scan,
		Specs: []lplan.WinSpec{
			{Kind: lplan.WinRank, Arg: lplan.NoColumn,
				PartitionBy: []lplan.ColumnID{k.ID, s.ID},
				OrderBy:     []lplan.SortKey{{Col: v.ID}},
				Out:         lplan.ColumnInfo{ID: nextID - 1, Name: "rnk", Kind: table.KindInt}},
			{Kind: lplan.WinSum, Arg: v.ID,
				PartitionBy: []lplan.ColumnID{k.ID, s.ID},
				OrderBy:     []lplan.SortKey{{Col: v.ID}},
				Out:         lplan.ColumnInfo{ID: nextID, Name: "run", Kind: table.KindFloat}},
		},
	}, rows
}

// BenchmarkWindowPartition measures window-function partitioning: rows
// are bucketed into window partitions (hash path), each partition
// sorted, and a rank plus a running sum computed.
func BenchmarkWindowPartition(b *testing.B) { benchPlan(b, windowPartitionPlan) }

func sortPartitionsPlan() (PNode, int) {
	const parts, groups, rows = 8, 512, 65536
	_, fact := benchTables(parts, groups, rows)
	scan := scanOf(fact)
	return &PSort{
		In: scan,
		Keys: []lplan.SortKey{
			{Col: scan.OutCols[2].ID, Desc: true},
			{Col: scan.OutCols[0].ID},
		},
	}, rows
}

// BenchmarkSortPartitions measures the per-partition sort (two keys,
// mixed direction) across independent partitions.
func BenchmarkSortPartitions(b *testing.B) { benchPlan(b, sortPartitionsPlan) }
