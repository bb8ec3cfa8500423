package exec

// Microbenchmarks for the executor's hottest paths — hash-join
// build/probe, the exchange scatter, grouped aggregation and window
// partitioning — plus the parallel sort. Run with -benchmem: allocs/op on these benchmarks is a
// gated regression surface (cmd/benchcheck -micro against the committed
// testdata/bench_baseline.json; see the bench-gate CI job).

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

func benchRun(b *testing.B, p PNode) *Result {
	b.Helper()
	res, err := Run(p, cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return res
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

// BenchmarkJoinBroadcast measures the broadcast hash join: the gathered
// build side is shared read-only across every probe task, and each
// probe task gathers its output columns once at their final size.
func BenchmarkJoinBroadcast(b *testing.B) {
	plan, rows := benchJoinPlan(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, plan)
		if len(res.Rows) != rows {
			b.Fatalf("join rows: %d want %d", len(res.Rows), rows)
		}
	}
}

// BenchmarkJoinCoPartitioned measures the co-partitioned hash join
// (per-task build over the task's co-located build partition).
func BenchmarkJoinCoPartitioned(b *testing.B) {
	plan, rows := benchJoinPlan(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, plan)
		if len(res.Rows) != rows {
			b.Fatalf("join rows: %d want %d", len(res.Rows), rows)
		}
	}
}

// BenchmarkExchangeScatter measures a keyed exchange over a scan: every
// source task hashes the (int, string) key vectors of its batches and
// scatters lanes into eight destination builders, and the coordinator
// concatenates the pieces.
func BenchmarkExchangeScatter(b *testing.B) {
	const parts, keys, rows = 4, 2048, 65536
	_, fact := benchTables(parts, keys, rows)
	scan := scanOf(fact)
	plan := &PExchange{In: scan, Keys: []lplan.ColumnID{scan.OutCols[0].ID, scan.OutCols[1].ID}, Parts: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, plan)
		if len(res.Rows) != rows {
			b.Fatalf("exchange rows: %d want %d", len(res.Rows), rows)
		}
	}
}

// BenchmarkGroupedAgg measures the grouped-aggregation hot loop: one
// group lookup per input row (int + string group key) with SUM and
// COUNT accumulators. Already-seen groups must not allocate.
func BenchmarkGroupedAgg(b *testing.B) {
	const parts, groups, rows = 4, 256, 65536
	_, fact := benchTables(parts, groups, rows)
	scan := scanOf(fact)
	k, s, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	nextID += 2
	agg := &PHashAgg{
		In:        scan,
		GroupCols: []lplan.ColumnID{k.ID, s.ID},
		GroupInfo: []lplan.ColumnInfo{k, s},
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggSum, Arg: v.ID, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "sum_v", Kind: table.KindFloat}},
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "cnt", Kind: table.KindInt}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, agg)
		if len(res.Rows) != groups {
			b.Fatalf("groups: %d want %d", len(res.Rows), groups)
		}
	}
}

// BenchmarkWindowPartition measures window-function partitioning: rows
// are bucketed into window partitions (hash path), each partition
// sorted, and a rank plus a running sum computed.
func BenchmarkWindowPartition(b *testing.B) {
	const parts, groups, rows = 4, 64, 16384
	_, fact := benchTables(parts, groups, rows)
	scan := scanOf(fact)
	k, s, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	nextID += 2
	win := &PWindow{
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
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, win)
		if len(res.Rows) != rows {
			b.Fatalf("window rows: %d want %d", len(res.Rows), rows)
		}
	}
}

// BenchmarkSortPartitions measures the per-partition sort (two keys,
// mixed direction) across independent partitions.
func BenchmarkSortPartitions(b *testing.B) {
	const parts, groups, rows = 8, 512, 65536
	_, fact := benchTables(parts, groups, rows)
	scan := scanOf(fact)
	srt := &PSort{
		In: scan,
		Keys: []lplan.SortKey{
			{Col: scan.OutCols[2].ID, Desc: true},
			{Col: scan.OutCols[0].ID},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, srt)
		if len(res.Rows) != rows {
			b.Fatalf("sort rows: %d want %d", len(res.Rows), rows)
		}
	}
}
