package exec

// Microbenchmarks for the executor's hottest paths — hash-join
// build/probe (a bare join of each shape on dense keys, one on keys too
// sparse to index, one on keys that are NULL, NaN or compared in float
// space, one without keys, and a star join whose three broadcast probes
// run in one fused chain), the keyed exchange (routed
// and gathered, and routed under the aggregate that folds it in place),
// grouped aggregation (a two-column key, a lone dictionary key, a lone
// integer key, a float and nullable string key, COUNT(DISTINCT) behind an
// exchange, MIN and MAX, a universe sample's estimator), the comparison
// kernels (a float range filter, and every operator over two int or two
// float columns), the distinct and universe samplers and window
// partitioning — plus the
// parallel sort; the four kernel plans live in bench_kernel_test.go. Every plan is built by one function that both
// its Benchmark (time, -benchmem) and TestHotPathAllocCeilings
// (allocations per run, tier 1) call, so the two measure the same thing.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/sampler"
	"quickr/internal/table"
)

// benchTables builds a dim table (one row per key) and a fact table
// (rows cycling over the keys), co-located so the same plan can run
// broadcast or co-partitioned. Keys mix an int and a string column so
// the hash paths see both fixed-width and variable-width values; key k's
// int is k·stride.
func benchTables(parts, dimRows, factRows int, stride int64) (dim, fact *table.Table) {
	sc := table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "v", Kind: table.KindFloat},
	)
	dim = table.New("bench_dim", sc, parts)
	for k := 0; k < dimRows; k++ {
		dim.Append(k, table.Row{
			table.NewInt(int64(k) * stride),
			table.NewString(fmt.Sprintf("key-%04d", k)),
			table.NewFloat(float64(k) * 0.5),
		})
	}
	fact = table.New("bench_fact", sc, parts)
	for i := 0; i < factRows; i++ {
		k := i % dimRows
		fact.Append(k, table.Row{
			table.NewInt(int64(k) * stride),
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
	maxBytes  uint64  // bytes a warm run allocates (warmRunBytes), held there too
}

// hotPlans is the gated surface. The ceilings are absolute counts, each
// 1.25× what a run of the plan allocated when the ceiling was last set:
// the two joins and the four kernels when every breaker went
// column-major (933, 922, 948, 1277, 631 — and 866 for the pre-aggregation
// kernel once the aggregate went typed), the exchange and the aggregate
// over it when the exchange stopped copying lanes into one builder per
// (source, destination) (996, 2253; the gathered exchange held 2628
// before), the three aggregations when the aggregate stopped boxing rows
// (821, 695, 911: builders, tables and accumulator columns per
// partition, nothing per row or per group), window and sort at the same
// time (2157, 971), the distinct sampler when it stopped boxing rows
// (2862), the star join when its probes moved into the fused chain
// (1930, 2089 under -race; 2086 when every join materialized its input
// and output), and COUNT(DISTINCT) over the exchange and the float range
// filter when keys were hashed once and compares dispatched once (1419,
// 582; 1497 and 599 under -race; the aggregate over the exchange rose
// from 1988 to 2007 then, a kept hash slice and a dictionary's code
// hashes per source), and the join on keys too sparse to index when
// lone narrow integer keys began to index (804, 834 under -race; the
// two bare joins and the star join, which index, then read 792, 865
// and 1890, down from 801, 891 and 1922, so their ceilings stay), and
// the universe sampler when it stopped boxing and hashing every lane
// (913, 961 under -race: the integer column's keys in the run's memo;
// 326 258 when each lane built its Values, key strings and a SHA-256
// state). A
// 16Ki–64Ki-row run that boxed one row per lane or
// allocated one object per group would add tens of thousands. Counts
// repeat to within ±6 at GOMAXPROCS 1, 2 and 8 (±25 for the aggregate
// over the exchange): pool scheduling is the only jitter. The -race
// build allocates 1–14% more (1034 on the integer keys, 962 on the
// pre-aggregation kernel, 2551 on the aggregate over the exchange), which
// the slack absorbs. (Once payloads came from the run's ledger a run
// allocated far fewer objects — 632, 755, 639, 505, 427, 633, 1614,
// 2034, 602, 590, 941, 267, 572, 2152, 1665, 1067, 541, 667 and 784 in
// table order — and the count ceilings stay.)
//
// maxBytes is 1.25× what a warm run of the plan allocated when payloads
// came from the run's ledger, the same at GOMAXPROCS 1, 2, 4 and 8
// (warmRunBytes; parent → then, in table order, 15.3 → 10.2, 15.6 → 10.2,
// 23.0 → 11.8, 0.27 → 0.25, 0.10 → 0.10, 10.0 → 8.2, 8.2 → 2.7,
// 10.3 → 8.3, 31.6 → 20.9, 8.9 → 5.5, 18.3 → 11.2, 2.13 → 1.23,
// 0.96 → 0.80, 3.30 → 2.03, 3.26 → 0.98, 13.9 → 6.8, 2.31 → 1.06,
// 15.4 → 10.3 and 4.07 → 2.35 MB; when the sort and the window
// functions stopped building a row view of each partition, 20.9 → 11.4
// and 9.4 → 7.0 MB, and their ceilings followed; when the distinct
// sampler fed its sketch once per prune window and passed lanes in
// place, it read 2 116 allocations and 2.01 MB a warm run, 2 115 and
// 2.02 MB before, and both its ceilings went to 1.25× those: 3 578 →
// 2 645 and 2 532 000 → 2 508 000). What is left is
// mostly the result's boxed rows and string dictionaries. A sink, a
// gather or a route that went back to fresh heap memory per run would
// add its partition's payload again. The -race build's sync.Pool drops
// a quarter of what it is given at random, so fewer slabs come back
// there (up to 1.7× the bytes, on the aggregate over the exchange) and
// the ceiling doubles.
//
// The last seven rows were added so that the gated plans run every loop
// of the functions whose allocations they guard: MIN and MAX, the
// column-vs-column and the =, <>, <= and > constant compares, join keys
// that are NULL, NaN or compared in float space, a float and a nullable
// dictionary group key through the exchange, a universe-sampled
// aggregate's subspace sums and a join without keys. On these plans the
// -race build allocates 10–30% more objects than the 1.25× slack of the
// plain build's count absorbs, so their count ceilings are 1.25× the
// larger of the two (580/675, 1075/1239, 1080/1233, 634/776, 749/971,
// 775/934 and 408/451 allocations at GOMAXPROCS 1, 2 and 8 / under
// -race), and their byte ceilings 1.25× the plain build's (283, 263, 263,
// 5 619, 3 301, 240 and 839 KB).
var hotPlans = []hotPlan{
	{"BenchmarkJoinBroadcast", joinBroadcastPlan, 1166, 12_748_000},
	{"BenchmarkJoinCoPartitioned", joinCoPartitionedPlan, 1152, 12_776_000},
	{"BenchmarkExchangeGather", exchangeGatherPlan, 1245, 14_723_000},
	{"BenchmarkGroupedAgg", groupedAggPlan, 1026, 312_000},
	{"BenchmarkAggDictKey", aggDictKeyPlan, 868, 130_000},
	{"BenchmarkAggIntKeys", aggIntKeysPlan, 1138, 10_211_000},
	{"BenchmarkAggOverExchange", aggOverExchangePlan, 2816, 3_337_000},
	{"BenchmarkWindowPartition", windowPartitionPlan, 2696, 8_774_000},
	{"BenchmarkSortPartitions", sortPartitionsPlan, 1213, 14_269_000},
	{"BenchmarkFilterKernel", kernelFilterPlan, 1185, 6_875_000},
	{"BenchmarkProjectKernel", kernelProjectPlan, 1596, 13_938_000},
	{"BenchmarkSamplerKernel", kernelSamplerPlan, 788, 1_539_000},
	{"BenchmarkPreAggKernel", kernelPreAggPlan, 1082, 995_000},
	{"BenchmarkDistinctSample", distinctSamplePlan, 2645, 2_508_000},
	{"BenchmarkStarJoin", starJoinPlan, 2413, 1_215_000},
	{"BenchmarkCountDistinctOverExchange", countDistinctOverExchangePlan, 1774, 8_514_000},
	{"BenchmarkCmpFloatConst", cmpFloatConstPlan, 728, 1_321_000},
	{"BenchmarkJoinSparseKeys", joinSparseKeysPlan, 1005, 12_852_000},
	{"BenchmarkUniverseSample", universeSamplePlan, 1141, 2_942_000},
	{"BenchmarkAggMinMax", aggMinMaxPlan, 844, 354_000},
	{"BenchmarkCmpIntCols", cmpIntColsPlan, 1549, 329_000},
	{"BenchmarkCmpFloatCols", cmpFloatColsPlan, 1541, 329_000},
	{"BenchmarkJoinNullKeys", joinNullKeysPlan, 970, 7_023_000},
	{"BenchmarkAggFloatKey", aggFloatKeyPlan, 1214, 4_126_000},
	{"BenchmarkUniverseAgg", universeAggPlan, 1168, 300_000},
	{"BenchmarkCrossJoin", crossJoinPlan, 564, 1_049_000},
}

// TestHotPathAllocCeilings runs every gated plan under
// testing.AllocsPerRun and fails when a run allocates more than its
// ceiling, so per-row boxing cannot creep back into a sink, a gather, a
// probe or a kernel without tier 1 noticing; then it holds the bytes a
// warm run allocates to maxBytes, so payloads cannot leave the run's
// ledger unnoticed either.
func TestHotPathAllocCeilings(t *testing.T) {
	// A benchmark whose row is dropped from hotPlans is no longer gated.
	if len(hotPlans) != 26 {
		t.Fatalf("hotPlans holds %d plans, want the 26 gated benchmarks", len(hotPlans))
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
			t.Logf("%.0f allocs/run, ceiling %.0f", got, hp.maxAllocs)
			if got > hp.maxAllocs {
				t.Errorf("%.0f allocs/run, ceiling %.0f", got, hp.maxAllocs)
			}
			bytes, ceiling := warmRunBytes(t, plan, rows), hp.maxBytes
			if poisonSlabs { // the -race build
				ceiling *= 2
			}
			t.Logf("%d bytes/warm run, ceiling %d", bytes, ceiling)
			if bytes > ceiling {
				t.Errorf("%d bytes/warm run, ceiling %d", bytes, ceiling)
			}
		})
	}
}

// warmRunBytes is what one run of plan allocates after an earlier run
// has filled the slab pools, with the collector off from that run on, so
// that it cannot drain them in between, and on one P: sync.Pool keeps
// one item per P that only that P can take, so on several Ps where the
// scheduler happened to put a slab decides whether the next run finds
// it.
func warmRunBytes(t *testing.T, plan PNode, rows int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.ReadMemStats(&before)
		if res, err := Run(plan, cluster.DefaultConfig()); err != nil {
			t.Fatal(err)
		} else if len(res.Rows) != rows {
			t.Fatalf("%d result rows, want %d", len(res.Rows), rows)
		}
		runtime.ReadMemStats(&after)
	}
	return after.TotalAlloc - before.TotalAlloc
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

func benchJoinPlan(broadcast bool, stride int64) (PNode, int) {
	const parts, dimRows, factRows = 4, 2048, 32768
	dim, fact := benchTables(parts, dimRows, factRows, stride)
	ls, rs := scanOf(fact), scanOf(dim)
	join := &PHashJoin{
		Kind: lplan.InnerJoin, Left: ls, Right: rs,
		LeftKeys:  []lplan.ColumnID{ls.OutCols[0].ID},
		RightKeys: []lplan.ColumnID{rs.OutCols[0].ID},
		Broadcast: broadcast,
	}
	return join, factRows
}

func joinBroadcastPlan() (PNode, int)     { return benchJoinPlan(true, 1) }
func joinCoPartitionedPlan() (PNode, int) { return benchJoinPlan(false, 1) }

// joinSparseKeysPlan is joinBroadcastPlan with the keys spread 2²⁰
// apart, far past the direct-address span bound, so the join hashes.
func joinSparseKeysPlan() (PNode, int) { return benchJoinPlan(true, 1<<20) }

// BenchmarkJoinBroadcast measures the broadcast hash join: the gathered
// build side is shared read-only across every probe task, each probe
// task gathers every scanned batch's matched pairs, and the sink appends
// them, sharing the build side's dictionary.
func BenchmarkJoinBroadcast(b *testing.B) { benchPlan(b, joinBroadcastPlan) }

// BenchmarkJoinCoPartitioned measures the co-partitioned hash join
// (per-task build over the task's co-located build partition).
func BenchmarkJoinCoPartitioned(b *testing.B) { benchPlan(b, joinCoPartitionedPlan) }

// BenchmarkJoinSparseKeys measures the broadcast join on keys too spread
// to index directly: the build resolves every row through a hashIndex
// and the probe hashes every lane and finds its id there.
func BenchmarkJoinSparseKeys(b *testing.B) { benchPlan(b, joinSparseKeysPlan) }

// starJoinPlan is the ad-hoc workload's star join: a fact table joined to
// three dimension tables (2048 items with a name, 64 stores with a
// number, 16 dates with one of four quarters), then Project → Exchange
// hash → HashAgg of the fact's measure per quarter, over four partitions.
func starJoinPlan() (PNode, int) {
	const parts, factRows = 4, 32768
	fact := table.New("bench_star_fact", table.NewSchema(
		table.Column{Name: "item", Kind: table.KindInt},
		table.Column{Name: "store", Kind: table.KindInt},
		table.Column{Name: "date", Kind: table.KindInt},
		table.Column{Name: "price", Kind: table.KindFloat},
	), parts)
	for i := 0; i < factRows; i++ {
		fact.Append(i, table.Row{table.NewInt(int64(i * 7919 % 2048)), table.NewInt(int64(i % 64)),
			table.NewInt(int64(i % 16)), table.NewFloat(float64(i%100) / 4)})
	}
	dim := func(name string, rows int, attr func(k int) table.Value) *PScan {
		tbl := table.New(name, table.NewSchema(
			table.Column{Name: "k", Kind: table.KindInt},
			table.Column{Name: "attr", Kind: attr(0).Kind()},
		), parts)
		for k := 0; k < rows; k++ {
			tbl.Append(k, table.Row{table.NewInt(int64(k)), attr(k)})
		}
		return scanOf(tbl)
	}
	dims := []*PScan{
		dim("bench_star_item", 2048, func(k int) table.Value { return table.NewString(fmt.Sprintf("item-%04d", k)) }),
		dim("bench_star_store", 64, func(k int) table.Value { return table.NewInt(int64(k % 10)) }),
		dim("bench_star_date", 16, func(k int) table.Value { return table.NewString(fmt.Sprintf("Q%d", k%4+1)) }),
	}
	fs := scanOf(fact)
	var in PNode = fs
	for j, d := range dims {
		in = &PHashJoin{Kind: lplan.InnerJoin, Left: in, Right: d, Broadcast: true,
			LeftKeys: []lplan.ColumnID{fs.OutCols[j].ID}, RightKeys: []lplan.ColumnID{d.OutCols[0].ID}}
	}
	quarter, price := dims[2].OutCols[1], fs.OutCols[3]
	proj := &PProject{In: in, Exprs: []lplan.Expr{
		&lplan.ColRef{ID: quarter.ID, Name: quarter.Name, Kind: quarter.Kind},
		&lplan.ColRef{ID: price.ID, Name: price.Name, Kind: price.Kind},
	}, OutCols: []lplan.ColumnInfo{quarter, price}}
	nextID += 2
	return &PHashAgg{
		In:        &PExchange{In: proj, Keys: []lplan.ColumnID{quarter.ID}, Parts: parts},
		GroupCols: []lplan.ColumnID{quarter.ID},
		GroupInfo: []lplan.ColumnInfo{quarter},
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggSum, Arg: price.ID, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "revenue", Kind: table.KindFloat}},
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "sales", Kind: table.KindInt}},
		},
	}, 4
}

// BenchmarkStarJoin measures the fact table streaming through three
// broadcast probes in one fused chain into the exchange's sources, with
// no join input or output materialized, and the aggregate over the
// routed exchange.
func BenchmarkStarJoin(b *testing.B) { benchPlan(b, starJoinPlan) }

func exchangeGatherPlan() (PNode, int) {
	const parts, keys, rows = 4, 2048, 65536
	_, fact := benchTables(parts, keys, rows, 1)
	scan := scanOf(fact)
	return &PExchange{In: scan, Keys: []lplan.ColumnID{scan.OutCols[0].ID, scan.OutCols[1].ID}, Parts: 8}, rows
}

// BenchmarkExchangeGather measures a keyed exchange over a scan with a
// consumer that needs its output built: the scan sinks into one
// partition per source, one pass hashes the (int, string) key vectors
// and routes the lanes, and each of the eight destinations gathers its
// lanes once into columns of their final size.
func BenchmarkExchangeGather(b *testing.B) { benchPlan(b, exchangeGatherPlan) }

func groupedAggPlan() (PNode, int) {
	const parts, groups, rows = 4, 256, 65536
	_, fact := benchTables(parts, groups, rows, 1)
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

// aggDictKeyPlan is the benchmark's h01 shape: a lone dictionary-coded
// string key of 3 groups under SUM, SUM, AVG and COUNT.
func aggDictKeyPlan() (PNode, int) {
	const parts, groups, rows = 4, 3, 65536
	tbl := table.New("bench_flags", table.NewSchema(
		table.Column{Name: "flag", Kind: table.KindString},
		table.Column{Name: "qty", Kind: table.KindFloat},
		table.Column{Name: "price", Kind: table.KindFloat},
		table.Column{Name: "disc", Kind: table.KindFloat},
	), parts)
	for i := 0; i < rows; i++ {
		tbl.Append(i, table.Row{
			table.NewString([]string{"A", "N", "R"}[i%groups]),
			table.NewFloat(float64(i % 50)),
			table.NewFloat(float64(i) * 0.25),
			table.NewFloat(float64(i%11) / 100),
		})
	}
	scan := scanOf(tbl)
	c := scan.OutCols
	agg := &PHashAgg{In: scan, GroupCols: []lplan.ColumnID{c[0].ID}, GroupInfo: c[:1]}
	for j, spec := range []lplan.AggSpec{
		{Kind: lplan.AggSum, Arg: c[1].ID}, {Kind: lplan.AggSum, Arg: c[2].ID},
		{Kind: lplan.AggAvg, Arg: c[3].ID}, {Kind: lplan.AggCount, Arg: lplan.NoColumn},
	} {
		nextID++
		spec.Cond = lplan.NoColumn
		spec.Out = lplan.ColumnInfo{ID: nextID, Name: fmt.Sprintf("a%d", j), Kind: table.KindFloat}
		agg.Aggs = append(agg.Aggs, spec)
	}
	return agg, parts * groups // every partition meets every flag
}

// BenchmarkAggDictKey measures the aggregate over a lone dictionary
// key: group ids come from a per-dictionary-code cache, and four
// accumulator loops run over them.
func BenchmarkAggDictKey(b *testing.B) { benchPlan(b, aggDictKeyPlan) }

// aggIntKeysPlan is the benchmark's o07 shape: a lone integer key of
// 20 480 groups under COUNT, so most lanes of a batch meet another group.
func aggIntKeysPlan() (PNode, int) {
	const parts, groups, rows = 4, 20480, 65536
	tbl := table.New("bench_uids", table.NewSchema(table.Column{Name: "uid", Kind: table.KindInt}), parts)
	for i := 0; i < rows; i++ {
		k := i * 7919 % groups
		tbl.Append(k, table.Row{table.NewInt(int64(k))})
	}
	scan := scanOf(tbl)
	nextID++
	return &PHashAgg{
		In: scan, GroupCols: []lplan.ColumnID{scan.OutCols[0].ID}, GroupInfo: scan.OutCols,
		Aggs: []lplan.AggSpec{{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn,
			Out: lplan.ColumnInfo{ID: nextID, Name: "hits", Kind: table.KindInt}}},
	}, groups
}

// BenchmarkAggIntKeys measures the aggregate over a lone integer key of
// many groups: a closure-free probe per lane, keys and counts in typed
// columns indexed by group id.
func BenchmarkAggIntKeys(b *testing.B) { benchPlan(b, aggIntKeysPlan) }

// aggOverExchangePlan is the shape the planner emits for a grouped
// aggregate: Scan -> Project -> Exchange hash -> HashAgg, eight sources
// into eight destinations, grouped by an integer key of many groups and
// a dictionary key of few, under SUM and COUNT.
func aggOverExchangePlan() (PNode, int) {
	const parts, uids, rows = 8, 4096, 65536
	flags := []string{"GET", "POST", "PUT"}
	tbl := table.New("bench_hits", table.NewSchema(
		table.Column{Name: "uid", Kind: table.KindInt},
		table.Column{Name: "method", Kind: table.KindString},
		table.Column{Name: "ms", Kind: table.KindFloat},
		table.Column{Name: "unread", Kind: table.KindString},
	), parts)
	for i := 0; i < rows; i++ {
		uid := i * 7919 % uids
		tbl.Append(i, table.Row{
			table.NewInt(int64(uid)), table.NewString(flags[uid%len(flags)]),
			table.NewFloat(float64(i % 500)), table.NewString("/index.html"),
		})
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	proj := &PProject{In: scan, OutCols: scan.OutCols[:3]}
	for _, c := range proj.OutCols {
		proj.Exprs = append(proj.Exprs, &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind})
	}
	k, s, v := proj.OutCols[0], proj.OutCols[1], proj.OutCols[2]
	nextID += 2
	return &PHashAgg{
		In:        &PExchange{In: proj, Keys: []lplan.ColumnID{k.ID, s.ID}, Parts: parts},
		GroupCols: []lplan.ColumnID{k.ID, s.ID},
		GroupInfo: []lplan.ColumnInfo{k, s},
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggSum, Arg: v.ID, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "sum_ms", Kind: table.KindFloat}},
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "hits", Kind: table.KindInt}},
		},
	}, uids
}

// BenchmarkAggOverExchange measures the grouped aggregate behind its
// keyed exchange: the sources materialize once, one pass routes their
// lanes, and the destinations' runners fold the routed lanes in place.
func BenchmarkAggOverExchange(b *testing.B) { benchPlan(b, aggOverExchangePlan) }

// countDistinctOverExchangePlan is the benchmark's o04 shape: Scan ->
// Exchange hash on a lone dictionary key of 12 strings -> HashAgg
// COUNT(DISTINCT) of an integer column of 20 480 values per string,
// eight sources into eight destinations.
func countDistinctOverExchangePlan() (PNode, int) {
	const parts, groups, rows = 8, 12, 65536
	tbl := table.New("bench_visits", table.NewSchema(
		table.Column{Name: "country", Kind: table.KindString},
		table.Column{Name: "uid", Kind: table.KindInt},
	), parts)
	for i := 0; i < rows; i++ {
		tbl.Append(i, table.Row{table.NewString(fmt.Sprintf("c%02d", i%groups)), table.NewInt(int64(i * 7919 % 20480))})
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	c, u := scan.OutCols[0], scan.OutCols[1]
	nextID++
	return &PHashAgg{
		In:        &PExchange{In: scan, Keys: []lplan.ColumnID{c.ID}, Parts: parts},
		GroupCols: []lplan.ColumnID{c.ID},
		GroupInfo: []lplan.ColumnInfo{c},
		Aggs: []lplan.AggSpec{{Kind: lplan.AggCountDistinct, Arg: u.ID, Cond: lplan.NoColumn,
			Out: lplan.ColumnInfo{ID: nextID, Name: "users", Kind: table.KindInt}}},
	}, groups
}

// BenchmarkCountDistinctOverExchange measures COUNT(DISTINCT) behind its
// keyed exchange: string keys routed by a hash per dictionary code, the
// group table resolving ids from the routing hashes, and the (group,
// value) set hashing only the value per lane.
func BenchmarkCountDistinctOverExchange(b *testing.B) { benchPlan(b, countDistinctOverExchangePlan) }

// cmpFloatConstPlan is the benchmark's o05/h06 filter: a range of a
// NULL-free float column, one bound a float constant and one an int,
// that one lane in six passes.
func cmpFloatConstPlan() (PNode, int) {
	const parts, rows = 4, 65536
	tbl := table.New("bench_prices", table.NewSchema(table.Column{Name: "price", Kind: table.KindFloat}), parts)
	pass := 0
	for i := 0; i < rows; i++ {
		price := float64(i%1000) / 4
		tbl.Append(i, table.Row{table.NewFloat(price)})
		if price >= 10 && price < 50.5 {
			pass++
		}
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	v := &lplan.ColRef{ID: scan.OutCols[0].ID, Name: "price", Kind: table.KindFloat}
	return &PFilter{In: scan, Pred: &lplan.Binary{Op: lplan.OpAnd,
		L: &lplan.Binary{Op: lplan.OpLt, L: v, R: &lplan.Const{Val: table.NewFloat(50.5)}},
		R: &lplan.Binary{Op: lplan.OpGe, L: v, R: &lplan.Const{Val: table.NewInt(10)}},
	}}, pass
}

// BenchmarkCmpFloatConst measures the comparison kernels' loops that
// switch on the operator once per batch, and the AND over their results.
func BenchmarkCmpFloatConst(b *testing.B) { benchPlan(b, cmpFloatConstPlan) }

// distinctSamplePlan is the benchmark's d03 shape: Scan -> Project of a
// dictionary string and three boolean predicates -> Sample DISTINCT
// (δ=30, p=0.1) stratified on all four, over eight partitions. Twelve
// strings × three latency bands put every stratum of a partition past
// its reservoir into the probabilistic mode.
func distinctSamplePlan() (PNode, int) {
	const parts, rows = 8, 65536
	tbl := table.New("bench_logs", table.NewSchema(
		table.Column{Name: "country", Kind: table.KindString},
		table.Column{Name: "latency", Kind: table.KindFloat},
	), parts)
	for i := 0; i < rows; i++ {
		tbl.Append(i, table.Row{
			table.NewString(fmt.Sprintf("c%02d", i%12)),
			table.NewFloat(float64(i*7919%1000) / 2.5),
		})
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	c, l := scan.OutCols[0], scan.OutCols[1]
	lat := &lplan.ColRef{ID: l.ID, Name: l.Name, Kind: l.Kind}
	cmp := func(op lplan.BinOp, x float64) lplan.Expr {
		return &lplan.Binary{Op: op, L: lat, R: &lplan.Const{Val: table.NewFloat(x)}}
	}
	proj := &PProject{In: scan, Exprs: []lplan.Expr{
		&lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind},
		cmp(lplan.OpLt, 50),
		&lplan.Binary{Op: lplan.OpAnd, L: cmp(lplan.OpGe, 50), R: cmp(lplan.OpLt, 200)},
		cmp(lplan.OpGe, 200),
	}, OutCols: []lplan.ColumnInfo{c}}
	for _, name := range []string{"fast", "ok", "slow"} {
		nextID++
		proj.OutCols = append(proj.OutCols, lplan.ColumnInfo{ID: nextID, Name: name, Kind: table.KindBool})
	}
	return distinctOver(proj, 0.1, 30, []int{0, 1, 2, 3}, nil, nil), 6969
}

// universeSamplePlan is the ad-hoc workload's universe shape (q07, q38):
// 64 Ki fact rows over four partitions whose FK int column takes 3 000
// keys, one per customer, and whose dictionary string column takes as
// many; one universe sampler (p = 0.1) over each column, the two samples
// unioned.
func universeSamplePlan() (PNode, int) {
	const parts, keys, rows, p, seed = 4, 3000, 65536, 0.1, 31
	tbl := table.New("bench_universe", table.NewSchema(
		table.Column{Name: "cust", Kind: table.KindInt},
		table.Column{Name: "cust_id", Kind: table.KindString},
	), parts)
	row := func(k int) table.Row {
		return table.Row{table.NewInt(int64(k)), table.NewString(fmt.Sprintf("CUST%05d", k))}
	}
	// A key's rows pass together: count them per key, by the definition.
	perKey := make([]int, keys+1)
	for i := 0; i < rows; i++ {
		k := i*7919%keys + 1
		tbl.Append(i, row(k))
		perKey[k]++
	}
	tbl.EnsureColumnar()
	u, pass := sampler.NewUniverse(p, nil, seed), 0
	for k := 1; k <= keys; k++ {
		for _, v := range row(k) {
			h := sampler.HashValues([]table.Value{v}, seed)
			pass += perKey[k] * len(u.AdmitBatch([]int32{0}, []float64{1}, []uint64{h}))
		}
	}
	var ins []PNode
	for c := 0; c < 2; c++ {
		scan := scanOf(tbl)
		ins = append(ins, &PSample{In: scan, Def: lplan.SamplerDef{
			Type: lplan.SamplerUniverse, P: p, Cols: []lplan.ColumnID{scan.OutCols[c].ID}, Seed: seed}})
	}
	return &PUnion{Ins: ins, OutCols: ins[0].Cols()}, pass
}

// BenchmarkUniverseSample measures the universe sampler on a lone key:
// the integer column's coordinates from the run's memo, the string
// column's hashed lane by lane, and the admit loop.
func BenchmarkUniverseSample(b *testing.B) { benchPlan(b, universeSamplePlan) }

// BenchmarkDistinctSample measures the distinct sampler over key
// vectors: stratum ids from the string and boolean key vectors, the
// admit loop, and each batch's output built in emission order from the
// input batch and the reservoirs' hold store.
func BenchmarkDistinctSample(b *testing.B) { benchPlan(b, distinctSamplePlan) }

func windowPartitionPlan() (PNode, int) {
	const parts, groups, rows = 4, 64, 16384
	_, fact := benchTables(parts, groups, rows, 1)
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
	_, fact := benchTables(parts, groups, rows, 1)
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

// aggMinMaxPlan is a grouped MIN and MAX beside a COUNT(DISTINCT): 16
// dictionary groups over four partitions, each partition meeting four,
// with MIN of a float column that is NULL one lane in thirteen, MAX of a
// string column and COUNT(DISTINCT) of that string, whose pair hashes
// take the lane-by-lane path.
func aggMinMaxPlan() (PNode, int) {
	const parts, groups, rows = 4, 16, 65536
	tbl := table.New("bench_minmax", table.NewSchema(
		table.Column{Name: "g", Kind: table.KindString},
		table.Column{Name: "v", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
	), parts)
	for i := 0; i < rows; i++ {
		v := table.NewFloat(float64(i*7919%1000) / 4)
		if i%13 == 0 {
			v = table.Value{}
		}
		tbl.Append(i, table.Row{table.NewString(fmt.Sprintf("g%02d", i%groups)), v, table.NewString(fmt.Sprintf("s%03d", i%300))})
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	g, v, s := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	agg := &PHashAgg{In: scan, GroupCols: []lplan.ColumnID{g.ID}, GroupInfo: []lplan.ColumnInfo{g}}
	for _, spec := range []lplan.AggSpec{
		{Kind: lplan.AggMin, Arg: v.ID, Out: lplan.ColumnInfo{Name: "lo", Kind: table.KindFloat}},
		{Kind: lplan.AggMax, Arg: s.ID, Out: lplan.ColumnInfo{Name: "hi", Kind: table.KindString}},
		{Kind: lplan.AggCountDistinct, Arg: s.ID, Out: lplan.ColumnInfo{Name: "ds", Kind: table.KindInt}},
	} {
		nextID++
		spec.Cond, spec.Out.ID = lplan.NoColumn, nextID
		agg.Aggs = append(agg.Aggs, spec)
	}
	return agg, groups // partition i%4 meets the groups g ≡ i (mod 4)
}

// BenchmarkAggMinMax measures the aggregate's MIN and MAX loop, which
// compares each lane's value with its group's, and COUNT(DISTINCT) of a
// string column.
func BenchmarkAggMinMax(b *testing.B) { benchPlan(b, aggMinMaxPlan) }

// cmpColsPlan counts, in a global aggregate per partition, the lanes where each of
// the six comparisons of column a with column b holds and where a
// compared with a constant by =, <>, <= and > does: 64 Ki lanes of the
// given kind over four partitions.
func cmpColsPlan(kind table.Kind) (PNode, int) {
	const parts, rows = 4, 65536
	tbl := table.New("bench_cmp_cols", table.NewSchema(
		table.Column{Name: "a", Kind: kind},
		table.Column{Name: "b", Kind: kind},
	), parts)
	for i := 0; i < rows; i++ {
		tbl.Append(i, table.Row{table.NewInt(int64(i % 100)), table.NewInt(int64(i * 7919 % 100))})
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	col := func(c int) lplan.Expr {
		return &lplan.ColRef{ID: scan.OutCols[c].ID, Name: scan.OutCols[c].Name, Kind: kind}
	}
	c := &lplan.Const{Val: table.NewInt(50)}
	proj := &PProject{In: scan}
	agg := &PHashAgg{In: proj, Top: true}
	for _, e := range []lplan.Expr{
		&lplan.Binary{Op: lplan.OpEq, L: col(0), R: col(1)},
		&lplan.Binary{Op: lplan.OpNe, L: col(0), R: col(1)},
		&lplan.Binary{Op: lplan.OpLt, L: col(0), R: col(1)},
		&lplan.Binary{Op: lplan.OpLe, L: col(0), R: col(1)},
		&lplan.Binary{Op: lplan.OpGt, L: col(0), R: col(1)},
		&lplan.Binary{Op: lplan.OpGe, L: col(0), R: col(1)},
		&lplan.Binary{Op: lplan.OpEq, L: col(0), R: c},
		&lplan.Binary{Op: lplan.OpNe, L: col(0), R: c},
		&lplan.Binary{Op: lplan.OpLe, L: col(0), R: c},
		&lplan.Binary{Op: lplan.OpGt, L: col(0), R: c},
	} {
		nextID += 2
		cond := lplan.ColumnInfo{ID: nextID - 1, Name: fmt.Sprintf("c%d", len(proj.Exprs)), Kind: table.KindBool}
		proj.Exprs, proj.OutCols = append(proj.Exprs, e), append(proj.OutCols, cond)
		agg.Aggs = append(agg.Aggs, lplan.AggSpec{Kind: lplan.AggCountIf, Arg: lplan.NoColumn, Cond: cond.ID,
			Out: lplan.ColumnInfo{ID: nextID, Name: "n" + cond.Name, Kind: table.KindInt}})
	}
	return agg, parts // one global row per partition: no exchange gathers them
}

func cmpIntColsPlan() (PNode, int)   { return cmpColsPlan(table.KindInt) }
func cmpFloatColsPlan() (PNode, int) { return cmpColsPlan(table.KindFloat) }

// BenchmarkCmpIntCols measures the integer comparison kernels of two
// columns and of a column and a constant, one loop per operator.
func BenchmarkCmpIntCols(b *testing.B) { benchPlan(b, cmpIntColsPlan) }

// BenchmarkCmpFloatCols is BenchmarkCmpIntCols over float columns.
func BenchmarkCmpFloatCols(b *testing.B) { benchPlan(b, cmpFloatColsPlan) }

// joinNullKeysPlan is a broadcast join on two keys that can fail to
// match: the fact's string key is NULL one row in nine, and its float
// key, joined to the dimension's integer key in float space, is NULL
// one row in seven and NaN one row in eleven.
func joinNullKeysPlan() (PNode, int) {
	const parts, dimRows, factRows = 4, 2048, 32768
	sc := table.NewSchema(
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "k", Kind: table.KindInt},
	)
	dim := table.New("bench_null_dim", sc, parts)
	for k := 0; k < dimRows; k++ {
		dim.Append(k, table.Row{table.NewString(fmt.Sprintf("key-%04d", k)), table.NewInt(int64(k))})
	}
	fact := table.New("bench_null_fact", table.NewSchema(
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "f", Kind: table.KindFloat},
	), parts)
	match := 0
	for i := 0; i < factRows; i++ {
		k := i % dimRows
		s, f := table.NewString(fmt.Sprintf("key-%04d", k)), table.NewFloat(float64(k))
		switch {
		case i%9 == 0:
			s = table.Value{}
		case i%7 == 0:
			f = table.Value{}
		case i%11 == 0:
			f = table.NewFloat(math.NaN())
		default:
			match++
		}
		fact.Append(i, table.Row{s, f})
	}
	ls, rs := scanOf(fact), scanOf(dim)
	return &PHashJoin{
		Kind: lplan.InnerJoin, Left: ls, Right: rs, Broadcast: true,
		LeftKeys:  []lplan.ColumnID{ls.OutCols[0].ID, ls.OutCols[1].ID},
		RightKeys: []lplan.ColumnID{rs.OutCols[0].ID, rs.OutCols[1].ID},
	}, match
}

// BenchmarkJoinNullKeys measures the join's key forms: the lanes whose
// keys can match are kept, a float key is keyed by its bits and an
// integer key by the bits of its float, and the probe hashes the kept
// lanes only.
func BenchmarkJoinNullKeys(b *testing.B) { benchPlan(b, joinNullKeysPlan) }

// aggFloatKeyPlan groups by a float column and a string column that is
// NULL one row in five, behind a keyed exchange on both: 2048 float
// values × 3 strings and NULL.
func aggFloatKeyPlan() (PNode, int) {
	const parts, rows = 4, 65536
	tbl := table.New("bench_float_key", table.NewSchema(
		table.Column{Name: "f", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
	), parts)
	groups := map[[2]int]bool{}
	for i := 0; i < rows; i++ {
		f, s, si := table.NewFloat(float64(i%2048)/4), table.NewString(fmt.Sprintf("s%d", i%3)), i%3
		if i%5 == 0 {
			s, si = table.Value{}, -1
		}
		tbl.Append(i, table.Row{f, s})
		groups[[2]int{i % 2048, si}] = true
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	f, s := scan.OutCols[0], scan.OutCols[1]
	nextID++
	return &PHashAgg{
		In:        &PExchange{In: scan, Keys: []lplan.ColumnID{f.ID, s.ID}, Parts: parts},
		GroupCols: []lplan.ColumnID{f.ID, s.ID},
		GroupInfo: []lplan.ColumnInfo{f, s},
		Aggs: []lplan.AggSpec{{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn,
			Out: lplan.ColumnInfo{ID: nextID, Name: "n", Kind: table.KindInt}}},
	}, len(groups)
}

// BenchmarkAggFloatKey measures a float and a nullable dictionary group
// key: the exchange hashes the float lane by lane and the string by its
// codes, and the group table compares float keys by their key forms.
func BenchmarkAggFloatKey(b *testing.B) { benchPlan(b, aggFloatKeyPlan) }

// universeAggPlan is universeSamplePlan's integer sample under its
// estimating aggregate: SUM and COUNT per one of 8 dictionary groups,
// whose variance is summed over the universe subspaces, so each lane
// also lands in its (group, subspace) partial sum.
func universeAggPlan() (PNode, int) {
	const parts, keys, rows, p, seed = 4, 3000, 65536, 0.1, 31
	tbl := table.New("bench_universe_agg", table.NewSchema(
		table.Column{Name: "cust", Kind: table.KindInt},
		table.Column{Name: "g", Kind: table.KindString},
		table.Column{Name: "v", Kind: table.KindFloat},
	), parts)
	for i := 0; i < rows; i++ {
		tbl.Append(i, table.Row{table.NewInt(int64(i*7919%keys + 1)), table.NewString(fmt.Sprintf("g%d", i%8)), table.NewFloat(float64(i % 100))})
	}
	tbl.EnsureColumnar()
	scan := scanOf(tbl)
	cust, g, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
	smp := &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniverse, P: p, Cols: []lplan.ColumnID{cust.ID}, Seed: seed}}
	nextID += 2
	return &PHashAgg{
		In:        &PExchange{In: smp, Keys: []lplan.ColumnID{g.ID}, Parts: parts},
		GroupCols: []lplan.ColumnID{g.ID},
		GroupInfo: []lplan.ColumnInfo{g},
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggSum, Arg: v.ID, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "sum_v", Kind: table.KindFloat}},
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "n", Kind: table.KindInt}},
		},
		Est: &EstimatorConfig{Type: lplan.SamplerUniverse, P: p, UniverseCols: []lplan.ColumnID{cust.ID}},
		Top: true,
	}, 8
}

// BenchmarkUniverseAgg measures the aggregate over a universe sample:
// besides its group, every lane is resolved to its universe subspace and
// folded into the (group, subspace) partial sums.
func BenchmarkUniverseAgg(b *testing.B) { benchPlan(b, universeAggPlan) }

// crossJoinPlan is a join with no keys, 256 rows by 16, whose build side
// carries an all-NULL column: every probe lane meets every build row, and
// the gather copies the NULL column's lanes as NULLs.
func crossJoinPlan() (PNode, int) {
	const parts, left, right = 4, 256, 16
	sc := table.NewSchema(table.Column{Name: "k", Kind: table.KindInt})
	lt, rt := table.New("bench_cross_l", sc, parts), table.New("bench_cross_r", sc, 1)
	for i := 0; i < left; i++ {
		lt.Append(i, table.Row{table.NewInt(int64(i))})
	}
	for i := 0; i < right; i++ {
		rt.Append(i, table.Row{table.NewInt(int64(i))})
	}
	rs := scanOf(rt)
	nextID++
	proj := &PProject{In: rs, Exprs: []lplan.Expr{
		&lplan.ColRef{ID: rs.OutCols[0].ID, Name: "k", Kind: table.KindInt},
		&lplan.Const{Val: table.Value{}},
	}, OutCols: []lplan.ColumnInfo{rs.OutCols[0], {ID: nextID, Name: "none", Kind: table.KindNull}}}
	return &PHashJoin{Kind: lplan.InnerJoin, Left: scanOf(lt), Right: proj, Broadcast: true}, left * right
}

// BenchmarkCrossJoin measures a join without keys: one build tuple, and
// every probe lane gathered against every build row.
func BenchmarkCrossJoin(b *testing.B) { benchPlan(b, crossJoinPlan) }
