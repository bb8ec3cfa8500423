package main

import "encoding/json"

// metricSpec names one reported metric. BENCHMARK.json at the root of
// the repository is `benchmark -describe`, written from these tables;
// TestBenchmarkJSONMatchesSpec keeps the file in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a metric that is a function of the seed alone and
	// must read the same on every run with that seed.
	Exact bool
}

// endToEnd are the metrics a user of the engine sees. Every workload
// reports every one of them, measured with no tracing. The first nine
// are times and rates and vary from run to run; the last five are
// functions of (sql, data, sampler seed) only and repeat exactly for a
// given -seed.
var endToEnd = []metricSpec{
	// Median over the run's set-ups of: generate the inputs, register them, one untimed warm-up pass.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median over passes of the summed Exec wall of the workload's exact statements.
	{Name: "exact_suite_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median over passes of the summed ExecApprox wall of the workload's approx statements.
	{Name: "approx_suite_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median over passes of pre-step (SetSeed or Insert) + exact suite + approx suite.
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Geometric mean over statements of the statement's median Exec wall.
	{Name: "exact_latency_ms_gmean", Unit: "ms", Better: "lower", Bound: 0.25},
	// Geometric mean over statements of the statement's median ExecApprox wall.
	{Name: "approx_latency_ms_gmean", Unit: "ms", Better: "lower", Bound: 0.25},
	// 90th percentile of all timed ExecApprox calls: the heavy statements
	// on the ad-hoc workloads, the tail under contention on the serving ones.
	{Name: "approx_latency_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	// Summed over clients: completed calls / time the client spent inside the engine.
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	// Getrusage user+sys over the timed section / calls: the measured analogue of the paper's machine-hours.
	{Name: "cpu_s_per_query", Unit: "s", Better: "lower", Bound: 0.25},
	// Exact groups present in the approx answer, sampled statements, pooled over the accuracy passes.
	{Name: "groups_found_pct", Unit: "%", Better: "higher", Bound: 0.02, Exact: true},
	// Median relative error of aggregate cells against the exact answer.
	{Name: "agg_error_pct_p50", Unit: "%", Better: "lower", Bound: 0.25, Exact: true},
	// 90th percentile of the same.
	{Name: "agg_error_pct_p90", Unit: "%", Better: "lower", Bound: 0.25, Exact: true},
	// Cells carrying a CI whose |approx-exact| <= CI95.
	{Name: "ci95_coverage_pct", Unit: "%", Better: "higher", Bound: 0.05, Exact: true},
	// Median CI95/|exact|: the two-sided partner of coverage.
	{Name: "ci95_rel_width_pct_p50", Unit: "%", Better: "lower", Bound: 0.25, Exact: true},
}

// opKinds are the operator classes whose time the traced run reports,
// per execution mode, from metrics.Op.WallNanos grouped by Op.Kind.
var opKinds = []string{"scan", "filter", "project", "sample", "hashjoin", "hashagg", "exchange", "sort", "other"}

// perLayer are the traced run's metrics, one group per layer. They have
// no bound; README.md records which end-to-end metric each should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	l := []metricSpec{
		// Front end: mean per staged call.
		{Name: "sql.parse_us", Unit: "us", Better: "lower"},
		{Name: "catalog.bind_us", Unit: "us", Better: "lower"},
		{Name: "opt.normalize_us", Unit: "us", Better: "lower"},
		{Name: "core.place_us", Unit: "us", Better: "lower"},
		{Name: "accuracy.analyze_us", Unit: "us", Better: "lower"},
		{Name: "plancheck.logical_us", Unit: "us", Better: "lower"},
		{Name: "plancheck.physical_us", Unit: "us", Better: "lower"},
		{Name: "opt.plan_us", Unit: "us", Better: "lower"},
		{Name: "pool.gate_acquire_us", Unit: "us", Better: "lower"},
		{Name: "stats.collect_ms", Unit: "ms", Better: "lower"},
		// Executor.
		{Name: "exec.run_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.rows_per_s", Unit: "1/s", Better: "higher"},
	}
	for _, mode := range []string{"exact", "approx"} {
		l = append(l, metricSpec{Name: "exec." + mode + ".run_ms", Unit: "ms", Better: "lower"})
		for _, k := range opKinds {
			l = append(l, metricSpec{Name: "exec." + mode + ".op." + k + "_ms", Unit: "ms", Better: "lower"})
		}
		l = append(l, metricSpec{Name: "exec." + mode + ".unattributed_ms", Unit: "ms", Better: "lower"})
	}
	return append(l, []metricSpec{
		// Samplers and ASALQA's choices.
		{Name: "sampler.rows_seen", Unit: "count", Better: "lower"},
		{Name: "sampler.rows_passed", Unit: "count", Better: "lower"},
		{Name: "sampler.pass_rate_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.sampled_queries", Unit: "count", Better: "higher"},
		{Name: "core.unapproximable_queries", Unit: "count", Better: "lower"},
		{Name: "core.sampler_uniform", Unit: "count", Better: "higher"},
		{Name: "core.sampler_distinct", Unit: "count", Better: "higher"},
		{Name: "core.sampler_universe", Unit: "count", Better: "higher"},
		{Name: "core.effective_p_p50", Unit: "ratio", Better: "lower"},
		// Worker pool and admission gate, under the workload's clients.
		{Name: "pool.tasks", Unit: "count", Better: "lower"},
		{Name: "pool.stolen", Unit: "count", Better: "higher"},
		{Name: "pool.wait_ms", Unit: "ms", Better: "lower"},
		{Name: "pool.gate_queued_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.peak_inflight_mb", Unit: "MB", Better: "lower"},
		// Engine: what the staged calls do not cover, and memory.
		{Name: "engine.plan_cache_hits", Unit: "count", Better: "higher"},
		{Name: "engine.plan_cache_misses", Unit: "count", Better: "lower"},
		{Name: "engine.unattributed_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.alloc_mb_per_query", Unit: "MB", Better: "lower"},
		{Name: "engine.allocs_per_query", Unit: "count", Better: "lower"},
		{Name: "engine.live_heap_mb", Unit: "MB", Better: "lower"},
		{Name: "engine.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "engine.wall_speedup", Unit: "ratio", Better: "higher"},
		// Contract runner.
		{Name: "contract.attempts_per_query", Unit: "count", Better: "lower"},
		{Name: "contract.escalations", Unit: "count", Better: "lower"},
		{Name: "contract.exact_fallbacks", Unit: "count", Better: "lower"},
		{Name: "contract.history_hits", Unit: "count", Better: "higher"},
		{Name: "contract.chosen_p_p50", Unit: "ratio", Better: "lower"},
		// Table storage.
		{Name: "table.append_rows_per_s", Unit: "1/s", Better: "higher"},
		{Name: "table.columnarize_ms", Unit: "ms", Better: "lower"},
		{Name: "table.summaries_ms", Unit: "ms", Better: "lower"},
		{Name: "table.bytes_mb", Unit: "MB", Better: "lower"},
		// Cluster simulator: plan quality (Fig. 8a) and its calibration.
		{Name: "cluster.sim_machine_hours_gain_p50", Unit: "ratio", Better: "higher"},
		{Name: "cluster.sim_runtime_gain_p50", Unit: "ratio", Better: "higher"},
		{Name: "cluster.sim_intermediate_gain_p50", Unit: "ratio", Better: "higher"},
		{Name: "cluster.sim_shuffled_gain_p50", Unit: "ratio", Better: "higher"},
		{Name: "cluster.sim_passes_approx", Unit: "count", Better: "lower"},
		{Name: "cluster.sim_vs_wall_rank_corr", Unit: "ratio", Better: "higher"},
		// Opt-in configuration points, one approx pass by one client each;
		// exec.default.run_ms is the same pass under the defaults, the
		// number to hold the others against.
		{Name: "exec.default.run_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.columnar.run_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.columnar.kernel_lanes", Unit: "count", Better: "higher"},
		{Name: "exec.columnar.fallback_rows", Unit: "count", Better: "lower"},
		{Name: "exec.materializing.run_ms", Unit: "ms", Better: "lower"},
		{Name: "opt.prune.partitions_pruned_pct", Unit: "%", Better: "higher"},
		{Name: "exec.prune.run_ms", Unit: "ms", Better: "lower"},
		{Name: "samplecache.warm.run_ms", Unit: "ms", Better: "lower"},
		{Name: "samplecache.hit_pct", Unit: "%", Better: "higher"},
		{Name: "samplecache.bytes_mb", Unit: "MB", Better: "lower"},
		{Name: "service.roundtrip_overhead_ms", Unit: "ms", Better: "lower"},
		// The staged replay against the engine it mirrors.
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	}...)
}

// scale fixes the size of every input. The full scale is what the
// driver measures; the smoke scale keeps `go test` under ten seconds.
type scale struct {
	DSSF, HSF   float64 // TPC-DS-like and TPC-H-like scale factors
	ScanHSF     float64 // TPC-H-like scale factor of adhoc_scan
	ScanLogRows int     // weblogs rows of adhoc_scan
	DashLogRows int     // weblogs rows of the two serving workloads
	InsertRows  int     // rows per ingest_refresh round
	VerifySF    float64 // scale of the refimpl cross-check engine
	VerifyLogs  int
	Setups      int // set-ups per run; setup_s is their median
	// MinPasses is the least number of timed passes per client, and the
	// number of passes the accuracy metrics pool, so those metrics do
	// not depend on how many passes fit into -seconds.
	MinPasses int
	// SweepSeeds is the number of sampler seeds dashboard_repeat's
	// accuracy sweep draws after its timed section (its timed passes all
	// use one seed, so that plans and history stay warm).
	SweepSeeds int
}

var fullScale = scale{
	DSSF: 1, HSF: 1,
	ScanHSF: 2, ScanLogRows: 200000,
	DashLogRows: 100000, InsertRows: 500,
	VerifySF: 0.05, VerifyLogs: 5000,
	Setups: 3, MinPasses: 4, SweepSeeds: 6,
}

var smokeScale = scale{
	DSSF: 0.1, HSF: 0.1,
	ScanHSF: 0.1, ScanLogRows: 5000,
	DashLogRows: 5000, InsertRows: 100,
	VerifySF: 0.02, VerifyLogs: 1000,
	Setups: 1, MinPasses: 2, SweepSeeds: 2,
}

const (
	// partitions of every weblogs table.
	logParts = 8
	// seedStride spaces the sampler seeds of different -seed values.
	seedStride = 1000
	// sampleCacheBytes is the budget of the sample-cache opt-in point.
	sampleCacheBytes = 64 << 20
	// appendProbeRows sizes the table.append_rows_per_s probe.
	appendProbeRows = 20000
)

// runSeconds is how long the driver lets one run measure.
const runSeconds = 12

// describe renders BENCHMARK.json: the command, the workloads and why
// each exists, and every metric with its unit, direction and bound.
func describe() ([]byte, error) {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedDoc struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []boundedDoc  `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedDoc{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
