// Command quickr-bench regenerates every table and figure from the
// paper's evaluation (§5) on the bundled synthetic workloads.
//
// Usage:
//
//	quickr-bench [-exp all|F1|F2a|F2b|T3|T4|T5|T6|T7|T8|T9|F8a|F8b|F8c|F9|SMOKE|BENCH] [-sf 1.0] [-json dir]
//	             [-batch 0] [-prune] [-sample-cache N] [-contract] [-dashboard]
//	             [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// SMOKE runs a tiny per-suite query subset; BENCH runs the full query
// suites. With -json, both write a machine-readable BENCH_<exp>.json
// run report (per-query gains, errors, sampler rate checks, and
// per-operator execution counters) into the given directory; CI's
// cmd/benchcheck validates that file's schema.
//
// -dashboard additionally runs the repeated-query dashboard workload
// (N panels × M refreshes, exact vs cold-approximate vs cached-
// approximate under a concurrent hammer) and writes DASH_<exp>.json;
// `benchcheck -dashboard` gates it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"quickr/internal/experiments"
	"quickr/internal/profiling"
	"quickr/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (F1,F2a,F2b,T3..T9,F8a..F8c,F9,SMOKE,BENCH) or 'all'")
	sf := flag.Float64("sf", 1.0, "scale factor for the synthetic datasets")
	jsonDir := flag.String("json", "", "directory to write BENCH_<exp>.json reports into (SMOKE/BENCH)")
	batch := flag.Int("batch", 0, "executor batch size in rows (0 = default, <0 = one batch per partition)")
	prune := flag.Bool("prune", false, "enable the optimizer's partition-selection pruning pass for sampled plans")
	sampleCache := flag.Int64("sample-cache", 0, "enable hot-sample reuse with this byte budget for the whole run (0 = off)")
	contract := flag.Bool("contract", false, "also run the error-contract suite (cold+warm) and write CONTRACT_<exp>.json (SMOKE/BENCH)")
	dashboard := flag.Bool("dashboard", false, "also run the repeated-query dashboard workload and write DASH_<exp>.json (SMOKE/BENCH)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the bench run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToUpper(*exp), ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["ALL"]
	need := func(id string) bool { return all || want[id] }

	var env *experiments.Env
	getEnv := func() *experiments.Env {
		if env == nil {
			fmt.Fprintf(os.Stderr, "loading synthetic TPC-DS/TPC-H/log datasets at sf=%.2g...\n", *sf)
			env = experiments.NewFullEnv(*sf)
			env.Eng.SetBatchSize(*batch)
			env.Eng.SetPrune(*prune)
			env.Eng.SetSampleCache(*sampleCache)
		}
		return env
	}
	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
		os.Exit(1)
	}
	section := func(s string) { fmt.Println("\n" + strings.Repeat("=", 80) + "\n" + s) }

	// SMOKE/BENCH emit machine-readable run reports; they are opt-in
	// (not part of 'all', which regenerates the paper's human-readable
	// tables and figures).
	contractDone := false
	runContract := func(id string) {
		if !*contract || contractDone {
			return
		}
		contractDone = true
		crep, err := experiments.BuildContractReport(getEnv(), id, *sf)
		if err != nil {
			fail(id, err)
		}
		esc, hits := 0, 0
		for _, r := range crep.Runs {
			esc += r.Contract.Escalations
			hits += r.Contract.PlanCacheHits
		}
		fmt.Printf("%s: %d contract runs, %d violations, %d escalations, %d plan-cache hits\n",
			id, len(crep.Runs), crep.Violations, esc, hits)
		if *jsonDir != "" {
			path, err := crep.Write(*jsonDir)
			if err != nil {
				fail(id, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if crep.Violations > 0 {
			fail(id, fmt.Errorf("%d contract violations", crep.Violations))
		}
	}
	dashboardDone := false
	runDashboard := func(id string) {
		if !*dashboard || dashboardDone {
			return
		}
		dashboardDone = true
		drep, err := experiments.BuildDashboardReport(getEnv(), id, *sf, 32, 32)
		if err != nil {
			fail(id, err)
		}
		fmt.Printf("%s dashboard: %d panels x %d refreshes, %d workers: exact=%.1f qps, cold=%.1f qps, cached=%.1f qps (%.2fx vs exact, %.2fx vs cold), %d hash mismatches\n",
			id, drep.Panels, drep.Refreshes, drep.Workers,
			drep.ExactQPS, drep.ColdQPS, drep.CachedQPS,
			drep.CachedVsExact, drep.CachedVsCold, drep.HashMismatches)
		if *jsonDir != "" {
			path, err := drep.Write(*jsonDir)
			if err != nil {
				fail(id, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if drep.HashMismatches > 0 {
			fail(id, fmt.Errorf("%d panels differ between cold and cached runs", drep.HashMismatches))
		}
	}
	runReport := func(id string, queries []workload.Query) {
		rep, err := experiments.BuildBenchReport(getEnv(), queries, id, *sf)
		if err != nil {
			fail(id, err)
		}
		sampled, failures := 0, 0
		for _, q := range rep.Queries {
			if q.Sampled {
				sampled++
			}
			failures += q.RateFailures
		}
		fmt.Printf("%s: %d queries (%d sampled), %d sampler rate failures\n",
			id, len(rep.Queries), sampled, failures)
		if *jsonDir != "" {
			path, err := rep.Write(*jsonDir)
			if err != nil {
				fail(id, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if failures > 0 {
			fail(id, fmt.Errorf("%d sampler rate invariants failed", failures))
		}
	}
	if want["SMOKE"] {
		runReport("SMOKE", experiments.SmokeQueries())
		runContract("SMOKE")
		runDashboard("SMOKE")
	}
	if want["BENCH"] {
		var all []workload.Query
		all = append(all, workload.TPCDSQueries()...)
		all = append(all, workload.TPCHQueries()...)
		all = append(all, workload.OtherQueries()...)
		runReport("BENCH", all)
		runContract("BENCH")
		runDashboard("BENCH")
	}
	if (want["SMOKE"] || want["BENCH"]) && len(want) == 1 {
		return
	}

	// The Fig. 1 universe plan (also unrolled by Fig. 9) needs enough
	// customers per (color, year) group before ASALQA's accuracy checks
	// admit it; those two experiments run at scale factor >= 10.
	var f1env *experiments.Env
	getF1Env := func() *experiments.Env {
		if f1env == nil {
			if *sf >= 10 {
				f1env = getEnv()
			} else {
				fmt.Fprintln(os.Stderr, "F1/F9: loading a dedicated sf=10 TPC-DS dataset (the universe plan needs the scale)...")
				f1env = experiments.NewTPCDSEnv(10)
			}
		}
		return f1env
	}
	if need("F1") {
		r, err := experiments.Fig1(getF1Env())
		if err != nil {
			fail("F1", err)
		}
		section(r.Render())
	}
	if need("F2A") {
		section(experiments.Fig2a().Render())
	}
	if need("F2B") {
		section(experiments.Fig2b().Render())
	}
	if need("T3") {
		r, err := experiments.Table3(getEnv())
		if err != nil {
			fail("T3", err)
		}
		section(r.Render())
	}
	if need("T4") {
		r, err := experiments.Table4(getEnv())
		if err != nil {
			fail("T4", err)
		}
		section(r.Render())
	}
	if need("T5") {
		r, err := experiments.Table5(getEnv())
		if err != nil {
			fail("T5", err)
		}
		section(r.Render())
	}
	if need("T6") {
		// Default parameters (large stratum caps) and the small-group
		// tuning, as in the paper.
		// The paper's default cap K=M=1e5 applies to 500GB inputs; the
		// scale-equivalent default here is K=200 (1e5 × sf/500).
		for _, k := range []int{200, 10} {
			r, err := experiments.Table6(getEnv(), k, []float64{0.5, 1, 4, 10})
			if err != nil {
				fail("T6", err)
			}
			section(r.Render())
		}
	}
	if need("T7") {
		r, err := experiments.Table7(getEnv())
		if err != nil {
			fail("T7", err)
		}
		section(r.Render())
	}
	if need("T8") {
		section(experiments.Table8().Render())
	}
	if need("T9") {
		r, err := experiments.Table9(getEnv())
		if err != nil {
			fail("T9", err)
		}
		section(r.Render())
	}
	if need("F8A") || need("F8B") || need("F8C") {
		r, err := experiments.Fig8(getEnv())
		if err != nil {
			fail("F8", err)
		}
		if need("F8A") {
			section(r.RenderA())
		}
		if need("F8B") {
			section(r.RenderB())
		}
		if need("F8C") {
			section(experiments.RenderFig8c(r.Fig8c(getEnv())))
		}
	}
	if need("F9") {
		r, err := experiments.Fig9(getF1Env())
		if err != nil {
			fail("F9", err)
		}
		section(r.Render())
	}
}
