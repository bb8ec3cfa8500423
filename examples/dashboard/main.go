// Dashboard: the paper's first headline use case — "queries that
// analyze logs to generate aggregated dashboard reports, if sped up,
// would increase the refresh rate of dashboards at no extra cost" (§1).
//
// This example drives the serving shape a real dashboard produces: N
// panels over a shared web log, each refreshed M times by concurrent
// submitters. It first reports the per-refresh cluster-cost gain of
// lazy approximation (the paper's claim), then replays the whole
// refresh workload three ways — exact, cold-approximate (the sample
// cache off: samplers re-scan the log on every refresh) and
// cached-approximate (the engine's default: hot-sample reuse replays
// materialized sampler output) — and reports the throughput of each.
// The same panels are the repository benchmark's dashboard_repeat and
// ingest_refresh workloads (benchmark/README.md).
//
// Usage:
//
//	dashboard [-rows 400000] [-refreshes 20] [-workers 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"quickr"
	"quickr/internal/data"
	"quickr/internal/workload"
)

func main() {
	rows := flag.Int("rows", 400000, "web log rows to generate")
	refreshes := flag.Int("refreshes", 20, "refreshes per panel in the timed workload")
	workers := flag.Int("workers", 8, "concurrent refresh submitters")
	flag.Parse()

	eng := quickr.New()
	eng.RegisterStored(data.Logs(*rows, 2024, 8))
	panels := workload.DashboardQueries()

	// Part 1: the paper's per-refresh cost argument, one exact and one
	// approximate execution per panel.
	var exactCost, approxCost float64
	fmt.Println("panel                                      exact-cost  quickr-cost   gain  sampled-with")
	for _, p := range panels {
		exact, err := eng.Exec(p.SQL)
		if err != nil {
			log.Fatalf("%s: %v", p.ID, err)
		}
		approx, err := eng.ExecApprox(p.SQL)
		if err != nil {
			log.Fatalf("%s: %v", p.ID, err)
		}
		exactCost += exact.Metrics.MachineHours
		approxCost += approx.Metrics.MachineHours
		sampler := "(exact: unapproximable)"
		if approx.Sampled {
			sampler = fmt.Sprintf("%s p=%.3g", approx.Samplers[0].Type, approx.Samplers[0].P)
		}
		fmt.Printf("%-42s %10.0f %12.0f %5.2fx  %s\n",
			p.Desc, exact.Metrics.MachineHours, approx.Metrics.MachineHours,
			exact.Metrics.MachineHours/approx.Metrics.MachineHours, sampler)
	}
	fmt.Printf("\nper refresh: %.2fx cheaper -> %.1f approximate refreshes in the budget of 1 exact refresh\n",
		exactCost/approxCost, exactCost/approxCost)

	// Part 2: the repeated-refresh workload, timed. Every mode runs the
	// identical job list: panels × refreshes, fanned out over workers.
	var jobs []string
	for r := 0; r < *refreshes; r++ {
		for _, p := range panels {
			jobs = append(jobs, p.SQL)
		}
	}
	hammer := func(run func(string) error) float64 {
		start := time.Now()
		var wg sync.WaitGroup
		next := make(chan string)
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sql := range next {
					if err := run(sql); err != nil {
						log.Fatal(err)
					}
				}
			}()
		}
		for _, sql := range jobs {
			next <- sql
		}
		close(next)
		wg.Wait()
		return float64(len(jobs)) / time.Since(start).Seconds()
	}
	exec := func(sql string) error { _, err := eng.Exec(sql); return err }
	execApprox := func(sql string) error { _, err := eng.ExecApprox(sql); return err }
	warm := func(run func(string) error) {
		for _, p := range panels {
			if err := run(p.SQL); err != nil {
				log.Fatalf("%s: %v", p.ID, err)
			}
		}
	}

	fmt.Printf("\nrefresh workload: %d panels x %d refreshes, %d workers\n", len(panels), *refreshes, *workers)
	warm(exec)
	exactQPS := hammer(exec)
	fmt.Printf("  exact:             %8.1f refreshes/sec\n", exactQPS)

	eng.SetSampleCache(0)
	warm(execApprox)
	coldQPS := hammer(execApprox)
	fmt.Printf("  cold approximate:  %8.1f refreshes/sec (%.2fx exact)\n", coldQPS, coldQPS/exactQPS)

	eng.SetSampleCache(quickr.DefaultSampleCacheBytes)
	warm(execApprox) // populates the sample cache
	cachedQPS := hammer(execApprox)
	fmt.Printf("  cached approximate:%8.1f refreshes/sec (%.2fx exact, %.2fx cold)\n",
		cachedQPS, cachedQPS/exactQPS, cachedQPS/coldQPS)

	// Show one panel's approximate content with confidence intervals —
	// identical bits whether it came from the cache or the lazy path.
	approx, err := eng.ExecApprox(panels[0].SQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntraffic panel (approximate, top 5 by hits):")
	fmt.Print(approx.Format(5))
}
