// Command quickr runs SQL against the bundled synthetic TPC-DS-like
// warehouse, exactly or approximately, and explains the plans the
// optimizer chooses.
//
// Usage:
//
//	quickr [-sf 1] [-seed 0] [-batch 1024] [-sample-cache 67108864] [-history h.json] [-approx] [-explain] [-analyze] [-metrics] [-stats out.json] 'SELECT ...'
//	quickr [-sf 1] -i            # simple REPL
//	quickr [-sf 1] -serve :8080  # HTTP/JSON query service (see internal/service)
//
// -explain prints plans without executing; -analyze executes and prints
// the EXPLAIN ANALYZE view (actual row counts per operator alongside
// optimizer estimates, sampler pass rates, join sizes); -stats writes a
// machine-readable JSON run report ("-" for stdout). -sample-cache is
// the byte budget of hot-sample reuse (64 MiB by default, 0 turns it
// off): a repeated sampled query replays its sample instead of
// re-scanning. Every plan is verified against the sampler invariants
// (internal/plancheck) before it runs; a violation fails the query.
//
// -cpuprofile/-memprofile write runtime/pprof profiles for the run; the
// -serve mode instead exposes live profiles on /debug/pprof.
//
// REPL commands: `exact <sql>`, `approx <sql>`, `explain <sql>`,
// `analyze <sql>`, `tables`, `quit`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"

	"quickr"
	"quickr/internal/data"
	"quickr/internal/profiling"
	"quickr/internal/service"
)

func main() {
	sf := flag.Float64("sf", 1, "TPC-DS-like scale factor")
	seed := flag.Uint64("seed", 0, "sampler seed (0 = historical default sequence)")
	approx := flag.Bool("approx", false, "run through ASALQA (approximate)")
	explain := flag.Bool("explain", false, "print plans instead of executing")
	analyze := flag.Bool("analyze", false, "execute and print EXPLAIN ANALYZE (actual vs estimated rows)")
	metrics := flag.Bool("metrics", false, "print simulated cluster metrics")
	stats := flag.String("stats", "", "write a JSON run report to this path (\"-\" = stdout)")
	batch := flag.Int("batch", 0, "executor batch size in rows (0 = default, <0 = one batch per partition)")
	sampleCache := flag.Int64("sample-cache", quickr.DefaultSampleCacheBytes, "byte budget of hot-sample reuse: repeated queries replay materialized sampler output instead of re-scanning (0 = off); answers are bit-identical warm or cold")
	history := flag.String("history", "", "load the learned query history from this JSON file before running and save it back after (created if missing)")
	interactive := flag.Bool("i", false, "interactive mode")
	serve := flag.String("serve", "", "serve the HTTP/JSON query API on this address (e.g. :8080) instead of running a query")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	fmt.Fprintf(os.Stderr, "loading TPC-DS-like data at sf=%.2g...\n", *sf)
	eng := buildEngine(*sf, *seed)
	eng.SetBatchSize(*batch)
	eng.SetSampleCache(*sampleCache)
	if *history != "" {
		loadHistory(eng, *history)
		defer saveHistory(eng, *history)
	}

	if *serve != "" {
		srv := service.New(eng)
		fmt.Fprintf(os.Stderr, "serving query API on %s (POST /query, GET /query/{id}, POST /query/{id}/cancel, GET /metrics)\n", *serve)
		if err := http.ListenAndServe(*serve, srv.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		return
	}
	if *interactive {
		repl(eng, *metrics)
		return
	}
	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		fmt.Fprintln(os.Stderr, "usage: quickr [-approx] [-explain] [-analyze] [-stats out.json] 'SELECT ...'")
		os.Exit(2)
	}
	if *explain {
		doExplain(eng, query)
		return
	}
	if *analyze {
		doAnalyze(eng, query, *approx, *stats)
		return
	}
	runQuery(eng, query, *approx, *metrics, *stats)
}

func buildEngine(sf float64, seed uint64) *quickr.Engine {
	cfg := data.DefaultTPCDS()
	cfg.ScaleFactor = sf
	ds := data.GenerateTPCDS(cfg)
	eng := quickr.New()
	eng.SetSeed(seed)
	for name, t := range ds.Tables {
		eng.RegisterStored(t, ds.PKs[name]...)
	}
	return eng
}

// loadHistory primes the engine's learned query history from path; a
// missing file simply starts cold (corrupt files degrade to cold inside
// LoadHistory).
func loadHistory(eng *quickr.Engine, path string) {
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "history:", err)
		}
		return
	}
	defer f.Close()
	if err := eng.LoadHistory(f); err != nil {
		fmt.Fprintln(os.Stderr, "history:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "loaded query history (%d fingerprints) from %s\n", eng.HistoryLen(), path)
}

// saveHistory persists the engine's learned query history to path.
func saveHistory(eng *quickr.Engine, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "history:", err)
		return
	}
	defer f.Close()
	if err := eng.SaveHistory(f); err != nil {
		fmt.Fprintln(os.Stderr, "history:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "saved query history (%d fingerprints) to %s\n", eng.HistoryLen(), path)
}

// printContract reports the contract outcome for contract-bearing
// queries.
func printContract(res *quickr.Result) {
	c := res.Contract
	if c == nil {
		return
	}
	verdict := "satisfied"
	if !c.Satisfied {
		verdict = "MISSED"
	}
	how := fmt.Sprintf("p=%.4g", c.ChosenP)
	if c.Exact {
		how = "exact plan"
	}
	fmt.Printf("-- contract %s via %s: attempts=%d escalations=%d cache-hits=%d history-hit=%v\n",
		verdict, how, c.Attempts, c.Escalations, c.PlanCacheHits, c.HistoryHit)
	if c.RealizedRelErr > 0 {
		fmt.Printf("-- contract error: predicted=%.4g corrected=%.4g realized=%.4g (target %.4g @ %.0f%%)\n",
			c.PredictedRelErr, c.CorrectedRelErr, c.RealizedRelErr, c.ErrorTarget, 100*c.Confidence)
	}
}

func execOnce(eng *quickr.Engine, query string, approx bool) *quickr.Result {
	var res *quickr.Result
	var err error
	if approx {
		res, err = eng.ExecApprox(query)
	} else {
		res, err = eng.Exec(query)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	return res
}

// writeStats emits the JSON run report to path ("-" = stdout).
func writeStats(res *quickr.Result, query string, approx bool, path string) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(res.RunReport(query, approx), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stats:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if path == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "stats:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote run report to %s\n", path)
}

func runQuery(eng *quickr.Engine, query string, approx, metrics bool, stats string) {
	res := execOnce(eng, query, approx)
	fmt.Print(res.Format(50))
	if approx {
		if res.Unapproximable {
			fmt.Println("-- ASALQA declared the query unapproximable; exact plan ran")
		} else {
			fmt.Printf("-- sampled with %v\n", res.Samplers)
		}
	}
	printContract(res)
	if metrics {
		m := res.Metrics
		fmt.Printf("-- machine-time=%.0f runtime=%.0f passes=%.2f shuffled=%.0fB intermediate=%.0fB tasks=%d\n",
			m.MachineHours, m.Runtime, m.Passes, m.ShuffledBytes, m.IntermediateBytes, m.Tasks)
	}
	writeStats(res, query, approx, stats)
}

// doAnalyze executes the query (baseline and, with -approx, the
// sampled plan) and prints the EXPLAIN ANALYZE annotated plan.
func doAnalyze(eng *quickr.Engine, query string, approx bool, stats string) {
	res := execOnce(eng, query, approx)
	mode := "BASELINE"
	if approx {
		mode = "QUICKR"
	}
	fmt.Printf("=== EXPLAIN ANALYZE (%s) ===\n", mode)
	fmt.Print(res.AnalyzedPlan)
	if approx && res.Unapproximable {
		fmt.Println("-- ASALQA declared the query unapproximable; exact plan ran")
	}
	printContract(res)
	fmt.Print(res.StageReport)
	writeStats(res, query, approx, stats)
}

func doExplain(eng *quickr.Engine, query string) {
	for _, mode := range []struct {
		name   string
		approx bool
	}{{"BASELINE", false}, {"QUICKR", true}} {
		info, err := eng.Plan(query, mode.approx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("=== %s plan (optimized in %v) ===\n", mode.name, info.OptimizeTime)
		fmt.Print(info.Physical)
		if mode.approx {
			if info.Unapproximable {
				fmt.Println("-- unapproximable")
			}
			for _, n := range info.Notes {
				fmt.Println("-- note:", n)
			}
			for _, tr := range info.AccuracyTrace {
				fmt.Println("-- accuracy:", tr)
			}
			if info.Sampled {
				fmt.Printf("-- root-equivalent sampler: %s p=%.4g\n", info.RootSampler, info.EffectiveP)
			}
		}
	}
}

func repl(eng *quickr.Engine, metrics bool) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("quickr> commands: exact <sql> | approx <sql> | explain <sql> | analyze <sql> | tables | quit")
	fmt.Print("quickr> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "quit" || line == "exit":
			return
		case line == "tables":
			names := eng.Catalog().Tables()
			sort.Strings(names)
			for _, n := range names {
				t, _ := eng.Catalog().Table(n)
				fmt.Printf("%-18s %8d rows  %s\n", n, t.NumRows(), t.Schema)
			}
		case strings.HasPrefix(line, "exact "):
			runQuery(eng, line[len("exact "):], false, metrics, "")
		case strings.HasPrefix(line, "approx "):
			runQuery(eng, line[len("approx "):], true, metrics, "")
		case strings.HasPrefix(line, "explain "):
			doExplain(eng, line[len("explain "):])
		case strings.HasPrefix(line, "analyze "):
			doAnalyze(eng, line[len("analyze "):], true, "")
		case line == "":
		default:
			runQuery(eng, line, true, metrics, "")
		}
		fmt.Print("quickr> ")
	}
}
