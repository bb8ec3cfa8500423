// Command benchcheck validates the schema of the BENCH_*.json run
// reports quickr-bench writes. CI runs it after the smoke bench so a
// refactor that silently drops per-operator counters (or renames a
// field dashboards consume) fails the build instead of producing empty
// reports.
//
// With -micro it instead gates `go test -bench -benchmem` output
// against a committed baseline: each baseline benchmark must be present
// and its allocs/op (a deterministic, machine-independent counter) must
// stay within max_allocs_ratio of the recorded value; ns/op gets a
// deliberately generous max_ns_ratio since CI hardware varies.
//
// With -oracle it compares two BENCH_*.json reports of the same
// workload produced under different engine configurations (sample cache
// off vs on): every query must appear in both with identical result row
// counts and result hashes, so any bitwise divergence between the two
// configurations fails the build.
//
// With -prune it compares an unpruned report against one produced with
// partition-selection pruning enabled: the pruned run must actually
// skip partitions (total partitions_scanned strictly below the
// unpruned run, at least one query with partitions_pruned > 0), so a
// regression that silently disables the pass fails the build.
//
// With -contract it gates the CONTRACT_*.json report the contract
// suite writes: zero contract violations, the escalation path actually
// exercised, warm-pass retries served from the plan cache, and warm
// escalations no worse than cold (the learned correction loop must not
// regress).
//
// With -dashboard it gates the DASH_*.json report the repeated-query
// dashboard benchmark writes: every panel's cached-approximate result
// bit-identical to its cold-approximate result, and (on multicore
// machines) cached-approximate throughput strictly above both the
// exact baseline and the cold lazy path.
//
// Usage:
//
//	benchcheck BENCH_SMOKE.json [more.json...]
//	benchcheck -micro -baseline internal/exec/testdata/bench_baseline.json bench.txt
//	benchcheck -oracle lazy/BENCH_BENCH.json cached/BENCH_BENCH.json
//	benchcheck -prune full/BENCH_BENCH.json pruned/BENCH_BENCH.json
//	benchcheck -contract CONTRACT_SMOKE.json
//	benchcheck -dashboard DASH_SMOKE.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// operatorFields are required on every operator entry: the per-operator
// counters the observability layer promises.
var operatorFields = []string{
	"id", "kind", "detail", "depth", "est_rows", "partitions",
	"rows_in", "rows_out", "bytes_in", "bytes_out", "wall_ms",
	"batches", "peak_bytes",
	"sampler_seen", "sampler_passed", "sampler_rate",
	"sketch_entries", "build_rows", "probe_rows",
}

// metricsFields are required on every run's cluster-metrics block.
var metricsFields = []string{
	"machine_hours", "runtime", "intermediate_bytes", "shuffled_bytes",
	"passes", "tasks", "stages", "optimize_seconds",
	"peak_inflight_bytes", "rows_per_sec", "exec_seconds",
	"queued_seconds", "admitted_bytes", "pool_wait_seconds",
	"pool_tasks", "pool_stolen",
	"partitions_scanned", "partitions_pruned",
}

// concurrencyFields are required on the report's serial-vs-concurrent
// throughput block.
var concurrencyFields = []string{
	"workers", "cores", "jobs", "serial_qps", "concurrent_qps", "speedup",
}

func main() {
	micro := flag.Bool("micro", false, "gate `go test -bench -benchmem` output against -baseline instead of checking report schemas")
	baseline := flag.String("baseline", "", "baseline JSON for -micro (committed allocs/op and ns/op ceilings)")
	oracle := flag.Bool("oracle", false, "compare two reports of the same workload from different engine configurations; result hashes must match")
	prune := flag.Bool("prune", false, "compare an unpruned report against a pruned one; the pruned run must scan strictly fewer partitions")
	contract := flag.Bool("contract", false, "gate a CONTRACT_<exp>.json report: zero violations, escalation retries served from the plan cache")
	dashboard := flag.Bool("dashboard", false, "gate a DASH_<exp>.json report: cached results bit-identical to cold, cached QPS above exact and cold on multicore")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck BENCH_<exp>.json [more.json...]")
		fmt.Fprintln(os.Stderr, "       benchcheck -micro -baseline baseline.json bench.txt")
		fmt.Fprintln(os.Stderr, "       benchcheck -oracle lazy.json cached.json")
		fmt.Fprintln(os.Stderr, "       benchcheck -prune full.json pruned.json")
		fmt.Fprintln(os.Stderr, "       benchcheck -contract CONTRACT_<exp>.json")
		fmt.Fprintln(os.Stderr, "       benchcheck -dashboard DASH_<exp>.json")
		os.Exit(2)
	}
	if *micro {
		if err := checkMicro(*baseline, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck -micro:", err)
			os.Exit(1)
		}
		return
	}
	if *oracle {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchcheck -oracle: need exactly two report files")
			os.Exit(2)
		}
		if err := checkOracle(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck -oracle:", err)
			os.Exit(1)
		}
		return
	}
	if *prune {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchcheck -prune: need exactly two report files (unpruned, pruned)")
			os.Exit(2)
		}
		if err := checkPrune(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck -prune:", err)
			os.Exit(1)
		}
		return
	}
	if *contract {
		bad := 0
		for _, path := range flag.Args() {
			if err := checkContract(path); err != nil {
				bad++
				fmt.Fprintf(os.Stderr, "benchcheck -contract: %s: %v\n", path, err)
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}
	if *dashboard {
		bad := 0
		for _, path := range flag.Args() {
			if err := checkDashboard(path); err != nil {
				bad++
				fmt.Fprintf(os.Stderr, "benchcheck -dashboard: %s: %v\n", path, err)
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}
	bad := 0
	for _, path := range flag.Args() {
		if errs := checkFile(path); len(errs) > 0 {
			bad++
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, e)
			}
		} else {
			fmt.Printf("%s: ok\n", path)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

func checkFile(path string) []error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return []error{err}
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return []error{fmt.Errorf("not a JSON object: %w", err)}
	}
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	for _, k := range []string{"experiment", "scale_factor", "queries"} {
		if _, ok := top[k]; !ok {
			fail("missing top-level field %q", k)
		}
	}
	var queries []map[string]json.RawMessage
	if q, ok := top["queries"]; ok {
		if err := json.Unmarshal(q, &queries); err != nil {
			fail("queries is not an array of objects: %v", err)
		}
	}
	if len(queries) == 0 {
		fail("report contains no queries")
	}
	// Streaming-vs-whole-partition footprint gate: summed over the
	// report's queries, the peak in-flight bytes at the configured batch
	// size must stay strictly below those of one batch per partition.
	var peakStreaming, peakMaterialized float64
	for i, q := range queries {
		qname := fmt.Sprintf("queries[%d]", i)
		if id, ok := q["id"]; ok {
			var s string
			if json.Unmarshal(id, &s) == nil && s != "" {
				qname = s
			}
		} else {
			fail("%s: missing id", qname)
		}
		for _, k := range []string{"sampled", "rate_checks", "rate_failures", "approx"} {
			if _, ok := q[k]; !ok {
				fail("%s: missing field %q", qname, k)
			}
		}
		for _, k := range []string{"peak_inflight_bytes", "peak_materialized_bytes"} {
			raw, ok := q[k]
			if !ok {
				fail("%s: missing field %q", qname, k)
				continue
			}
			var v float64
			if err := json.Unmarshal(raw, &v); err != nil {
				fail("%s: %s is not a number: %v", qname, k, err)
				continue
			}
			if k == "peak_inflight_bytes" {
				peakStreaming += v
			} else {
				peakMaterialized += v
			}
		}
		var nFail int
		if rf, ok := q["rate_failures"]; ok {
			if json.Unmarshal(rf, &nFail) == nil && nFail > 0 {
				fail("%s: %d sampler rate invariants failed", qname, nFail)
			}
		}
		approx, ok := q["approx"]
		if !ok {
			continue
		}
		var run map[string]json.RawMessage
		if err := json.Unmarshal(approx, &run); err != nil {
			fail("%s: approx is not an object: %v", qname, err)
			continue
		}
		var mblock map[string]json.RawMessage
		if m, ok := run["metrics"]; !ok {
			fail("%s: approx missing metrics", qname)
		} else if err := json.Unmarshal(m, &mblock); err != nil {
			fail("%s: approx.metrics is not an object: %v", qname, err)
		} else {
			for _, k := range metricsFields {
				if _, ok := mblock[k]; !ok {
					fail("%s: approx.metrics missing %q", qname, k)
				}
			}
		}
		var ops []map[string]json.RawMessage
		if o, ok := run["operators"]; !ok {
			fail("%s: approx missing operators", qname)
			continue
		} else if err := json.Unmarshal(o, &ops); err != nil {
			fail("%s: approx.operators is not an array: %v", qname, err)
			continue
		}
		if len(ops) == 0 {
			fail("%s: approx.operators is empty", qname)
		}
		for j, op := range ops {
			for _, k := range operatorFields {
				if _, ok := op[k]; !ok {
					fail("%s: operators[%d] missing %q", qname, j, k)
				}
			}
		}
	}
	if peakMaterialized > 0 && peakStreaming >= peakMaterialized {
		fail("streaming peak in-flight bytes (%.0f) not below the whole-partition peak (%.0f)",
			peakStreaming, peakMaterialized)
	}

	// Concurrency throughput gate: the shared-engine concurrent pass must
	// beat serial submission — but only where the machine can actually
	// run queries in parallel (single-core CI runners are exempt).
	if craw, ok := top["concurrency"]; !ok {
		fail("missing top-level field %q", "concurrency")
	} else {
		var conc map[string]json.RawMessage
		if err := json.Unmarshal(craw, &conc); err != nil {
			fail("concurrency is not an object: %v", err)
		} else {
			for _, k := range concurrencyFields {
				if _, ok := conc[k]; !ok {
					fail("concurrency missing %q", k)
				}
			}
			var cores int
			var serial, concurrent float64
			json.Unmarshal(conc["cores"], &cores)
			json.Unmarshal(conc["serial_qps"], &serial)
			json.Unmarshal(conc["concurrent_qps"], &concurrent)
			if serial <= 0 || concurrent <= 0 {
				fail("concurrency throughput not measured: serial=%.3f concurrent=%.3f", serial, concurrent)
			} else if cores >= 2 && concurrent <= serial {
				fail("concurrent QPS %.2f not above serial %.2f on a %d-core machine",
					concurrent, serial, cores)
			}
		}
	}
	return errs
}

// oracleEntry is the slice of a query report the oracle diff needs.
type oracleEntry struct {
	ResultRows int    `json:"result_rows"`
	ResultHash string `json:"result_hash"`
}

// loadOracle reads a BENCH report's per-query result fingerprints.
func loadOracle(path string) (map[string]oracleEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Queries []struct {
			ID string `json:"id"`
			oracleEntry
		} `json:"queries"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]oracleEntry{}
	for _, q := range rep.Queries {
		if q.ResultHash == "" {
			return nil, fmt.Errorf("%s: query %s has no result_hash (report predates the oracle fields?)", path, q.ID)
		}
		out[q.ID] = q.oracleEntry
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: report contains no queries", path)
	}
	return out, nil
}

// checkOracle diffs two reports of the same workload produced by
// different executor modes: both must cover the same query set with
// identical result row counts and hashes.
func checkOracle(pathA, pathB string) error {
	a, err := loadOracle(pathA)
	if err != nil {
		return err
	}
	b, err := loadOracle(pathB)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sortStrings(ids)
	var fails []string
	for _, id := range ids {
		ea := a[id]
		eb, ok := b[id]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: present in %s but missing from %s", id, pathA, pathB))
			continue
		}
		switch {
		case ea.ResultRows != eb.ResultRows:
			fails = append(fails, fmt.Sprintf("%s: %d rows vs %d rows", id, ea.ResultRows, eb.ResultRows))
		case ea.ResultHash != eb.ResultHash:
			fails = append(fails, fmt.Sprintf("%s: result hash mismatch (%d rows): %s vs %s",
				id, ea.ResultRows, ea.ResultHash[:12], eb.ResultHash[:12]))
		}
	}
	for id := range b {
		if _, ok := a[id]; !ok {
			fails = append(fails, fmt.Sprintf("%s: present in %s but missing from %s", id, pathB, pathA))
		}
	}
	if len(fails) > 0 {
		sortStrings(fails)
		return fmt.Errorf("%d query result(s) diverge between executor modes:\n  %s",
			len(fails), strings.Join(fails, "\n  "))
	}
	fmt.Printf("oracle: %d queries bit-identical across %s and %s\n", len(ids), pathA, pathB)
	return nil
}

// pruneEntry is the slice of a query's approx run the prune gate needs.
type pruneEntry struct {
	scanned, pruned int64
}

// loadPrune reads a BENCH report's per-query partition counters.
func loadPrune(path string) (map[string]pruneEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Queries []struct {
			ID     string `json:"id"`
			Approx struct {
				Metrics struct {
					Scanned *int64 `json:"partitions_scanned"`
					Pruned  *int64 `json:"partitions_pruned"`
				} `json:"metrics"`
			} `json:"approx"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]pruneEntry{}
	for _, q := range rep.Queries {
		m := q.Approx.Metrics
		if m.Scanned == nil || m.Pruned == nil {
			return nil, fmt.Errorf("%s: query %s has no partition counters (report predates the pruning fields?)", path, q.ID)
		}
		out[q.ID] = pruneEntry{scanned: *m.Scanned, pruned: *m.Pruned}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: report contains no queries", path)
	}
	return out, nil
}

// checkPrune compares an unpruned report against a pruned one of the
// same workload: over the shared query set, the pruned run must scan
// strictly fewer partitions in total and prune at least one query, and
// no query may scan more partitions pruned than unpruned.
func checkPrune(fullPath, prunedPath string) error {
	full, err := loadPrune(fullPath)
	if err != nil {
		return err
	}
	pruned, err := loadPrune(prunedPath)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(full))
	for id := range full {
		if _, ok := pruned[id]; ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no shared queries between %s and %s", fullPath, prunedPath)
	}
	sortStrings(ids)
	var totalFull, totalPruned, skipped int64
	queriesPruned := 0
	var fails []string
	for _, id := range ids {
		f, p := full[id], pruned[id]
		totalFull += f.scanned
		totalPruned += p.scanned
		skipped += p.pruned
		if p.pruned > 0 {
			queriesPruned++
		}
		if f.pruned > 0 {
			fails = append(fails, fmt.Sprintf("%s: unpruned run reports %d partitions_pruned (pass leaked into the baseline?)", id, f.pruned))
		}
		if p.scanned > f.scanned {
			fails = append(fails, fmt.Sprintf("%s: pruned run scanned %d partitions vs %d unpruned", id, p.scanned, f.scanned))
		}
	}
	if queriesPruned == 0 {
		fails = append(fails, "no query pruned any partition — the pass never fired")
	}
	if totalPruned >= totalFull {
		fails = append(fails, fmt.Sprintf("pruned run scanned %d total partitions, not below unpruned %d", totalPruned, totalFull))
	}
	if len(fails) > 0 {
		sortStrings(fails)
		return fmt.Errorf("%d prune gate failure(s):\n  %s", len(fails), strings.Join(fails, "\n  "))
	}
	fmt.Printf("prune: %d/%d queries pruned; %d partitions scanned vs %d unpruned (%d skipped)\n",
		queriesPruned, len(ids), totalPruned, totalFull, skipped)
	return nil
}

// microBaseline is the committed micro-benchmark baseline: per
// benchmark, the pre-optimization allocs/op and ns/op plus the ratios
// current runs must stay within. allocs/op is exact and deterministic,
// so max_allocs_ratio is the real gate (0.7 = "at least 30% fewer
// allocations than the baseline, forever"); ns/op is machine-dependent
// and gets a generous ceiling purely to catch order-of-magnitude
// regressions.
type microBaseline struct {
	Note       string                `json:"note,omitempty"`
	Benchmarks map[string]microEntry `json:"benchmarks"`
}

type microEntry struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	MaxAllocsRatio float64 `json:"max_allocs_ratio"`
	MaxNsRatio     float64 `json:"max_ns_ratio"`
}

type microResult struct {
	nsPerOp     float64
	allocsPerOp float64
}

// parseBenchFile extracts Benchmark lines from `go test -bench
// -benchmem` output ("-" = stdin). The trailing -N GOMAXPROCS suffix is
// stripped so baselines are portable across core counts.
func parseBenchFile(path string) (map[string]microResult, error) {
	var in *os.File
	if path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	out := map[string]microResult{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res microResult
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.nsPerOp = v
				seen = true
			case "allocs/op":
				res.allocsPerOp = v
				seen = true
			}
		}
		if seen {
			out[name] = res
		}
	}
	return out, sc.Err()
}

// checkMicro compares parsed benchmark results against the baseline.
// Every baseline benchmark must be present in the results — a renamed
// or deleted benchmark cannot silently drop out of the gate.
func checkMicro(baselinePath string, files []string) error {
	if baselinePath == "" {
		return fmt.Errorf("-micro requires -baseline")
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base microBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks in baseline", baselinePath)
	}
	got := map[string]microResult{}
	for _, f := range files {
		res, err := parseBenchFile(f)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for k, v := range res {
			got[k] = v
		}
	}
	var fails []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		cur, ok := got[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from bench output", name))
			continue
		}
		allocCeil := b.AllocsPerOp * b.MaxAllocsRatio
		nsCeil := b.NsPerOp * b.MaxNsRatio
		status := "ok"
		if cur.allocsPerOp > allocCeil {
			status = "FAIL"
			fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op exceeds ceiling %.0f (%.2f x baseline %.0f, limit %.2fx)",
				name, cur.allocsPerOp, allocCeil, cur.allocsPerOp/b.AllocsPerOp, b.AllocsPerOp, b.MaxAllocsRatio))
		}
		if b.MaxNsRatio > 0 && cur.nsPerOp > nsCeil {
			status = "FAIL"
			fails = append(fails, fmt.Sprintf("%s: %.0f ns/op exceeds ceiling %.0f (%.2f x baseline %.0f, limit %.2fx)",
				name, cur.nsPerOp, nsCeil, cur.nsPerOp/b.NsPerOp, b.NsPerOp, b.MaxNsRatio))
		}
		fmt.Printf("%-28s %s  allocs/op %8.0f (ceiling %8.0f)  ns/op %12.0f\n",
			name, status, cur.allocsPerOp, allocCeil, cur.nsPerOp)
	}
	if len(fails) > 0 {
		return fmt.Errorf("%d gate failure(s):\n  %s", len(fails), strings.Join(fails, "\n  "))
	}
	return nil
}

// sortStrings is a tiny insertion sort to keep the import set lean.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
