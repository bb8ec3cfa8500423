package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"quickr"
	"quickr/internal/table"
	"quickr/internal/workload"
)

// QueryBenchReport is the per-query entry of a BenchReport: the error
// and gain metrics of one query plus the full instrumented run report
// (per-operator counters) of its approximate execution.
type QueryBenchReport struct {
	ID               string  `json:"id"`
	Sampled          bool    `json:"sampled"`
	Unapproximable   bool    `json:"unapproximable"`
	GainMachineHours float64 `json:"gain_machine_hours"`
	GainRuntime      float64 `json:"gain_runtime"`
	GainIntermediate float64 `json:"gain_intermediate"`
	GainShuffled     float64 `json:"gain_shuffled"`
	MissedGroups     float64 `json:"missed_groups"`
	AggError         float64 `json:"agg_error"`

	// ResultRows and ResultHash fingerprint the approximate run's
	// result: a SHA-256 over the exact (kind-tagged, bit-precise) row
	// values and group estimates, in result order. The frozen-hash test
	// holds the executor to the committed hashes of all 62 queries, and
	// the nightly sample-cache gate diffs these between cache-off and
	// cache-on runs.
	ResultRows int    `json:"result_rows"`
	ResultHash string `json:"result_hash"`

	// WarmHash is the same fingerprint taken from a second execution
	// while the engine's sample cache holds the first run's materialized
	// sampler output (set only when the bench runs with -sample-cache).
	// BuildBenchReport fails outright if it differs from ResultHash: a
	// warm replay must be bit-identical to the cold run that populated
	// the cache.
	WarmHash string `json:"warm_hash,omitempty"`

	RateChecks   []RateCheckReport `json:"rate_checks"`
	RateFailures int               `json:"rate_failures"`

	// PeakInflightBytes is the streaming executor's worst per-operator
	// in-flight footprint for the approximate run; PeakMaterializedBytes
	// is the same query re-executed with one batch per partition (every
	// chain operator sees its whole partition at once). CI asserts the
	// streaming total stays strictly below the whole-partition total.
	PeakInflightBytes     float64 `json:"peak_inflight_bytes"`
	PeakMaterializedBytes float64 `json:"peak_materialized_bytes"`

	// Approx is the instrumented run report of the Quickr plan,
	// including the per-operator execution counters.
	Approx *quickr.RunReport `json:"approx"`
}

// RateCheckReport is the JSON view of one sampler pass-rate invariant.
type RateCheckReport struct {
	Op        string  `json:"op"`
	Type      string  `json:"type"`
	P         float64 `json:"p"`
	Seen      int64   `json:"seen"`
	Passed    int64   `json:"passed"`
	Rate      float64 `json:"rate"`
	Tolerance float64 `json:"tolerance"`
	OK        bool    `json:"ok"`
	Note      string  `json:"note,omitempty"`
}

// BenchReport is the machine-readable result of one quickr-bench
// experiment, written as BENCH_<experiment>.json and consumed by
// cmd/benchcheck in CI.
type BenchReport struct {
	Experiment  string             `json:"experiment"`
	ScaleFactor float64            `json:"scale_factor"`
	Queries     []QueryBenchReport `json:"queries"`
	Concurrency *ConcurrencyReport `json:"concurrency,omitempty"`
}

// ConcurrencyReport compares the engine's throughput on the same job
// list executed serially and with concurrent submitters sharing one
// engine (worker pool, admission gate, plan cache). Cores records the
// machine's parallelism so CI only asserts a concurrent speedup where
// one is physically possible.
type ConcurrencyReport struct {
	Workers       int     `json:"workers"`
	Cores         int     `json:"cores"`
	Jobs          int     `json:"jobs"`
	SerialQPS     float64 `json:"serial_qps"`
	ConcurrentQPS float64 `json:"concurrent_qps"`
	Speedup       float64 `json:"speedup"`
}

// MeasureConcurrency runs every query (approx mode) reps times serially
// and then again with the given number of concurrent submitters, and
// reports queries-per-second for both. One warmup execution per
// distinct plan precedes the timed passes so both run against a warm
// plan cache and the comparison isolates execution concurrency.
func MeasureConcurrency(env *Env, queries []workload.Query, workers, reps int) (*ConcurrencyReport, error) {
	var jobs []string
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			jobs = append(jobs, q.SQL)
		}
	}
	for _, q := range queries { // warm the plan cache for both passes
		if _, err := env.Eng.ExecApprox(q.SQL); err != nil {
			return nil, fmt.Errorf("%s warmup: %w", q.ID, err)
		}
	}
	pass := func(conc int) (float64, error) {
		if conc < 1 {
			conc = 1
		}
		start := time.Now()
		var firstErr error
		var mu sync.Mutex
		var wg sync.WaitGroup
		next := make(chan string)
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sql := range next {
					if _, err := env.Eng.ExecApprox(sql); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
			}()
		}
		for _, sql := range jobs {
			next <- sql
		}
		close(next)
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
		return float64(len(jobs)) / time.Since(start).Seconds(), nil
	}
	serial, err := pass(1)
	if err != nil {
		return nil, err
	}
	concurrent, err := pass(workers)
	if err != nil {
		return nil, err
	}
	rep := &ConcurrencyReport{
		Workers:       workers,
		Cores:         runtime.NumCPU(),
		Jobs:          len(jobs),
		SerialQPS:     serial,
		ConcurrentQPS: concurrent,
	}
	if serial > 0 {
		rep.Speedup = concurrent / serial
	}
	return rep, nil
}

// appendExact appends a kind-tagged, bit-precise encoding of v:
// unlike Value.Key, floats never collapse onto integers, so any
// cross-executor difference in kind or bits changes the hash.
func appendExact(b []byte, v table.Value) []byte {
	switch v.Kind() {
	case table.KindNull:
		return append(b, 'n')
	case table.KindInt:
		return binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(v.Int()))
	case table.KindFloat:
		return binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(v.Float()))
	case table.KindString:
		s := v.Str()
		b = binary.LittleEndian.AppendUint64(append(b, 's'), uint64(len(s)))
		return append(b, s...)
	case table.KindBool:
		if v.Bool() {
			return append(b, 'b', 1)
		}
		return append(b, 'b', 0)
	}
	return append(b, '?')
}

// resultHash fingerprints a query result: every row value (exact bits,
// in order), then every group estimate's key, values, standard errors
// and sample support.
func resultHash(res *quickr.Result) string {
	h := sha256.New()
	var buf []byte
	for _, row := range res.InternalRows {
		buf = buf[:0]
		for _, v := range row {
			buf = appendExact(buf, v)
		}
		h.Write(append(buf, 0xff))
	}
	for _, g := range res.Estimates {
		buf = append(buf[:0], 0xfe)
		for _, k := range g.Key {
			buf = appendAnyExact(buf, k)
		}
		for _, v := range g.Values {
			buf = appendAnyExact(buf, v)
		}
		for _, se := range g.StdErr {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(se))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.SampleRows))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendAnyExact encodes the result API's any-typed values (the
// rowToAny image of a table.Value) with the same exactness.
func appendAnyExact(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, 'n')
	case int64:
		return binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(x))
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(x))
	case string:
		b = binary.LittleEndian.AppendUint64(append(b, 's'), uint64(len(x)))
		return append(b, x...)
	case bool:
		if x {
			return append(b, 'b', 1)
		}
		return append(b, 'b', 0)
	default:
		return append(b, fmt.Sprintf("?%v", x)...)
	}
}

// BuildBenchReport runs the given queries through the harness and
// collects the per-operator breakdowns.
func BuildBenchReport(env *Env, queries []workload.Query, experiment string, sf float64) (*BenchReport, error) {
	rep := &BenchReport{Experiment: experiment, ScaleFactor: sf}
	outcomes := RunSuite(env, queries)
	// With a sample cache configured, RunSuite's approximate runs have
	// populated it; replay every query once while the cache is still
	// intact (the per-query loop below bumps the config epoch) and
	// require bit-identical answers. Evicted entries just re-run the lazy
	// path, which must produce the same bits anyway.
	warmHashes := map[string]string{}
	if env.Eng.SampleCacheBudget() > 0 {
		for _, out := range outcomes {
			if out.Err != nil {
				continue
			}
			warm, err := env.Eng.ExecApprox(out.Query.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s warm replay: %w", out.Query.ID, err)
			}
			cold, wh := resultHash(out.Approx), resultHash(warm)
			if wh != cold {
				return nil, fmt.Errorf("%s: warm replay hash %s differs from cold run %s — cached sampler output is not bit-identical",
					out.Query.ID, wh[:12], cold[:12])
			}
			warmHashes[out.Query.ID] = wh
		}
	}
	for _, out := range outcomes {
		if out.Err != nil {
			return nil, out.Err
		}
		q := QueryBenchReport{
			ID:               out.Query.ID,
			Sampled:          out.Sampled,
			Unapproximable:   out.Unapproximable,
			GainMachineHours: out.GainMachineHours,
			GainRuntime:      out.GainRuntime,
			GainIntermediate: out.GainIntermediate,
			GainShuffled:     out.GainShuffled,
			MissedGroups:     out.MissedGroupsFull,
			AggError:         out.AggErrorFull,
			RateChecks:       []RateCheckReport{},
			ResultRows:       len(out.Approx.InternalRows),
			ResultHash:       resultHash(out.Approx),
			WarmHash:         warmHashes[out.Query.ID],
			Approx:           out.Approx.RunReport(out.Query.SQL, true),
		}
		q.PeakInflightBytes = out.Approx.PeakInFlightBytes
		// Re-run with whole-partition batches to record their footprint
		// next to the streaming one, then restore the configured batch
		// size (not necessarily the default).
		prevBatch := env.Eng.BatchSize()
		env.Eng.SetBatchSize(-1)
		mat, err := env.Eng.ExecApprox(out.Query.SQL)
		env.Eng.SetBatchSize(prevBatch)
		if err != nil {
			return nil, err
		}
		q.PeakMaterializedBytes = mat.PeakInFlightBytes
		for _, c := range out.RateChecks {
			q.RateChecks = append(q.RateChecks, RateCheckReport{
				Op: c.Op, Type: c.Type, P: c.P,
				Seen: c.Seen, Passed: c.Passed, Rate: c.Rate,
				Tolerance: c.Tolerance, OK: c.OK, Note: c.Note,
			})
			if !c.OK {
				q.RateFailures++
			}
		}
		rep.Queries = append(rep.Queries, q)
	}
	conc, err := MeasureConcurrency(env, queries, 8, 3)
	if err != nil {
		return nil, err
	}
	rep.Concurrency = conc
	return rep, nil
}

// Write serializes the report as BENCH_<experiment>.json under dir and
// returns the written path.
func (r *BenchReport) Write(dir string) (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	b = append(b, '\n')
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", r.Experiment))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// SmokeQueries is the tiny query subset the CI smoke-bench runs: one
// query per suite, covering a join, a plain aggregate and the log
// workload.
func SmokeQueries() []workload.Query {
	pick := func(qs []workload.Query, n int) []workload.Query {
		if len(qs) < n {
			n = len(qs)
		}
		return qs[:n]
	}
	var out []workload.Query
	out = append(out, pick(workload.TPCDSQueries(), 2)...)
	out = append(out, pick(workload.TPCHQueries(), 1)...)
	out = append(out, pick(workload.OtherQueries(), 1)...)
	return out
}
