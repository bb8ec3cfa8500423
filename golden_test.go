package quickr_test

// Golden-file tests for the two operator-facing text surfaces: the
// EXPLAIN ANALYZE annotated plan (including the service footer with
// queued= / admitted_bytes= / pool_wait= fields) and the -stats JSON
// run report. Timing-dependent values are scrubbed before comparison so
// the goldens pin structure and deterministic counts, not wall clocks.
// Regenerate with:  go test -run TestGolden -update .

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"quickr"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenSQL = `
	SELECT d_year, SUM(ss_ext_sales_price) AS total, COUNT(*) AS cnt
	FROM store_sales
	JOIN date_dim ON ss_sold_date_sk = d_date_sk
	GROUP BY d_year`

// scrubAnalyze zeroes the timing-dependent fields of the EXPLAIN
// ANALYZE text: wall clocks, queue/pool waits and the stolen-task count
// (which depends on scheduling and core count).
func scrubAnalyze(s string) string {
	for _, r := range []struct{ re, repl string }{
		{`wall=[0-9.]+ms`, `wall=<t>ms`},
		{`queued=[0-9.]+ms`, `queued=<t>ms`},
		{`pool_wait=[0-9.]+ms`, `pool_wait=<t>ms`},
		{`stolen=[0-9]+`, `stolen=<n>`},
	} {
		s = regexp.MustCompile(r.re).ReplaceAllString(s, r.repl)
	}
	return s
}

// scrubReport zeroes the timing- and scheduling-dependent fields of the
// JSON run report in place.
func scrubReport(rep *quickr.RunReport) {
	rep.Metrics.OptimizeSeconds = 0
	rep.Metrics.ExecSeconds = 0
	rep.Metrics.RowsPerSec = 0
	rep.Metrics.QueuedSeconds = 0
	rep.Metrics.PoolWaitSeconds = 0
	rep.Metrics.PoolStolen = 0
	for i := range rep.Operators {
		rep.Operators[i].WallMillis = 0
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if string(want) != string(got) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenContract pins the contract-facing text surfaces: the
// EXPLAIN ANALYZE "corrected=" annotations the learned history adds to
// operator estimates, and the run report's contract block (chosen p,
// attempts, cache hits, predicted/corrected/realized error). The query
// runs twice on one engine; the second (warm) run is the golden — it
// must show history_hit and a corrected prediction.
const goldenContractSQL = `
	SELECT ss_store_sk, SUM(ss_sales_price) AS total
	FROM store_sales
	GROUP BY ss_store_sk ERROR WITHIN 10% CONFIDENCE 95%`

func TestGoldenContract(t *testing.T) {
	eng := newTPCDSEngine(t, 1)
	eng.SetBatchSize(256)
	eng.SetSeed(1)

	if _, err := eng.ExecApprox(goldenContractSQL); err != nil {
		t.Fatal(err) // cold run primes the history store
	}
	res, err := eng.ExecApprox(goldenContractSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contract == nil || !res.Contract.HistoryHit {
		t.Fatalf("warm run must hit the history store, got %+v", res.Contract)
	}
	checkGolden(t, "analyze_contract.golden", []byte(scrubAnalyze(res.AnalyzedPlan)))

	rep := res.RunReport(goldenContractSQL, true)
	scrubReport(rep)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats_contract.golden", append(b, '\n'))
}

func TestGoldenExplainAnalyzeAndStats(t *testing.T) {
	eng := newTPCDSEngine(t, 0.01)
	eng.SetBatchSize(256)
	eng.SetSeed(1)

	for _, mode := range []struct {
		name   string
		approx bool
	}{{"exact", false}, {"approx", true}} {
		t.Run(mode.name, func(t *testing.T) {
			var res *quickr.Result
			var err error
			if mode.approx {
				res, err = eng.ExecApprox(goldenSQL)
			} else {
				res, err = eng.Exec(goldenSQL)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "analyze_"+mode.name+".golden", []byte(scrubAnalyze(res.AnalyzedPlan)))

			rep := res.RunReport(goldenSQL, mode.approx)
			scrubReport(rep)
			b, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "stats_"+mode.name+".golden", append(b, '\n'))
		})
	}
}
