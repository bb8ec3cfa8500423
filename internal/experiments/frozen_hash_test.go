package experiments

// The frozen result-hash oracle. testdata/golden/result_hashes.golden
// was written at commit 6436788 — the last commit that had a
// row-at-a-time pipeline — by that row path run with whole-partition
// batches (`-batch -1`), and verified equal under `-columnar` in the
// same run. It is the only thing standing in for the deleted row twin:
// the single executor must reproduce every hash at every batch size and
// with the sample cache off, cold and warm.
//
// It has been regenerated twice since, each time for a change meant to
// alter answers:
//   - universe coordinates from the seeded key hash: q38's approximate
//     plan samples other keys (one line);
//   - groups and strata emitted in the order they were first met, not
//     sorted by their string keys: 117 of 124 lines, rows reordered. As
//     multisets of rows and estimates, 121 answers were bit-identical to
//     the previous ones, and q04 approx, q37 exact and q37 approx
//     differed within 1e-15 relative, their float sums adding in the
//     new order.
//
// Regenerating the file (go test ./internal/experiments -run
// TestFrozenResultHashes -freeze-result-hashes; the flag must follow the
// package) replaces the oracle with whatever the executor answers
// today, so the commit that does it must state why the answers were
// meant to change.

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"quickr"
	"quickr/internal/data"
	"quickr/internal/metrics"
	"quickr/internal/workload"
)

var freezeHashes = flag.Bool("freeze-result-hashes", false,
	"rewrite testdata/golden/result_hashes.golden (state the reason in the commit)")

const frozenHashPath = "../../testdata/golden/result_hashes.golden"

// newFrozenEnv loads TPC-DS-like and TPC-H-like data at sf 0.2 and 5 000
// log rows, sampler seed 1: small enough for tier 1, large enough that
// ASALQA samples 26 of the 62 queries (at the benchmark's sf 0.05
// cross-check scale only 15 approx hashes differ from their exact twin).
func newFrozenEnv() *Env {
	env := NewTPCDSEnv(0.2)
	hcfg := data.DefaultTPCH()
	hcfg.ScaleFactor = 0.2
	h := data.GenerateTPCH(hcfg)
	for name, t := range h.Tables {
		env.Eng.RegisterStored(t, h.PKs[name]...)
	}
	env.Eng.RegisterStored(data.Logs(5000, 777, 8))
	env.Eng.SetSeed(1)
	return env
}

func frozenQueries() []workload.Query {
	var qs []workload.Query
	qs = append(qs, workload.TPCDSQueries()...)
	qs = append(qs, workload.TPCHQueries()...)
	return append(qs, workload.OtherQueries()...)
}

func TestFrozenResultHashes(t *testing.T) {
	env := newFrozenEnv()
	queries := frozenQueries()

	if *freezeHashes {
		env.Eng.SetBatchSize(-1)
		var b strings.Builder
		b.WriteString("# <query> <mode> <result rows> <SHA-256 of bit-exact rows + estimates>\n")
		b.WriteString("# Frozen oracle, see internal/experiments/frozen_hash_test.go before regenerating.\n")
		for _, q := range queries {
			for _, approx := range []bool{false, true} {
				_, line := frozenRun(t, env, q, approx)
				b.WriteString(line + "\n")
			}
		}
		if err := os.WriteFile(frozenHashPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(frozenHashPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // "<query> <mode>" → full line
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] != "#" {
			want[f[0]+" "+f[1]] = line
		}
	}
	if len(want) != 2*len(queries) {
		t.Fatalf("oracle holds %d entries, want %d", len(want), 2*len(queries))
	}
	check := func(t *testing.T, state string, q workload.Query, approx bool) {
		key, got := frozenRun(t, env, q, approx)
		if got != want[key] {
			t.Errorf("%s:\n  got  %s\n  want %s", state, got, want[key])
		}
	}
	for _, bs := range []int{1, 7, 256, -1} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			env.Eng.SetBatchSize(bs) // bumps the epoch: the cache below starts cold
			env.Eng.SetSampleCache(0)
			for _, q := range queries {
				check(t, "cache off", q, false)
				check(t, "cache off", q, true)
			}
			env.Eng.SetSampleCache(quickr.DefaultSampleCacheBytes)
			hits0 := metrics.SampleCacheHits.Load()
			for _, q := range queries {
				check(t, "cache cold", q, true)
				check(t, "cache warm", q, true)
			}
			if metrics.SampleCacheHits.Load() == hits0 {
				t.Error("no sample-cache hits: the warm path was never exercised")
			}
		})
	}
}

// frozenRun executes q and renders its oracle entry — query, mode, row
// count, result hash — returning the entry's "<query> <mode>" key too.
func frozenRun(t *testing.T, env *Env, q workload.Query, approx bool) (key, line string) {
	t.Helper()
	run, mode := env.Eng.Exec, "exact"
	if approx {
		run, mode = env.Eng.ExecApprox, "approx"
	}
	res, err := run(q.SQL)
	if err != nil {
		t.Fatalf("%s %s: %v", q.ID, mode, err)
	}
	key = q.ID + " " + mode
	return key, fmt.Sprintf("%s %d %s", key, len(res.InternalRows), resultHash(res))
}
