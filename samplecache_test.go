package quickr_test

// The hot-sample-reuse battery: with a sample cache enabled, warm
// replays of the dashboard panels must be bit-identical to the cold lazy
// path, invalidation (data loads, engine reconfiguration) must never let
// a stale sample answer a query, and the cache must stay correct under
// concurrent hammers and byte-budget pressure — all clean under -race.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"quickr"
	"quickr/internal/data"
	"quickr/internal/metrics"
	"quickr/internal/testutil"
	"quickr/internal/workload"
)

// newLogsEngine loads the web-log table the dashboard panels query.
func newLogsEngine(tb testing.TB, rows int) *quickr.Engine {
	tb.Helper()
	eng := quickr.New()
	eng.RegisterStored(data.Logs(rows, 777, 8))
	return eng
}

// dashboardRefs turns eng's sample cache off, executes every panel once
// and returns canonical per-panel references. Sampler seeds are a pure
// function of the plan, so these references are valid for every later
// run regardless of cache configuration.
func dashboardRefs(tb testing.TB, eng *quickr.Engine) map[string][]string {
	tb.Helper()
	eng.SetSampleCache(0)
	refs := make(map[string][]string)
	sampled := 0
	for _, q := range workload.DashboardQueries() {
		res, err := eng.ExecApprox(q.SQL)
		if err != nil {
			tb.Fatalf("%s: %v", q.ID, err)
		}
		if res.Sampled {
			sampled++
		}
		refs[q.ID] = canonical(res)
	}
	if sampled == 0 {
		tb.Fatal("no dashboard panel sampled: the cache has nothing to exercise at this scale")
	}
	return refs
}

// TestSampleCacheOnByDefault: a fresh engine replays every sampled
// panel from its second run on, with the answers of an engine whose
// cache is off. A replay reads no partition and costs fewer passes than
// the lazy run, but still divides them by the fragment's input.
func TestSampleCacheOnByDefault(t *testing.T) {
	off := newLogsEngine(t, 50000)
	refs := dashboardRefs(t, off)
	eng := newLogsEngine(t, 50000)
	sampled := 0
	for _, q := range workload.DashboardQueries() {
		cold, err := eng.ExecApprox(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		sameCanonical(t, q.ID+"/cold", refs[q.ID], canonical(cold))
		if !cold.Sampled {
			continue
		}
		sampled++
		if !strings.Contains(cold.PlanText, "CachedSample") {
			t.Errorf("%s: sampled, but the default plan caches nothing:\n%s", q.ID, cold.PlanText)
		}
		for run := 2; run <= 3; run++ {
			hits0, misses0 := metrics.SampleCacheHits.Load(), metrics.SampleCacheMisses.Load()
			warm, err := eng.ExecApprox(q.SQL)
			if err != nil {
				t.Fatalf("%s run %d: %v", q.ID, run, err)
			}
			if metrics.SampleCacheHits.Load() == hits0 || metrics.SampleCacheMisses.Load() != misses0 {
				t.Errorf("%s run %d is not a replay", q.ID, run)
			}
			sameCanonical(t, fmt.Sprintf("%s run %d", q.ID, run), refs[q.ID], canonical(warm))
			if p := warm.Metrics.Passes; math.IsInf(p, 0) || math.IsNaN(p) || p <= 0 || p > cold.Metrics.Passes {
				t.Errorf("%s run %d: passes %v, want in (0, %v]", q.ID, run, p, cold.Metrics.Passes)
			}
			if warm.PartitionsScanned != 0 {
				t.Errorf("%s run %d scanned %d partitions", q.ID, run, warm.PartitionsScanned)
			}
		}
	}
	if sampled == 0 {
		t.Fatal("no dashboard panel sampled")
	}
	for _, q := range workload.DashboardQueries() {
		res, err := off.ExecApprox(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if strings.Contains(res.PlanText, "CachedSample") {
			t.Errorf("%s: the cache is off, yet the plan caches a sample:\n%s", q.ID, res.PlanText)
		}
	}
}

func TestSampleCacheWarmColdBitIdentical(t *testing.T) {
	eng := newLogsEngine(t, 50000)
	refs := dashboardRefs(t, eng)

	eng.SetSampleCache(quickr.DefaultSampleCacheBytes)
	misses0 := metrics.SampleCacheMisses.Load()
	for _, q := range workload.DashboardQueries() { // populate pass
		res, err := eng.ExecApprox(q.SQL)
		if err != nil {
			t.Fatalf("%s populate: %v", q.ID, err)
		}
		sameCanonical(t, q.ID+"/populate", refs[q.ID], canonical(res))
	}
	if metrics.SampleCacheMisses.Load() == misses0 {
		t.Fatal("populate pass recorded no cache misses")
	}
	hits0 := metrics.SampleCacheHits.Load()
	for _, q := range workload.DashboardQueries() { // warm pass
		res, err := eng.ExecApprox(q.SQL)
		if err != nil {
			t.Fatalf("%s warm: %v", q.ID, err)
		}
		sameCanonical(t, q.ID+"/warm", refs[q.ID], canonical(res))
	}
	if metrics.SampleCacheHits.Load() == hits0 {
		t.Fatal("warm pass recorded no cache hits: replays never served")
	}
}

// TestSampleCacheInsertInvalidation loads new rows into a table with a
// warm cache and requires the next query to see them: the cached entry's
// key embeds the table version, so the load strands it.
func TestSampleCacheInsertInvalidation(t *testing.T) {
	eng := newLogsEngine(t, 50000)
	eng.SetSampleCache(quickr.DefaultSampleCacheBytes)
	panel := workload.DashboardQueries()[0] // traffic by country

	var before []string
	for i := 0; i < 2; i++ { // second run is a warm replay
		res, err := eng.ExecApprox(panel.SQL)
		if err != nil {
			t.Fatal(err)
		}
		before = canonical(res)
	}

	// A load big enough that the panel's answer must change: a country
	// value the generator never emits, in bulk.
	var load [][]any
	for i := 0; i < 5000; i++ {
		load = append(load, []any{int64(i), int64(1), "/page/1", "ZZ", int64(200), int64(1000), 2.5})
	}
	if err := eng.Insert("weblogs", load); err != nil {
		t.Fatal(err)
	}

	warm, err := eng.ExecApprox(panel.SQL)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSampleCache(0)
	fresh, err := eng.ExecApprox(panel.SQL)
	if err != nil {
		t.Fatal(err)
	}
	sameCanonical(t, "post-insert warm vs cache-off", canonical(fresh), canonical(warm))
	if fmt.Sprintf("%v", canonical(warm)) == fmt.Sprintf("%v", before) {
		t.Fatal("post-insert result identical to pre-insert: a stale cached sample answered the query")
	}
}

// TestConcurrentSampleCacheWarmHammer replays the dashboard panels from
// 32 concurrent submitters against one warm cache; every answer must be
// bit-identical to the cold reference. Under -race this is the cache's
// concurrency acceptance gate.
func TestConcurrentSampleCacheWarmHammer(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newLogsEngine(t, 50000)
	refs := dashboardRefs(t, eng)
	panels := workload.DashboardQueries()

	eng.SetSampleCache(quickr.DefaultSampleCacheBytes)
	for _, q := range panels { // populate
		if _, err := eng.ExecApprox(q.SQL); err != nil {
			t.Fatalf("%s populate: %v", q.ID, err)
		}
	}

	hits0 := metrics.SampleCacheHits.Load()
	const workers = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		q := panels[w%len(panels)]
		wg.Add(1)
		go func(w int, q workload.Query) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res, err := eng.ExecApprox(q.SQL)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, q.ID, err)
					return
				}
				sameCanonical(t, fmt.Sprintf("worker %d round %d %s", w, round, q.ID), refs[q.ID], canonical(res))
			}
		}(w, q)
	}
	wg.Wait()
	if metrics.SampleCacheHits.Load() == hits0 {
		t.Error("no cache hits across 96 warm replays")
	}
}

// TestConcurrentSampleCacheReconfigure flips the cache on, off and into
// a rejecting 1-byte budget while 16 submitters keep querying. Every
// configuration change bumps the config epoch mid-populate and
// mid-replay; no answer may ever differ from the cold reference.
func TestConcurrentSampleCacheReconfigure(t *testing.T) {
	if testing.Short() {
		t.Skip("reconfigure hammer skipped in -short")
	}
	testutil.VerifyNoLeaks(t)
	eng := newLogsEngine(t, 20000)
	refs := dashboardRefs(t, eng)
	panels := workload.DashboardQueries()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		q := panels[w%len(panels)]
		wg.Add(1)
		go func(w int, q workload.Query) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.ExecApprox(q.SQL)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, q.ID, err)
					return
				}
				sameCanonical(t, fmt.Sprintf("worker %d round %d %s", w, round, q.ID), refs[q.ID], canonical(res))
			}
		}(w, q)
	}
	// The reconfiguration storm: budgets that enable, disable and starve
	// the cache (1 byte admits nothing — every populate is rejected and
	// every query falls back to the lazy fragment).
	for i := 0; i < 30; i++ {
		eng.SetSampleCache([]int64{quickr.DefaultSampleCacheBytes, 0, 1}[i%3])
	}
	close(stop)
	wg.Wait()
}

// TestSampleCacheStarvedBudgetFallsBack configures a budget no fragment
// fits in: the cache must reject every populate and serve nothing, with
// all answers still bit-identical to the reference.
func TestSampleCacheStarvedBudgetFallsBack(t *testing.T) {
	eng := newLogsEngine(t, 20000)
	refs := dashboardRefs(t, eng)

	eng.SetSampleCache(1)
	rejects0 := metrics.SampleCacheRejects.Load()
	hits0 := metrics.SampleCacheHits.Load()
	for round := 0; round < 2; round++ {
		for _, q := range workload.DashboardQueries() {
			res, err := eng.ExecApprox(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			sameCanonical(t, fmt.Sprintf("starved round %d %s", round, q.ID), refs[q.ID], canonical(res))
		}
	}
	if metrics.SampleCacheRejects.Load() == rejects0 {
		t.Error("starved budget recorded no admission rejects")
	}
	if metrics.SampleCacheHits.Load() != hits0 {
		t.Error("starved cache served a hit: an entry was admitted under a 1-byte budget")
	}
}
