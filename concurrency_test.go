package quickr_test

// The concurrency battery: many mixed exact/approx benchmark queries in
// flight on one Engine — sharing the process-wide worker pool, the
// byte-budget admission gate and the plan cache — must return answers
// bit-identical to serial execution at every batch size, stay clean
// under -race, survive mid-flight cancellation, and leak no goroutines.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"quickr"
	"quickr/internal/data"
	"quickr/internal/exec"
	"quickr/internal/testutil"
	"quickr/internal/workload"
)

// newTPCDSEngine loads the TPC-DS-like warehouse at a small scale.
func newTPCDSEngine(tb testing.TB, sf float64) *quickr.Engine {
	tb.Helper()
	cfg := data.DefaultTPCDS()
	cfg.ScaleFactor = sf
	ds := data.GenerateTPCDS(cfg)
	eng := quickr.New()
	for name, t := range ds.Tables {
		eng.RegisterStored(t, ds.PKs[name]...)
	}
	return eng
}

// canonical renders a result's rows as sorted strings, so comparisons
// are insensitive to row order but exact on every value.
func canonical(res *quickr.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, fmt.Sprintf("%v", r))
	}
	sort.Strings(out)
	return out
}

func sameCanonical(tb testing.TB, label string, want, got []string) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			tb.Fatalf("%s: row %d differs:\n got  %s\n want %s", label, i, got[i], want[i])
		}
	}
}

type hammerCase struct {
	id     string
	sql    string
	approx bool
}

// hammerCases pairs the first workload queries with both execution
// modes.
func hammerCases(n int) []hammerCase {
	qs := workload.TPCDSQueries()
	if n > len(qs) {
		n = len(qs)
	}
	var out []hammerCase
	for _, q := range qs[:n] {
		out = append(out,
			hammerCase{id: q.ID + "/exact", sql: q.SQL, approx: false},
			hammerCase{id: q.ID + "/approx", sql: q.SQL, approx: true},
		)
	}
	return out
}

func execMode(eng *quickr.Engine, ctx context.Context, c hammerCase) (*quickr.Result, error) {
	if c.approx {
		return eng.ExecApproxContext(ctx, c.sql)
	}
	return eng.ExecContext(ctx, c.sql)
}

// TestConcurrentHammerBitIdentical runs 32+ concurrent mixed queries per
// batch-size round on one engine and requires every answer to match its
// serial reference exactly. Under -race this is the concurrency
// acceptance gate.
func TestConcurrentHammerBitIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTPCDSEngine(t, 0.05)
	cases := hammerCases(8) // 16 (query, mode) combos

	// Serial references. Results are bit-identical across batch sizes by
	// the pipeline invariant, so one reference per combo suffices.
	refs := make(map[string][]string, len(cases))
	for _, c := range cases {
		res, err := execMode(eng, context.Background(), c)
		if err != nil {
			t.Fatalf("%s serial: %v", c.id, err)
		}
		refs[c.id] = canonical(res)
	}

	batches := []int{7, 256, 0, -1}
	if testing.Short() {
		batches = []int{0}
	}
	for _, batch := range batches {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			eng.SetBatchSize(batch) // bumps the epoch; no queries in flight here
			const workers = 32
			var wg sync.WaitGroup
			var cacheHits int64
			var mu sync.Mutex
			for w := 0; w < workers; w++ {
				c := cases[w%len(cases)]
				wg.Add(1)
				go func(w int, c hammerCase) {
					defer wg.Done()
					res, err := execMode(eng, context.Background(), c)
					if err != nil {
						t.Errorf("worker %d %s: %v", w, c.id, err)
						return
					}
					sameCanonical(t, fmt.Sprintf("worker %d %s", w, c.id), refs[c.id], canonical(res))
					mu.Lock()
					if res.PlanCached {
						cacheHits++
					}
					mu.Unlock()
				}(w, c)
			}
			wg.Wait()
			// 32 workers over 16 combos: the second execution of every
			// combo must hit the plan cache.
			if cacheHits == 0 {
				t.Error("no plan-cache hits across 32 concurrent executions of 16 distinct plans")
			}
		})
	}
}

// TestConcurrentCancelLeavesOthersIntact cancels one long query
// mid-flight and requires: the victim returns ErrCanceled promptly (one
// batch boundary), concurrently running queries still return answers
// bit-identical to serial, no run ledger is left open and the next query
// is bit-identical too.
func TestConcurrentCancelLeavesOthersIntact(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTPCDSEngine(t, 0.05)
	eng.SetBatchSize(32) // small batches → many cancellation points

	cases := hammerCases(4)
	refs := make(map[string][]string, len(cases))
	for _, c := range cases {
		res, err := execMode(eng, context.Background(), c)
		if err != nil {
			t.Fatalf("%s serial: %v", c.id, err)
		}
		refs[c.id] = canonical(res)
	}
	open := exec.OpenLedgers()

	victimSQL := cases[0].sql
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type victimOutcome struct {
		err   error
		since time.Duration // return latency measured from cancel()
	}
	victimCh := make(chan victimOutcome, 1)
	var canceledAt time.Time
	var onceCancel sync.Once
	doCancel := func() {
		onceCancel.Do(func() {
			canceledAt = time.Now()
			cancel()
		})
	}
	go func() {
		// Keep re-running the victim until a run is caught mid-flight by
		// the cancel (queries at this scale are fast; retry makes the
		// interleave deterministic enough without sleeps).
		for {
			_, err := eng.ExecContext(ctx, victimSQL)
			if err != nil || ctx.Err() != nil {
				victimCh <- victimOutcome{err: err, since: time.Since(canceledAt)}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		c := cases[w%len(cases)]
		wg.Add(1)
		go func(w int, c hammerCase) {
			defer wg.Done()
			if w == 7 {
				doCancel()
			}
			res, err := execMode(eng, context.Background(), c)
			if err != nil {
				t.Errorf("bystander %d %s: %v", w, c.id, err)
				return
			}
			sameCanonical(t, fmt.Sprintf("bystander %d %s", w, c.id), refs[c.id], canonical(res))
		}(w, c)
	}
	wg.Wait()
	doCancel()

	select {
	case out := <-victimCh:
		if out.err != nil && !errors.Is(out.err, quickr.ErrCanceled) {
			t.Fatalf("victim returned %v, want ErrCanceled (or nil for a run finished pre-cancel)", out.err)
		}
		if out.since > 10*time.Second {
			t.Fatalf("victim took %v after cancel to return", out.since)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("victim never returned after cancel")
	}
	// Every run released its payload slabs once, the canceled one too,
	// and the next query over the recycled (under -race, poisoned) slabs
	// gives the serial answer.
	if got := exec.OpenLedgers(); got != open {
		t.Fatalf("%d run ledgers open after the cancel, want %d", got, open)
	}
	res, err := execMode(eng, context.Background(), cases[0])
	if err != nil {
		t.Fatalf("%s after the cancel: %v", cases[0].id, err)
	}
	sameCanonical(t, cases[0].id+" after the cancel", refs[cases[0].id], canonical(res))
}

// TestCancelBeforeExecution: a context canceled before submission stops
// the query at the admission gate with the typed error.
func TestCancelBeforeExecution(t *testing.T) {
	eng := newTPCDSEngine(t, 0.01)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.ExecContext(ctx, workload.TPCDSQueries()[0].SQL)
	if !errors.Is(err, quickr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestDeadlineMapsToErrDeadline: an already-expired deadline returns the
// deadline-typed error.
func TestDeadlineMapsToErrDeadline(t *testing.T) {
	eng := newTPCDSEngine(t, 0.01)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := eng.ExecContext(ctx, workload.TPCDSQueries()[0].SQL)
	if !errors.Is(err, quickr.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

// TestConcurrentMixedChaos interleaves queries, cancels and repeated
// plans with randomized timing; every outcome must be either a correct
// answer or a typed cancellation — never a wrong answer, panic or leak.
func TestConcurrentMixedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos hammer skipped in -short")
	}
	testutil.VerifyNoLeaks(t)
	eng := newTPCDSEngine(t, 0.05)
	cases := hammerCases(6)
	refs := make(map[string][]string, len(cases))
	for _, c := range cases {
		res, err := execMode(eng, context.Background(), c)
		if err != nil {
			t.Fatalf("%s serial: %v", c.id, err)
		}
		refs[c.id] = canonical(res)
	}

	const workers = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 6; round++ {
				c := cases[rng.Intn(len(cases))]
				ctx := context.Background()
				cancelSoon := rng.Intn(3) == 0
				var cancel context.CancelFunc
				if cancelSoon {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2000))*time.Microsecond)
				}
				res, err := execMode(eng, ctx, c)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					sameCanonical(t, fmt.Sprintf("chaos %d/%d %s", w, round, c.id), refs[c.id], canonical(res))
				case errors.Is(err, quickr.ErrCanceled) || errors.Is(err, quickr.ErrDeadline):
					if !cancelSoon {
						t.Errorf("chaos %d/%d %s: spurious cancellation: %v", w, round, c.id, err)
					}
				default:
					t.Errorf("chaos %d/%d %s: %v", w, round, c.id, err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// bitExact renders rows and per-group estimates (standard errors and
// supports included) so two results compare exactly, whatever their row
// order.
func bitExact(res *quickr.Result) []string {
	out := canonical(res)
	for _, g := range res.Estimates {
		out = append(out, fmt.Sprintf("est %v %v %v %d", g.Key, g.Values, g.StdErr, g.SampleRows))
	}
	sort.Strings(out)
	return out
}

// TestConcurrentReconfigure is the test the engine's lock comments used
// to stand in for: 16 goroutines loop exact, approximate and
// error-contract queries on one engine while another goroutine cycles
// every setting that promises bit-identical answers (batch size, sample
// cache on/off, the same seed again). Each query runs under
// the one snapshot it loaded, so no answer may differ from the quiesced
// baseline and no query may fail; afterwards no goroutine is left over
// and the plan cache serves repeats again.
func TestConcurrentReconfigure(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const seed = 7
	eng := newLogsEngine(t, 20000)
	eng.SetSeed(seed)
	// The history store may move a contract's starting rung between runs
	// of the same query; frozen, every run walks the same ladder.
	eng.SetHistoryLearning(false)

	// d01, d02 and d06 are the panels that sample at this scale; d02's
	// contract misses its first rung and settles on the second.
	panels := workload.DashboardQueries()
	var cases []hammerCase
	for _, q := range []workload.Query{panels[0], panels[1], panels[5]} {
		cases = append(cases,
			hammerCase{id: q.ID + "/exact", sql: q.SQL},
			hammerCase{id: q.ID + "/approx", sql: q.SQL, approx: true})
	}
	cases = append(cases, hammerCase{id: "d02/contract", approx: true,
		sql: panels[1].SQL + " ERROR WITHIN 10% CONFIDENCE 95%"})
	refs := make(map[string][]string, len(cases))
	for _, c := range cases {
		res, err := execMode(eng, context.Background(), c)
		if err != nil {
			t.Fatalf("%s baseline: %v", c.id, err)
		}
		if c.approx && !res.Sampled {
			t.Fatalf("%s baseline is not sampled: nothing for a torn configuration to change", c.id)
		}
		if res.Contract != nil && res.Contract.Attempts < 2 {
			t.Fatalf("%s baseline took %d attempt(s): no second rung to run under the first one's snapshot", c.id, res.Contract.Attempts)
		}
		refs[c.id] = bitExact(res)
	}

	const workers, rounds = 16, 6
	steps := []func(){
		func() { eng.SetBatchSize(1) },
		func() { eng.SetSampleCache(quickr.DefaultSampleCacheBytes) },
		func() { eng.SetBatchSize(7) },
		func() { eng.SetBatchSize(0) },
		func() { eng.SetSampleCache(0) },
		func() { eng.SetBatchSize(-1) },
		func() { eng.SetSeed(seed) },
	}
	// One settings call per finished query: paced by the workers, so the
	// other fifteen are mid-query whenever the configuration changes.
	finished := make(chan struct{}, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := cases[(w+r)%len(cases)]
				res, err := execMode(eng, context.Background(), c)
				finished <- struct{}{}
				if err != nil {
					t.Errorf("worker %d round %d %s: %v", w, r, c.id, err)
					continue
				}
				if want, got := refs[c.id], bitExact(res); !slices.Equal(want, got) {
					t.Errorf("worker %d round %d %s differs from the quiesced baseline:\n got  %v\n want %v", w, r, c.id, got, want)
				}
			}
		}(w)
	}
	for i := 0; i < workers*rounds; i++ {
		<-finished
		steps[i%len(steps)]()
	}
	wg.Wait()

	c := cases[1]
	if _, err := execMode(eng, context.Background(), c); err != nil {
		t.Fatal(err)
	}
	res, err := execMode(eng, context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCached {
		t.Error("repeat query after the storm was not a plan-cache hit")
	}
}
