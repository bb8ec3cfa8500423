package quickr_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"quickr"
	"quickr/internal/core"
	"quickr/internal/metrics"
	"quickr/internal/testutil"
)

// newSkewedEngine builds an engine over one table sk(g, v) whose value
// column carries a deterministic heavy spike (v=20 on every 61st row,
// v=1 otherwise). SUM(v*v) over it has a true squared coefficient of
// variation around 45, far above the optimizer's cv²=1 fallback for
// computed aggregate arguments — so cold error contracts over SUM(v*v)
// reliably under-predict and exercise the escalation ladder.
func newSkewedEngine(tb testing.TB, n, groups int) *quickr.Engine {
	tb.Helper()
	eng := quickr.New()
	if err := eng.CreateTable("sk", []quickr.Column{
		{Name: "g", Type: quickr.Int},
		{Name: "v", Type: quickr.Float},
	}, 4); err != nil {
		tb.Fatal(err)
	}
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		v := 1.0
		if i%61 == 0 {
			v = 20.0
		}
		rows = append(rows, []any{i % groups, v})
	}
	if err := eng.Insert("sk", rows); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// escalatorSQL is a contract the cold model predicts satisfiable at a
// mid-ladder rung but whose realized CI misses: the sampled attempts
// escalate and the run ends in the exact fallback.
const escalatorSQL = "SELECT g, SUM(v * v) FROM sk GROUP BY g ERROR WITHIN 6% CONFIDENCE 95%"

// TestContractEscalationCapExactFallback: a contract the sampler cannot
// satisfy walks the ladder at most maxEscalations+1 sampled attempts and
// lands on the exact plan, which satisfies the bound by construction.
func TestContractEscalationCapExactFallback(t *testing.T) {
	eng := newSkewedEngine(t, 40000, 8)
	res, err := eng.ExecApprox(escalatorSQL)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Contract
	if c == nil {
		t.Fatal("contract query must carry ContractInfo")
	}
	if c.Escalations == 0 {
		t.Fatalf("expected the cold model to under-predict and escalate, got %+v", c)
	}
	if !c.Exact || !c.Satisfied {
		t.Fatalf("ladder exhausted: want exact fallback satisfying the bound, got %+v", c)
	}
	if c.ChosenP != 0 {
		t.Fatalf("exact fallback must report ChosenP=0, got %v", c.ChosenP)
	}
	if c.Attempts > quickr.ContractMaxEscalations+2 {
		t.Fatalf("attempts %d exceed the escalation cap bound", c.Attempts)
	}
	if res.Sampled {
		t.Fatal("fallback result must be exact (not sampled)")
	}
}

// TestContractEscalationCapStopsLadder: a loose bound starts low on the
// ladder, so the sampled rungs outnumber the cap; the cap, not the
// ladder's end, ends the walk. ContractMaxEscalations+1 sampled misses
// (the last one over the cap) precede the exact fallback. History
// learning is off so no earlier miss informs the rung choice.
func TestContractEscalationCapStopsLadder(t *testing.T) {
	eng := newSkewedEngine(t, 40000, 8)
	eng.SetHistoryLearning(false)
	res, err := eng.ExecApprox("SELECT g, SUM(v * v) FROM sk GROUP BY g ERROR WITHIN 60% CONFIDENCE 95%")
	if err != nil {
		t.Fatal(err)
	}
	c := res.Contract
	if c == nil {
		t.Fatal("contract query must carry ContractInfo")
	}
	if c.Escalations != quickr.ContractMaxEscalations+1 || c.Attempts != quickr.ContractMaxEscalations+2 ||
		!c.Exact || !c.Satisfied {
		t.Fatalf("want %d sampled misses then exact, got %+v", quickr.ContractMaxEscalations+1, c)
	}
}

// TestPlanChecksFollowOptionsMaxP: every plan is verified against the
// probability cap ASALQA planned under, so raising MaxP through
// SetOptions lets a sampler above the paper's 0.1 default both plan
// and pass the checker.
func TestPlanChecksFollowOptionsMaxP(t *testing.T) {
	eng := newSkewedEngine(t, 40000, 8)
	opts := core.DefaultOptions()
	opts.K, opts.MaxP = 1000, 0.5
	eng.SetOptions(opts)
	res, err := eng.ExecApprox("SELECT g, SUM(v) FROM sk GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sampled || len(res.Samplers) == 0 {
		t.Fatalf("want a sampled plan, got samplers %+v", res.Samplers)
	}
	for _, sm := range res.Samplers {
		if sm.P <= 0.1 || sm.P > opts.MaxP {
			t.Fatalf("sampler %+v: want p in (0.1, %g]", sm, opts.MaxP)
		}
	}
}

// TestContractLadderMonotone: a tighter error target never picks a
// smaller sampling probability. Uses SUM(v), whose argument has real
// column statistics, so the prediction is faithful and neither run
// escalates.
func TestContractLadderMonotone(t *testing.T) {
	loose := newSkewedEngine(t, 40000, 8)
	resLoose, err := loose.ExecApprox("SELECT g, SUM(v) FROM sk GROUP BY g ERROR WITHIN 20% CONFIDENCE 95%")
	if err != nil {
		t.Fatal(err)
	}
	tight := newSkewedEngine(t, 40000, 8)
	resTight, err := tight.ExecApprox("SELECT g, SUM(v) FROM sk GROUP BY g ERROR WITHIN 9% CONFIDENCE 95%")
	if err != nil {
		t.Fatal(err)
	}
	cl, ct := resLoose.Contract, resTight.Contract
	if cl == nil || ct == nil {
		t.Fatal("both runs must carry ContractInfo")
	}
	if !resLoose.Sampled || !resTight.Sampled {
		t.Fatalf("both contracts should be satisfiable by sampling: loose=%+v tight=%+v", cl, ct)
	}
	if ct.ChosenP < cl.ChosenP {
		t.Fatalf("tighter bound picked smaller p: 9%% -> %v, 20%% -> %v", ct.ChosenP, cl.ChosenP)
	}
	if !cl.Satisfied || !ct.Satisfied {
		t.Fatalf("both contracts must be satisfied: loose=%+v tight=%+v", cl, ct)
	}
}

// TestContractRetriesHitPlanCache: with history learning off the second
// run of an escalating contract walks the identical rung sequence, and
// every attempt — each ladder rung and the exact fallback — must be
// served from the plan cache.
func TestContractRetriesHitPlanCache(t *testing.T) {
	eng := newSkewedEngine(t, 40000, 8)
	eng.SetHistoryLearning(false) // before the cold run: setters purge the cache

	cold, err := eng.ExecApprox(escalatorSQL)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Contract == nil || cold.Contract.Escalations == 0 {
		t.Fatalf("cold run must escalate, got %+v", cold.Contract)
	}

	hitsBefore := metrics.PlanCacheHits.Load()
	warm, err := eng.ExecApprox(escalatorSQL)
	if err != nil {
		t.Fatal(err)
	}
	c := warm.Contract
	if c == nil {
		t.Fatal("contract query must carry ContractInfo")
	}
	if c.Attempts != cold.Contract.Attempts {
		t.Fatalf("history off: warm run must repeat the cold rung walk (%d attempts), got %d",
			cold.Contract.Attempts, c.Attempts)
	}
	if c.PlanCacheHits != c.Attempts {
		t.Fatalf("every retry must be a plan-cache hit: attempts=%d hits=%d", c.Attempts, c.PlanCacheHits)
	}
	if got := metrics.PlanCacheHits.Load() - hitsBefore; got < int64(c.Attempts) {
		t.Fatalf("global cache-hit counter advanced by %d, want >= %d", got, c.Attempts)
	}
}

// TestContractSuiteColdWarm runs the four shapes of contract — the cold
// under-predicted escalator, two directly satisfiable error bounds and a
// deadline — over the spike table, once against an empty history and
// once against what the first pass learned. No setting changes between
// the passes, so the warm pass replays against the cold pass's cached
// plans. Every run must satisfy its contract, the suite must escalate at
// least once, warm attempts must come from the plan cache, and learned
// corrections must not cost more escalations than cold estimates did.
func TestContractSuiteColdWarm(t *testing.T) {
	eng := newSkewedEngine(t, 40000, 8)
	suite := []string{
		escalatorSQL,
		"SELECT g, SUM(v) FROM sk GROUP BY g ERROR WITHIN 15% CONFIDENCE 95%",
		"SELECT g, COUNT(*) FROM sk GROUP BY g ERROR WITHIN 5% CONFIDENCE 95%",
		"SELECT g, SUM(v) FROM sk GROUP BY g WITHIN 10s",
	}
	const cold, warm = 0, 1
	var escalations, cacheHits [2]int
	for pass := range escalations {
		for _, q := range suite {
			res, err := eng.ExecApprox(q)
			if err != nil {
				t.Fatalf("pass %d %q: %v", pass, q, err)
			}
			if res.Contract == nil || !res.Contract.Satisfied {
				t.Fatalf("pass %d %q: contract violated: %+v", pass, q, res.Contract)
			}
			escalations[pass] += res.Contract.Escalations
			cacheHits[pass] += res.Contract.PlanCacheHits
		}
	}
	if escalations[cold]+escalations[warm] == 0 {
		t.Error("no run escalated: the suite no longer exercises the escalation path")
	}
	if cacheHits[warm] == 0 {
		t.Error("warm pass had zero plan-cache hits: contract retries re-plan from scratch")
	}
	if escalations[warm] > escalations[cold] {
		t.Errorf("warm escalations (%d) exceed cold (%d): learned corrections regressed",
			escalations[warm], escalations[cold])
	}
}

// TestContractCancellationNoLeaks: cancelling (or expiring) a contract
// run mid-escalation must leak no goroutines and surface the sentinel
// errors.
func TestContractCancellationNoLeaks(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newSkewedEngine(t, 40000, 8)

	// Already-cancelled context: fails before or during the first rung.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExecApproxContext(ctx, escalatorSQL); !errors.Is(err, quickr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}

	// A spread of tiny timeouts lands cancellation at different points
	// in the escalation loop; every outcome must be clean.
	for _, d := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		res, err := eng.ExecApproxContext(ctx, escalatorSQL)
		cancel()
		switch {
		case err == nil:
			if res.Contract == nil || !res.Contract.Satisfied {
				t.Fatalf("timeout %v: completed run must satisfy, got %+v", d, res.Contract)
			}
		case errors.Is(err, quickr.ErrCanceled) || errors.Is(err, quickr.ErrDeadline):
		default:
			t.Fatalf("timeout %v: got %v, want nil/ErrCanceled/ErrDeadline", d, err)
		}
	}
}

// TestDeadlineContractBudget: WITHIN <duration> contracts never exceed
// the budget by more than one executor batch — an expired deadline is
// honored at the next batch boundary.
func TestDeadlineContractBudget(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newSkewedEngine(t, 120000, 8)
	eng.SetBatchSize(256) // small batches keep the overrun bound tight

	// Generous budget: the query completes well inside it.
	start := time.Now()
	res, err := eng.ExecApprox("SELECT g, SUM(v) FROM sk GROUP BY g WITHIN 10s")
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("run exceeded its 10s budget: %v", el)
	}
	c := res.Contract
	if c == nil || !c.Satisfied || c.Deadline != 10*time.Second {
		t.Fatalf("deadline contract info wrong: %+v", c)
	}
	if c.Attempts != 1 {
		t.Fatalf("deadline contracts are single-attempt, got %d", c.Attempts)
	}

	// Impossibly tight budget: the run must stop at a batch boundary
	// right after expiry, not finish the scan. The slack term absorbs
	// scheduling noise; the point is it is far below full-query time.
	start = time.Now()
	_, err = eng.ExecApprox("SELECT g, SUM(v) FROM sk GROUP BY g WITHIN 1ms")
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, quickr.ErrDeadline) && !errors.Is(err, quickr.ErrCanceled) {
		t.Fatalf("tight deadline: got %v, want nil or ErrDeadline", err)
	}
	if elapsed > 1*time.Second {
		t.Fatalf("1ms deadline run took %v: deadline not honored at batch boundaries", elapsed)
	}
}

// TestContractOverUnion: a contract written after the last UNION ALL
// arm binds to the whole statement, so the engine runs it as a contract
// and reports it; one written on an earlier arm is a parse error.
func TestContractOverUnion(t *testing.T) {
	eng := newSkewedEngine(t, 20000, 8)
	res, err := eng.ExecApprox("SELECT COUNT(*) FROM sk UNION ALL SELECT SUM(v) FROM sk WITHIN 10s")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("union returned %d rows, want 2", len(res.Rows))
	}
	if c := res.Contract; c == nil || c.Deadline != 10*time.Second || c.Attempts != 1 {
		t.Fatalf("deadline contract over a union reported %+v", c)
	}
	if _, err := eng.ExecApprox("SELECT COUNT(*) FROM sk WITHIN 10s UNION ALL SELECT SUM(v) FROM sk"); err == nil {
		t.Fatal("a contract on an arm before the last must be a parse error")
	}
}
