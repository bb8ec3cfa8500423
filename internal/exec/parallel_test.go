package exec

// The executor's fan-out (executor.parallel) error-propagation contract:
// when one partition fails, every partition that already started still
// runs its teardown to completion before the call returns, unstarted
// partitions are skipped, and no goroutine survives the call. These were the gaps the
// old spawn-per-partition implementation left open (a failed partition
// abandoned its siblings mid-teardown and leaked their goroutines).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quickr/internal/cluster"
	"quickr/internal/table"
	"quickr/internal/testutil"
)

func TestParallelPartsErrorStillCompletesTeardown(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sentinel := errors.New("partition blew up")
	var started, tornDown atomic.Int64
	err := fanout(context.Background()).parallel(64, func(i int) error {
		started.Add(1)
		defer func() {
			// Teardown is deliberately slow so a premature return would
			// be caught with started > tornDown.
			time.Sleep(time.Millisecond)
			tornDown.Add(1)
		}()
		if i == 3 {
			return fmt.Errorf("part %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error lost: got %v", err)
	}
	if s, d := started.Load(), tornDown.Load(); s != d {
		t.Fatalf("parallel returned with %d partitions started but only %d torn down", s, d)
	}
}

func TestParallelPartsFirstErrorWins(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// Every partition fails; exactly one error (some partition's) must
	// surface, not a garbled merge and not nil.
	err := fanout(context.Background()).parallel(16, func(i int) error {
		return fmt.Errorf("part %d failed", i)
	})
	if err == nil {
		t.Fatal("all partitions failed but parallel returned nil")
	}
}

// What this test can assert: a cancellation that lands while tasks are
// still unclaimed maps to ErrCanceled and skips them. What it cannot: that
// a cancel racing no-op tasks lands before they are all claimed — if the
// pool's workers claim every task while task 0 is preempted before its
// cancel(), nothing is left to skip and nil is the right answer. So the
// other tasks wait for task 0 (tasks are claimed in index order, so task
// 0 is always claimed first) and only the caller plus one task per worker
// can be in flight when the cancel lands.
func TestParallelPartsCancelMapsToTypedError(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan struct{})
	var ran atomic.Int64
	err := fanout(ctx).parallel(1024, func(i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
			close(canceled)
		}
		<-canceled
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if ran.Load() == 1024 {
		t.Fatal("cancellation skipped no partitions")
	}
}

func TestParallelPartsDeadlineMapsToTypedError(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := fanout(ctx).parallel(8, func(i int) error { return nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

// TestPanicInTaskFailsOneQuery: a partition task that indexes out of
// range fails its query with ErrInternal, naming the panic and the
// task's frame; no goroutine is left behind, the shared pool runs the
// next job, and the next run of a plan is bit-identical to the one
// before.
func TestPanicInTaskFailsOneQuery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	plan, _ := aggOverExchangePlan()
	before, err := Run(plan, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]int32, 4)
	err = testExecutor(context.Background(), plan, 1024).parallel(8, func(i int) error {
		_ = lanes[i]
		return nil
	})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	t.Log(err)
	for _, want := range []string{"index out of range", "exec.TestPanicInTaskFailsOneQuery.func1 (parallel_test.go:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	after, err := Run(plan, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("%d rows after the panic, %d before", len(after.Rows), len(before.Rows))
	}
	for i, row := range before.Rows {
		for c, v := range row {
			if !sameValue(after.Rows[i][c], v) {
				t.Fatalf("row %d column %d: %v after the panic, %v before", i, c, after.Rows[i][c], v)
			}
		}
	}
	panicInRunReleasesLedger(t)
}

// panicInRunReleasesLedger: a task that panics inside a run (it reads a
// sample-cache entry whose partitions claim lanes their columns lack)
// fails the run with ErrInternal, the run's ledger is released exactly
// once, and the next run of the plan — on the recycled slabs, poisoned
// under the race detector — is bit-identical to the one before.
func panicInRunReleasesLedger(t *testing.T) {
	var rows [][2]float64
	for i := 0; i < 4000; i++ {
		rows = append(rows, [2]float64{float64(i % 97), float64(i) * 1.25})
	}
	tbl, _ := buildT("panicky", 4, rows)
	plan := cachedAggPlan(tbl, nil, 11, true)
	open := OpenLedgers()
	before, err := Run(plan, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cs := plan.(*PHashAgg).In.(*PFilter).In.(*PCachedSample)
	broken := make([]Part, 4)
	for i := range broken {
		broken[i] = Part{N: 8, Cols: []table.Vector{{K: table.VKInt}, {K: table.VKFloat}}, W: make([]float64, 8)}
	}
	sc := NewSampleCache(64 << 20)
	sc.Put(fmt.Sprintf("%s|v%d|e0", cs.Key, tbl.Version()), broken, 0)
	cs.Cache = sc
	_, err = Run(plan, cluster.DefaultConfig())
	cs.Cache = nil
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("run over the broken entry: got %v, want ErrInternal", err)
	}
	if got := OpenLedgers(); got != open {
		t.Fatalf("%d ledgers open after the failed run, want %d", got, open)
	}
	after, err := Run(plan, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, before, after, "after the panicking run")
	sameEstimates(t, before, after, "after the panicking run")
	if got := OpenLedgers(); got != open {
		t.Fatalf("%d ledgers open after the next run, want %d", got, open)
	}
}
