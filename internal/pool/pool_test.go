package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quickr/internal/testutil"
)

func TestRunVisitsEveryIndexOnce(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := New(4)
	defer p.Close()
	const n = 200
	var visits [n]int64
	st, err := p.Run(context.Background(), n, func(i int) error {
		atomic.AddInt64(&visits[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	if st.Tasks != n {
		t.Fatalf("stats counted %d tasks, want %d", st.Tasks, n)
	}
	if st.Stolen < 0 || st.Stolen > n {
		t.Fatalf("stolen count %d out of range", st.Stolen)
	}
}

func TestRunSingleTaskInline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := New(4)
	defer p.Close()
	// n==1 must run on the caller's goroutine: this unsynchronized
	// append is proven safe by the race detector.
	var got []int
	st, err := p.Run(context.Background(), 1, func(i int) error {
		got = append(got, i)
		return nil
	})
	if err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("inline run: err=%v got=%v", err, got)
	}
	if st.Tasks != 1 || st.Stolen != 0 {
		t.Fatalf("inline stats %+v", st)
	}
}

func TestRunZeroTasks(t *testing.T) {
	p := New(2)
	defer p.Close()
	called := false
	if _, err := p.Run(context.Background(), 0, func(int) error { called = true; return nil }); err != nil || called {
		t.Fatalf("zero tasks: err=%v called=%v", err, called)
	}
}

// After a task fails, every started task still completes before Run
// returns (teardown always finishes) and unstarted tasks are skipped.
//
// What "unstarted" can mean: a task's error is recorded when its runner
// retakes the pool mutex after fn returned, and every claim made before
// that is legitimate. So no-op tasks can all be claimed by the four
// workers before the caller's task 0 lands its error (about one -race
// run in twenty did), and a gate that task 0 itself closes on its way
// out only narrows that window (one run in a few hundred still drained
// all 500). The test therefore holds every other task on a gate that
// opens once the pool has delisted the job — which, with each worker
// stuck in at most one task, only the recorded error can have done —
// and may then assert the exact bound: the caller's task plus at most
// one per worker started, nothing after the error.
func TestRunFailFastCompletesStartedTasks(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const workers = 4
	p := New(workers)
	defer p.Close()
	sentinel := errors.New("task failed")
	failing, gate := make(chan struct{}), make(chan struct{})
	go func() {
		<-failing
		for listed := true; listed; runtime.Gosched() {
			p.mu.Lock()
			listed = len(p.jobs) > 0
			p.mu.Unlock()
		}
		close(gate)
	}()
	var started, finished atomic.Int64
	st, err := p.Run(context.Background(), 500, func(i int) error {
		started.Add(1)
		defer finished.Add(1)
		if i == 0 { // the caller's first claim
			close(failing)
			return fmt.Errorf("part %d: %w", i, sentinel)
		}
		<-gate
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("expected sentinel error, got %v", err)
	}
	if started.Load() != finished.Load() {
		t.Fatalf("Run returned with %d started but only %d finished", started.Load(), finished.Load())
	}
	if int(started.Load()) != st.Tasks {
		t.Fatalf("stats counted %d tasks, %d actually started", st.Tasks, started.Load())
	}
	if st.Tasks > 1+workers {
		t.Fatalf("%d tasks started, want at most the caller's and one per worker: claims went on after the error", st.Tasks)
	}
}

func TestRunCanceledBeforeSubmitRunsNothing(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := p.Run(ctx, 64, func(i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if st.Tasks != 0 {
		t.Fatalf("%d tasks ran after pre-canceled context", st.Tasks)
	}
}

// Cancellation mid-job stops further claims: tasks claimed before the
// cancel finish, the rest never start, and Run reports context.Canceled.
func TestRunCancelMidJobSkipsRemainder(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 10_000
	var ran atomic.Int64
	st, err := p.Run(ctx, n, func(i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if got := ran.Load(); got == n {
		t.Fatal("cancellation skipped no tasks")
	}
	if int(ran.Load()) != st.Tasks {
		t.Fatalf("stats %d vs ran %d", st.Tasks, ran.Load())
	}
}

// Many concurrent jobs share the fixed worker set; every job's every
// index runs exactly once (raced under -race).
func TestRunConcurrentJobsShareWorkers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := New(4)
	defer p.Close()
	const jobs, tasks = 16, 64
	var visits [jobs][tasks]int64
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			_, errs[j] = p.Run(context.Background(), tasks, func(i int) error {
				atomic.AddInt64(&visits[j][i], 1)
				return nil
			})
		}(j)
	}
	wg.Wait()
	for j := 0; j < jobs; j++ {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		for i := 0; i < tasks; i++ {
			if visits[j][i] != 1 {
				t.Fatalf("job %d index %d visited %d times", j, i, visits[j][i])
			}
		}
	}
}

// Nested Run calls (a task that itself fans out on the same pool) must
// not deadlock even when the pool has a single worker: callers always
// claim their own tasks.
func TestRunNestedDoesNotDeadlock(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := New(1)
	defer p.Close()
	var inner atomic.Int64
	_, err := p.Run(context.Background(), 8, func(i int) error {
		_, err := p.Run(context.Background(), 8, func(j int) error {
			inner.Add(1)
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner.Load() != 64 {
		t.Fatalf("inner tasks ran %d times, want 64", inner.Load())
	}
}

// A closed pool still completes jobs on the caller's goroutine.
func TestRunAfterCloseDrainsOnCaller(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := New(2)
	p.Close()
	var ran atomic.Int64
	st, err := p.Run(context.Background(), 32, func(i int) error {
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 32 {
		t.Fatalf("closed-pool run: err=%v ran=%d", err, ran.Load())
	}
	if st.Stolen != 0 {
		t.Fatalf("closed pool stole %d tasks", st.Stolen)
	}
}

// A panicking task fails its job like a task error, with a *PanicError
// carrying the panic value and the stack: the started tasks finish
// before Run returns, claims stop (the other tasks wait, as in
// TestRunFailFastCompletesStartedTasks, until the job is delisted), no
// goroutine is left, and the pool runs the next job. The inline
// one-task path recovers too.
func TestPanicInTaskFailsOneQuery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const workers = 4
	p := New(workers)
	defer p.Close()
	for _, n := range []int{1, 500} {
		failing, gate := make(chan struct{}), make(chan struct{})
		go func() {
			<-failing
			for listed := true; listed; runtime.Gosched() {
				p.mu.Lock()
				listed = len(p.jobs) > 0
				p.mu.Unlock()
			}
			close(gate)
		}()
		var started, finished atomic.Int64
		var lanes []int
		st, err := p.Run(context.Background(), n, func(i int) error {
			started.Add(1)
			defer finished.Add(1)
			if i == 0 {
				close(failing)
				_ = lanes[i]
			}
			<-gate
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%d tasks: got %v, want a *PanicError", n, err)
		}
		if _, ok := pe.Value.(runtime.Error); !ok || !strings.Contains(string(pe.Stack), "pool_test.go") {
			t.Fatalf("%d tasks: panic value %v (%T), stack without the task's frame:\n%s", n, pe.Value, pe.Value, pe.Stack)
		}
		if started.Load() != finished.Load() || int(started.Load()) != st.Tasks {
			t.Fatalf("%d tasks: Run returned with %d started, %d finished, %d counted", n, started.Load(), finished.Load(), st.Tasks)
		}
		if st.Tasks > 1+workers {
			t.Fatalf("%d tasks: %d started after a panic, want at most the caller's and one per worker", n, st.Tasks)
		}
	}
	var ran atomic.Int64
	if _, err := p.Run(context.Background(), 64, func(int) error { ran.Add(1); return nil }); err != nil || ran.Load() != 64 {
		t.Fatalf("the job after the panic: err=%v, ran %d of 64", err, ran.Load())
	}
}
