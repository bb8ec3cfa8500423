// Package pool provides the process-wide execution resources shared by
// every in-flight query: a size-capped work-stealing worker pool that
// replaces per-query ad-hoc goroutine fan-out, and a byte-budget
// admission gate that queues queries whose estimated in-flight memory
// would not fit.
//
// The pool runs one persistent worker goroutine per configured slot.
// Each Run submission becomes a job — a dense range of task indexes —
// and the calling goroutine immediately starts claiming its own tasks
// while idle workers steal tasks from the oldest submitted job (FIFO
// across jobs, so N concurrent queries share the fixed worker set
// instead of spawning N×partitions goroutines). Because the caller
// always participates, a job makes progress even when every worker is
// busy with other queries, so the pool cannot deadlock under nesting or
// saturation.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"quickr/internal/metrics"
)

// Pool is a fixed-size work-stealing worker pool.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// jobs holds jobs that still have unclaimed tasks, oldest first.
	// guarded-by: mu
	jobs    []*job
	workers int
	// guarded-by: mu
	closed bool
}

// New creates a pool with the given number of persistent workers
// (values < 1 select GOMAXPROCS).
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	metrics.PoolWorkers.Add(int64(workers))
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, creating it (with
// GOMAXPROCS workers) on first use.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the pool's workers once running tasks finish. Jobs still
// holding unclaimed tasks continue on their callers' goroutines; Close
// is intended for tests — the process-wide Default pool is never
// closed.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		metrics.PoolWorkers.Add(int64(-p.workers))
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Stats reports scheduling telemetry for one Run call.
type Stats struct {
	// Tasks is the number of tasks that actually started.
	Tasks int
	// Stolen counts tasks executed by pool workers rather than the
	// submitting goroutine.
	Stolen int
	// WaitNanos is the coordinator's scheduling wait: the delay between
	// job submission and the first task starting, plus the time spent
	// blocked at the end waiting for tasks stolen by pool workers to
	// finish. Both are real waits of the submitting goroutine — time
	// the job spent scheduled-but-not-computing on behalf of the query.
	WaitNanos int64
}

// job is one Run submission: tasks [0,n) claimed one at a time under
// the pool mutex by the caller and by stealing workers.
type job struct {
	p  *Pool
	fn func(i int) error

	ctx       context.Context
	n         int
	next      int // next unclaimed task; == n when exhausted
	inflight  int // claimed but not yet finished
	listed    bool
	submitted time.Time

	err      error // first task error or ctx error
	stats    Stats
	done     chan struct{}
	finished bool
}

// claimLocked hands out the next task index, or ok=false when the job
// is exhausted, a task failed, or the job's context is done.
// caller-holds: j.p.mu
func (j *job) claimLocked(stolen bool) (int, bool) {
	if j.next >= j.n || j.err != nil {
		j.delistLocked()
		return 0, false
	}
	if err := j.ctx.Err(); err != nil {
		j.err = err
		j.delistLocked()
		return 0, false
	}
	i := j.next
	j.next++
	j.inflight++
	j.stats.Tasks++
	if stolen {
		j.stats.Stolen++
	}
	if j.stats.Tasks == 1 {
		j.stats.WaitNanos += int64(time.Since(j.submitted))
	}
	if j.next >= j.n {
		j.delistLocked()
	}
	return i, true
}

// delistLocked removes the job from the pool's steal list.
// caller-holds: j.p.mu
func (j *job) delistLocked() {
	if !j.listed {
		return
	}
	j.listed = false
	for k, q := range j.p.jobs {
		if q == j {
			j.p.jobs = append(j.p.jobs[:k], j.p.jobs[k+1:]...)
			break
		}
	}
	metrics.PoolQueuedJobs.Add(-1)
}

// finishLocked records a task completion and signals waiters when the
// job has fully drained (no unclaimed and no in-flight tasks).
// caller-holds: j.p.mu
func (j *job) finishLocked(err error) {
	j.inflight--
	if err != nil && j.err == nil {
		j.err = err
		j.delistLocked() // fail fast: no further claims
	}
	if j.inflight == 0 && (j.next >= j.n || j.err != nil) && !j.finished {
		j.finished = true
		close(j.done)
	}
}

// PanicError is a task's panic, recovered by the pool and returned by
// Run as the job's error.
type PanicError struct {
	// Value is what the task passed to panic.
	Value any
	// Stack is the panicking goroutine's stack (debug.Stack) as the
	// panic unwound.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("pool: task panicked: %v", e.Value) }

// call runs fn(i), returning a panic as a *PanicError.
func call(fn func(int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// run executes one claimed task outside the pool mutex.
func (j *job) run(i int) {
	metrics.PoolRunningTasks.Add(1)
	err := call(j.fn, i)
	metrics.PoolRunningTasks.Add(-1)
	metrics.PoolCompletedTasks.Add(1)
	j.p.mu.Lock()
	j.finishLocked(err)
	j.p.mu.Unlock()
}

// worker is the persistent steal loop: take the oldest job with
// unclaimed tasks, claim one, run it.
func (p *Pool) worker() {
	p.mu.Lock()
	for {
		for len(p.jobs) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		j := p.jobs[0]
		i, ok := j.claimLocked(true)
		p.mu.Unlock()
		if ok {
			j.run(i)
		}
		p.mu.Lock()
	}
}

// Run executes fn(i) for every i in [0,n) on the shared pool and the
// calling goroutine, returning the first error. It returns only after
// every started task has finished (teardown always completes); after an
// error or context cancellation, unstarted tasks are skipped and the
// context's error is returned verbatim (context.Canceled or
// context.DeadlineExceeded) so callers can map it to typed query
// errors. A task that panics fails the job like an error, with a
// *PanicError. n <= 1 runs inline on the caller with no scheduling cost.
func (p *Pool) Run(ctx context.Context, n int, fn func(i int) error) (Stats, error) {
	if n <= 0 {
		return Stats{}, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	if n == 1 {
		if err := call(fn, 0); err != nil {
			return Stats{Tasks: 1}, err
		}
		return Stats{Tasks: 1}, ctx.Err()
	}

	j := &job{p: p, fn: fn, ctx: ctx, n: n, submitted: time.Now(), done: make(chan struct{})}
	p.mu.Lock()
	if !p.closed {
		j.listed = true
		p.jobs = append(p.jobs, j)
		metrics.PoolQueuedJobs.Add(1)
		p.cond.Broadcast()
	}
	// The caller claims tasks from its own job until none remain.
	for {
		i, ok := j.claimLocked(false)
		p.mu.Unlock()
		if !ok {
			break
		}
		j.run(i)
		p.mu.Lock()
	}

	// Wait for stolen in-flight tasks. The job is already delisted, so
	// nothing new can start.
	p.mu.Lock()
	if j.inflight == 0 && !j.finished {
		j.finished = true
		close(j.done)
	}
	p.mu.Unlock()
	t := time.Now()
	<-j.done

	p.mu.Lock()
	stats := j.stats
	err := j.err
	p.mu.Unlock()
	if stats.Stolen > 0 {
		stats.WaitNanos += int64(time.Since(t))
	}
	return stats, err
}
