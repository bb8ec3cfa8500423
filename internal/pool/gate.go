package pool

import (
	"context"
	"sync"
	"time"

	"quickr/internal/metrics"
)

// Gate is a byte-budget admission controller: each query acquires its
// estimated in-flight memory before executing, and queries that would
// push the total over budget wait in FIFO order instead of running and
// risking an OOM. A single query estimated above the whole budget is
// clamped to it, so it eventually runs alone rather than queueing
// forever.
type Gate struct {
	mu     sync.Mutex
	budget int64
	// guarded-by: mu
	used int64
	// guarded-by: mu
	waiters []*waiter // FIFO
}

type waiter struct {
	need  int64
	ready chan struct{}
	done  bool
}

// NewGate creates a gate with the given byte budget (values < 1 select
// an effectively unlimited budget).
func NewGate(budget int64) *Gate {
	if budget < 1 {
		budget = 1 << 62
	}
	return &Gate{budget: budget}
}

// Admission reports how one query fared at the gate.
type Admission struct {
	// Bytes is the admitted (possibly clamped) byte reservation.
	Bytes int64
	// QueuedNanos is the time spent waiting for budget.
	QueuedNanos int64
}

// Acquire reserves bytes of budget, waiting until enough is free or ctx
// is done. On success the caller must Release the returned admission.
func (g *Gate) Acquire(ctx context.Context, bytes int64) (Admission, error) {
	if bytes < 0 {
		bytes = 0
	}
	g.mu.Lock()
	if bytes > g.budget {
		bytes = g.budget
	}
	if len(g.waiters) == 0 && g.used+bytes <= g.budget {
		g.used += bytes
		g.mu.Unlock()
		metrics.AdmittedBytes.Add(bytes)
		return Admission{Bytes: bytes}, nil
	}
	w := &waiter{need: bytes, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	metrics.QueuedQueries.Add(1)
	t0 := time.Now()

	select {
	case <-w.ready:
		metrics.QueuedQueries.Add(-1)
		metrics.AdmittedBytes.Add(bytes)
		return Admission{Bytes: bytes, QueuedNanos: int64(time.Since(t0))}, nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.done {
			// Lost the race: admission was granted concurrently; give the
			// budget back before reporting cancellation.
			g.used -= w.need
			g.grantLocked()
		} else {
			for i, q := range g.waiters {
				if q == w {
					g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
					break
				}
			}
		}
		g.mu.Unlock()
		metrics.QueuedQueries.Add(-1)
		return Admission{}, ctx.Err()
	}
}

// Release returns an admission's bytes to the budget and admits as many
// queued queries as now fit, in arrival order.
func (g *Gate) Release(a Admission) {
	if a.Bytes == 0 {
		// Zero-byte admissions still went through Acquire; nothing to
		// return, but queued waiters may be unblocked by other releases.
		return
	}
	metrics.AdmittedBytes.Add(-a.Bytes)
	g.mu.Lock()
	g.used -= a.Bytes
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked admits waiting queries from the queue head while they
// fit.
// caller-holds: g.mu
func (g *Gate) grantLocked() {
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if g.used+w.need > g.budget {
			return
		}
		g.used += w.need
		w.done = true
		g.waiters = g.waiters[1:]
		close(w.ready)
	}
}
