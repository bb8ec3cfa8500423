package exec

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Run-scoped payload memory (DESIGN §7). Every payload a run sizes by
// its data — the typed columns and weights of the partitions it builds
// and the exchange's routing arrays — is a slab drawn from the run's
// ledger: a pointer-free slice whose capacity is a power-of-two size
// class, from a process-wide sync.Pool per element type and class. The
// run releases its ledger when it ends, so the next query reuses the
// memory instead of asking the allocator for fresh zeroed memory and
// the collector to reclaim it. A slab's contents are unspecified: a
// caller that needs zeros clears it. Nothing drawn from a ledger may
// outlive its run.

// slabElem is what a slab holds: payloads without pointers.
type slabElem interface {
	int64 | float64 | int32 | uint64
}

// The smallest class holds 1<<minSlabShift elements; class c holds
// 1<<(c+minSlabShift).
const minSlabShift, slabClasses = 8, 40

// slabPools holds one pool per size class. A pool holds *[]T, so Get
// and Put allocate nothing.
type slabPools[T slabElem] [slabClasses]sync.Pool

var (
	int64Slabs   slabPools[int64]
	float64Slabs slabPools[float64]
	int32Slabs   slabPools[int32]
	uint64Slabs  slabPools[uint64]
)

// slabClass is the smallest class holding n elements.
func slabClass(n int) int {
	if n <= 1<<minSlabShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minSlabShift
}

// tray is a ledger's slabs of one element type.
type tray[T slabElem] struct {
	pools *slabPools[T]
	held  []*[]T
}

func (t *tray[T]) take(n int) []T {
	c := slabClass(n)
	p, _ := t.pools[c].Get().(*[]T)
	if p == nil {
		s := make([]T, 1<<(c+minSlabShift))
		p = &s
	}
	t.held = append(t.held, p)
	return (*p)[:n]
}

func (t *tray[T]) release() {
	for _, p := range t.held {
		poison(*p)
		t.pools[slabClass(len(*p))].Put(p)
	}
	t.held = nil
}

// ledger holds the slabs one run has taken. Tasks take slabs
// concurrently, one lock per slab, never per lane.
type ledger struct {
	mu sync.Mutex
	// guarded-by: mu
	released bool
	// guarded-by: mu
	ints tray[int64]
	// guarded-by: mu
	floats tray[float64]
	// guarded-by: mu
	lanes tray[int32]
	// guarded-by: mu
	hashes tray[uint64]
}

// openLedgers counts the ledgers not yet released.
var openLedgers atomic.Int64

// OpenLedgers returns the number of run ledgers not yet released: zero
// whenever no query is running, also after a canceled or failed one.
func OpenLedgers() int64 { return openLedgers.Load() }

func newLedger() *ledger {
	openLedgers.Add(1)
	return &ledger{ints: tray[int64]{pools: &int64Slabs}, floats: tray[float64]{pools: &float64Slabs},
		lanes: tray[int32]{pools: &int32Slabs}, hashes: tray[uint64]{pools: &uint64Slabs}}
}

// release returns every slab to its pool. Only the first call does
// anything.
func (l *ledger) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return
	}
	l.released = true
	openLedgers.Add(-1)
	l.ints.release()
	l.floats.release()
	l.lanes.release()
	l.hashes.release()
}

// slab takes a slab of n elements, of unspecified content, from l.
func slab[T slabElem](l *ledger, n int) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t any
	switch any(*new(T)).(type) {
	case int64:
		t = &l.ints
	case float64:
		t = &l.floats
	case int32:
		t = &l.lanes
	default:
		t = &l.hashes
	}
	return t.(*tray[T]).take(n)
}

// grow returns s lengthened by m elements of unspecified content. When s
// is too short it moves to a slab of l at least twice its capacity, as
// extend does on the heap.
func grow[T slabElem](l *ledger, s []T, m int) []T {
	need := len(s) + m
	if need <= cap(s) {
		return s[:need]
	}
	ns := slab[T](l, max(need, 2*cap(s)))[:need]
	copy(ns, s)
	return ns
}
