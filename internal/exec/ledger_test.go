package exec

import (
	"math"
	"runtime/debug"
	"sync"
	"testing"
)

// TestLedgerSlabClasses: a slab holds exactly the elements asked for,
// in a power-of-two class of at least 256, and grow keeps the contents
// while at least doubling the capacity it outgrows.
func TestLedgerSlabClasses(t *testing.T) {
	mem := newLedger()
	defer mem.release()
	for _, n := range []int{0, 1, 255, 256, 257, 1000, 4096, 4097, 1 << 20} {
		s := slab[int64](mem, n)
		want := max(256, 1<<slabClass(n)*256)
		if len(s) != n || cap(s) != want || cap(s)&(cap(s)-1) != 0 {
			t.Errorf("slab(%d): len %d cap %d, want len %d cap %d", n, len(s), cap(s), n, want)
		}
	}
	var s []float64
	for i := 0; i < 3000; i++ {
		c := cap(s)
		s = grow(mem, s, 1)
		s[i] = float64(i)
		if cap(s) != c && cap(s) < 2*c {
			t.Fatalf("grow from cap %d to %d", c, cap(s))
		}
	}
	for i, x := range s {
		if x != float64(i) {
			t.Fatalf("lane %d holds %v after growth", i, x)
		}
	}
}

// TestLedgerReleaseOnce: a ledger is open until its first release; a
// second release returns nothing to the pools a second time (two later
// runs would share a slab) and leaves the open count alone. Under the
// race detector the released slabs hold the sentinels.
func TestLedgerReleaseOnce(t *testing.T) {
	open := OpenLedgers()
	mem := newLedger()
	if OpenLedgers() != open+1 {
		t.Fatalf("%d open ledgers after newLedger, want %d", OpenLedgers(), open+1)
	}
	ints, floats := slab[int64](mem, 300), slab[float64](mem, 300)
	lanes, hashes := slab[int32](mem, 300), slab[uint64](mem, 300)
	for i := range ints {
		ints[i], floats[i], lanes[i], hashes[i] = 1, 1, 1, 1
	}
	if n := len(mem.ints.held) + len(mem.floats.held) + len(mem.lanes.held) + len(mem.hashes.held); n != 4 {
		t.Fatalf("ledger holds %d slabs, want 4", n)
	}
	mem.release()
	mem.release()
	if OpenLedgers() != open {
		t.Fatalf("%d open ledgers after two releases, want %d", OpenLedgers(), open)
	}
	if n := len(mem.ints.held) + len(mem.floats.held) + len(mem.lanes.held) + len(mem.hashes.held); n != 0 {
		t.Fatalf("ledger still holds %d slabs after release", n)
	}
	if poisonSlabs {
		nan := math.Float64bits(floats[0])
		if ints[0] != 0x5A5A5A5A5A5A5A5A || nan != math.MaxUint64 || lanes[0] != 0x5A5A5A5A || hashes[0] != 0x5A5A5A5A5A5A5A5A {
			t.Fatalf("released slabs hold %x %x %x %x, not the sentinels", ints[0], nan, lanes[0], hashes[0])
		}
	}
}

// TestLedgerRecyclesSlabs: with the collector off, a slab a released
// ledger returned serves the next ledger's take of its class. (Under
// the race detector sync.Pool drops a quarter of what it is given, so
// sixteen slabs make at least one reuse all but certain.)
func TestLedgerRecyclesSlabs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := newLedger()
	was := map[*int64]bool{}
	for i := 0; i < 16; i++ {
		was[&slab[int64](first, 5000)[0]] = true
	}
	first.release()
	next := newLedger()
	defer next.release()
	reused := 0
	for i := 0; i < 16; i++ {
		if was[&slab[int64](next, 5000)[0]] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no slab was reused by the next ledger")
	}
}

// TestLedgerConcurrentTakes: tasks take and grow slabs of one ledger
// at once (run under -race); every task's lanes stay its own.
func TestLedgerConcurrentTakes(t *testing.T) {
	mem := newLedger()
	defer mem.release()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s []int32
			for i := 0; i < 5000; i++ {
				s = grow(mem, s, 1)
				s[i] = int32(g)
			}
			for i, x := range s {
				if x != int32(g) {
					t.Errorf("task %d lane %d holds %d", g, i, x)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
