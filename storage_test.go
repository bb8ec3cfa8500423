package quickr_test

import (
	"runtime"
	"testing"

	"quickr"
	"quickr/internal/data"
)

// liveHeap is the heap in use after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the first may only finish a cycle already under way
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// The live-heap gate: the column vectors are the table, so the first
// query that reads a table leaves only them behind. The boxed rows a
// load appended are 40-byte Values that each hold a string pointer; kept
// alive beside the columns (as they were before storage sealed them)
// they are most of the heap and the collector walks all of them on
// every cycle of every later query.
func TestLiveHeapAfterFirstScan(t *testing.T) {
	before0 := liveHeap()
	logs := data.Logs(200000, 777, 8)
	eng := quickr.New()
	eng.RegisterStored(logs)
	loaded := liveHeap() - before0

	res, err := eng.Exec(`SELECT log_country, COUNT(*), SUM(log_bytes), AVG(log_latency_ms) FROM weblogs GROUP BY log_country`)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsScanned != 8 {
		t.Fatalf("scanned %d partitions, want 8", res.PartitionsScanned)
	}
	for p := range logs.Partitions {
		if n := len(logs.Partitions[p]); n != 0 {
			t.Errorf("partition %d still holds %d boxed rows after it was scanned", p, n)
		}
	}
	after := liveHeap() - before0
	t.Logf("live heap: %.1f MB loaded, %.1f MB after the first scan (%.0f%%)",
		float64(loaded)/(1<<20), float64(after)/(1<<20), 100*float64(after)/float64(loaded))
	if float64(after) > 0.40*float64(loaded) {
		t.Errorf("live heap after the first scan is %.0f%% of the loaded table's (%d of %d bytes), want <= 40%%: is the row store still live?",
			100*float64(after)/float64(loaded), after, loaded)
	}
	if logs.NumRows() != 200000 {
		t.Fatalf("NumRows=%d", logs.NumRows())
	}
	runtime.KeepAlive(eng)
}
