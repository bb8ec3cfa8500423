package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"quickr/internal/data"
	"quickr/internal/table"
)

// extendRow is row i of the table the interleaving test grows: NULLs in
// the typed columns, a dictionary that keeps growing, a value that is
// 5% of the rows, and an integer column that is NULL-free for the first
// 2000 rows and holds NULLs afterwards (it grows a bitmap mid-life).
func extendRow(rng *rand.Rand, i int) table.Row {
	r := table.Row{
		table.NewInt(int64(rng.Intn(5000))),
		table.NewFloat(float64(rng.Intn(1<<20)) / 16),
		table.NewString(fmt.Sprintf("s%d", rng.Intn(20+i/10))),
		table.NewInt(int64(i % 9)),
	}
	if rng.Intn(20) == 0 {
		r[0] = table.NewInt(-7)
	}
	if i >= 2000 && i%5 == 0 {
		r[3] = table.Null
	}
	for c := 0; c < 3; c++ {
		if rng.Intn(17) == 0 {
			r[c] = table.Null
		}
	}
	return r
}

// publicCopy copies what a snapshot publishes, so a later comparison
// tells whether anything wrote to it.
func publicCopy(ts *TableStats) *TableStats {
	c := &TableStats{Table: ts.Table, RowCount: ts.RowCount, Bytes: ts.Bytes, Columns: map[string]*ColumnStats{}}
	for name, cs := range ts.Columns {
		cc := *cs
		cc.Heavy = append([]HeavyValue(nil), cs.Heavy...)
		c.Columns[name] = &cc
	}
	return c
}

// Statistics extended over random interleavings of Append, Get and
// NDVSet equal the row-wise reference over the final contents: exactly
// where the statistic is order-free, within rounding where a float sum
// was re-associated, within lossy counting's bound for heavy hitters;
// and they are a function of the call sequence alone.
func TestExtendMatchesFromScratch(t *testing.T) {
	sc := table.NewSchema(
		table.Column{Name: "i", Kind: table.KindInt},
		table.Column{Name: "f", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "late", Kind: table.KindInt},
	)
	names := sc.Names()
	sets := [][]string{{"i", "s"}, {"s", "late", "f"}}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := table.New("ext", sc, 4)
		want := make([][]table.Row, 4)
		stores := []*Store{NewStore(), NewStore()}
		held := map[*TableStats]*TableStats{}
		n := 0
		for op := 0; op < 160; op++ {
			switch rng.Intn(4) {
			case 0, 1: // partition 3 stays empty
				for k := rng.Intn(600); k > 0; k-- {
					r := extendRow(rng, n)
					tbl.Append(n%3, r)
					want[n%3] = append(want[n%3], r)
					n++
				}
			case 2:
				for _, s := range stores {
					ts := s.Get(tbl)
					held[ts] = publicCopy(ts)
				}
			case 3:
				set := sets[rng.Intn(len(sets))]
				if a, b := stores[0].Get(tbl).NDVSet(set), stores[1].Get(tbl).NDVSet(set); a != b {
					t.Fatalf("seed %d: NDVSet(%v) differs between two stores driven alike: %v, %v", seed, set, a, b)
				}
			}
		}
		got, other := stores[0].Get(tbl), stores[1].Get(tbl)
		if !reflect.DeepEqual(publicCopy(got), publicCopy(other)) {
			t.Fatalf("seed %d: two stores driven by the same calls disagree", seed)
		}
		for ts, was := range held {
			if !reflect.DeepEqual(publicCopy(ts), was) {
				t.Fatalf("seed %d: a snapshot handed out at %d rows was written afterwards", seed, was.RowCount)
			}
		}

		ref := refCollect(tbl.Name, sc, want)
		if got.RowCount != ref.RowCount || got.Bytes != ref.Bytes || got.RowCount != int64(tbl.NumRows()) {
			t.Fatalf("seed %d: %d rows, %d bytes, want %d and %d", seed, got.RowCount, got.Bytes, ref.RowCount, ref.Bytes)
		}
		for ci, c := range names {
			g, w := got.Columns[c], ref.Columns[c]
			if g.NullCount != w.NullCount || g.NDV != w.NDV || !reflect.DeepEqual(g.Min, w.Min) || !reflect.DeepEqual(g.Max, w.Max) {
				t.Fatalf("seed %d column %s:\n got %+v\nwant %+v", seed, c, g, w)
			}
			if d := math.Abs(g.Avg - w.Avg); d > 1e-9*math.Abs(w.Avg) {
				t.Errorf("seed %d column %s: Avg %v, want %v", seed, c, g.Avg, w.Avg)
			}
			if d := math.Abs(g.Var - w.Var); d > 1e-9*(w.Avg*w.Avg+w.Var) {
				t.Errorf("seed %d column %s: Var %v, want %v", seed, c, g.Var, w.Var)
			}
			freq, nonNull := map[string]int64{}, int64(0)
			for _, part := range want {
				for _, r := range part {
					if !r[ci].IsNull() {
						freq[r[ci].Key()]++
						nonNull++
					}
				}
			}
			for key, f := range freq {
				if float64(f) < heavyFraction*float64(nonNull) {
					continue
				}
				hf := got.HeavyFreq(c, keyToValue(key))
				if hf == 0 || math.Abs(float64(hf-f)) > lossyEps*float64(nonNull) {
					t.Errorf("seed %d column %s: value %s occurs %d times in %d, Heavy has %d", seed, c, key, f, nonNull, hf)
				}
			}
		}
		for _, set := range sets {
			if g, w := got.NDVSet(set), refSetNDV(sc, want, set); g != w {
				t.Errorf("seed %d: NDVSet(%v) = %v, want %v", seed, set, g, w)
			}
		}
	}
}

// countLanes runs f and returns how many lanes the folds under it read.
func countLanes(f func()) (lanes int) {
	foldHook = func(n int) { lanes += n }
	defer func() { foldHook = nil }()
	f()
	return lanes
}

// appendLogs appends n generated weblogs rows to tbl.
func appendLogs(tbl *table.Table, n int, seed int64) {
	appendRows(tbl, data.Logs(n, seed, 1).AllRows())
}

func appendRows(tbl *table.Table, rows []table.Row) {
	for i, r := range rows {
		tbl.Append(i, r)
	}
}

// Bringing statistics up to date costs the tail, not the table.
func TestExtendFoldsOnlyNewLanes(t *testing.T) {
	tbl := data.Logs(100000, 7, 8)
	s := NewStore()
	set := []string{"log_country", "log_status"}
	width := tbl.Schema.Len()
	if n := countLanes(func() { s.Get(tbl).NDVSet(set) }); n != 100000*(width+1) {
		t.Fatalf("first touch folded %d lanes, want %d", n, 100000*(width+1))
	}
	before := s.Get(tbl)
	if n := countLanes(func() { s.Get(tbl).NDVSet(set) }); n != 0 {
		t.Fatalf("a read at an unchanged version folded %d lanes", n)
	}
	appendLogs(tbl, 500, 8)
	var after *TableStats
	if n := countLanes(func() { after = s.Get(tbl) }); n != 500*width {
		t.Errorf("Get after a 500-row insert folded %d lanes, want %d", n, 500*width)
	}
	if after == before || after.RowCount != 100500 || before.RowCount != 100000 {
		t.Errorf("RowCount %d then %d, want 100000 then 100500 in two snapshots", before.RowCount, after.RowCount)
	}
	// The older snapshot answers no older than the table either.
	if n := countLanes(func() { before.NDVSet(set) }); n != 500 {
		t.Errorf("NDVSet after a 500-row insert folded %d lanes, want 500", n)
	}
}

// One appender, four readers (run with -race): every reader sees the
// table grow monotonically and never past what the table holds, a
// snapshot is not written after it was handed out, and the last read
// sees every row. The readers' first Get is the table's first touch:
// over a 20 000-row base never read before (its partitions not even
// sealed) it fans out on the pool while the appender runs.
func TestExtendConcurrent(t *testing.T) {
	for _, base := range []int{1000, 20000} {
		t.Run(fmt.Sprint("base_", base), func(t *testing.T) { extendConcurrent(t, base) })
	}
}

func extendConcurrent(t *testing.T, base int) {
	const rows = 20000
	tbl := data.Logs(base, 3, 4)
	s := NewStore()
	set := []string{"log_country", "log_status"}
	more := data.Logs(rows, 4, 1).AllRows()
	done := make(chan struct{})
	var gets atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a chunk per read, so the readers see the table mid-load
		defer wg.Done()
		defer close(done)
		for chunk := int64(1); len(more) > 0; chunk++ {
			appendRows(tbl, more[:100])
			more = more[100:]
			for gets.Load() < chunk {
				runtime.Gosched()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := map[*TableStats]*TableStats{}
			var seen int64
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				ts := s.Get(tbl)
				gets.Add(1)
				if ts.RowCount < seen {
					t.Errorf("RowCount went backwards: %d after %d", ts.RowCount, seen)
					return
				}
				if n := int64(tbl.NumRows()); ts.RowCount > n {
					t.Errorf("RowCount %d, the table holds %d", ts.RowCount, n)
					return
				}
				seen = ts.RowCount
				if ndv := ts.NDVSet(set); ndv < 1 || ndv > float64(tbl.NumRows()) {
					t.Errorf("NDVSet = %v over %d rows", ndv, tbl.NumRows())
					return
				}
				if held[ts] == nil {
					held[ts] = publicCopy(ts)
				}
			}
			for ts, was := range held {
				if !reflect.DeepEqual(publicCopy(ts), was) {
					t.Errorf("a snapshot handed out at %d rows was written afterwards", was.RowCount)
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Get(tbl).RowCount; got != int64(base+rows) || got != int64(tbl.NumRows()) {
		t.Fatalf("after the appender stopped: RowCount %d, the table holds %d", got, tbl.NumRows())
	}
}

// BenchmarkStatsExtend: the first touch of the 100k-row weblogs, a Get
// after each 500-row insert (sealing the eight tails included), and a
// Get at an unchanged version.
func BenchmarkStatsExtend(b *testing.B) {
	b.Run("first_touch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tbl := data.Logs(100000, 7, 8)
			b.StartTimer()
			NewStore().Get(tbl)
		}
	})
	tbl := data.Logs(100000, 7, 8)
	s := NewStore()
	s.Get(tbl)
	b.Run("after_insert_500", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			appendLogs(tbl, 500, int64(i))
			b.StartTimer()
			s.Get(tbl)
		}
	})
	b.Run("unchanged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Get(tbl)
		}
	})
}

// BenchmarkCollect: the first touch of freshly loaded tables, sealing
// their partitions included, over the 100k-row weblogs and TPC-H sf 0.1.
func BenchmarkCollect(b *testing.B) {
	for _, c := range []struct {
		name string
		load func() map[string]*table.Table
	}{
		{"weblogs_100k", func() map[string]*table.Table { return map[string]*table.Table{"weblogs": data.Logs(100000, 7, 8)} }},
		{"tpch_sf0.1", func() map[string]*table.Table {
			return data.GenerateTPCH(data.TPCHConfig{ScaleFactor: 0.1, Seed: 3}).Tables
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tables := c.load()
				b.StartTimer()
				for _, t := range tables {
					Collect(t)
				}
			}
		})
	}
}

// A fold allocates per key it keeps, not per lane: the first touch of
// the 20k-row weblogs, one column set included, stays within 1.25× the
// allocations per folded lane measured when the typed kernels landed
// (0.0915; the row-wise pass before them made 1.66).
func TestCollectAllocCeiling(t *testing.T) {
	tbl := data.Logs(20000, 7, 8)
	tbl.EnsureColumnar()
	set := []string{"log_country", "log_status"}
	lanes := float64(20000 * (tbl.Schema.Len() + 1))
	perLane := testing.AllocsPerRun(5, func() { Collect(tbl).NDVSet(set) }) / lanes
	t.Logf("%.4f allocations per folded lane", perLane)
	const ceiling = 1.25 * 0.0915
	if perLane > ceiling {
		t.Errorf("%.4f allocations per folded lane, ceiling %.4f", perLane, ceiling)
	}

	// An extension by 16 rows, two a partition, folds a tail shorter than
	// the string columns' dictionaries lane by lane (foldLanes). Its rows
	// are built and appended between the measured gets.
	const rounds, tail = 20, 16
	e := newEntry(tbl)
	e.get()
	var rows []table.Row
	for i := 0; i < rounds*tail; i++ {
		rows = append(rows, table.Row{table.NewInt(int64(i)), table.NewInt(int64(i % 97)),
			table.NewString(fmt.Sprintf("/page/%d", i%40)), table.NewString([]string{"Chile", "Peru", "Kenya"}[i%3]),
			table.NewInt(200), table.NewInt(int64(300 + i)), table.NewFloat(float64(i) / 8)})
	}
	var before, after runtime.MemStats
	var mallocs uint64
	for r := 0; r < rounds; r++ {
		for i := r * tail; i < (r+1)*tail; i++ {
			tbl.Append(i, rows[i])
		}
		runtime.ReadMemStats(&before)
		e.get()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	perExtend := float64(mallocs) / rounds
	t.Logf("%.1f allocations per %d-row extension", perExtend, tail)
	const extendCeiling = 1.25 * 94
	if perExtend > extendCeiling {
		t.Errorf("%.1f allocations per %d-row extension, ceiling %.1f", perExtend, tail, extendCeiling)
	}
}
