// Package stats implements the input statistics Quickr uses for sampler
// selection (paper Table 2): row counts, per-column average/variance,
// distinct value counts (also for column sets), and heavy-hitter values
// with frequencies. Statistics are computed in a single pass over each
// table, matching the paper's "computed by the first query that reads
// the table" behaviour, and extended by the same pass over the lanes
// appended since. Validity rule: a TableStats is current exactly while
// Table.Version() equals the version it was folded at, and Store.Get
// never returns one that is not.
package stats

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"quickr/internal/pool"
	"quickr/internal/sketch"
	"quickr/internal/table"
)

// HeavyValue is one frequent value of a column with its frequency.
type HeavyValue struct {
	Value table.Value
	Freq  int64
}

// ColumnStats summarizes one column (paper Table 2).
type ColumnStats struct {
	Name      string
	Kind      table.Kind
	NullCount int64
	NDV       float64
	// Avg and Var are populated for numeric columns.
	Avg float64
	Var float64
	Min table.Value
	Max table.Value
	// Heavy holds values with frequency above heavyFraction of rows.
	Heavy []HeavyValue
}

// TableStats is an immutable snapshot of one table's statistics: once
// Store.Get or Collect has returned it, nothing writes it again.
type TableStats struct {
	Table    string
	RowCount int64
	Bytes    int64
	Columns  map[string]*ColumnStats
	// version is the Table.Version() this snapshot was folded at.
	version uint64
	e       *entry
}

// heavyFraction is the s threshold for reporting heavy hitters (paper
// §4.1.2 uses s=1e-2).
const heavyFraction = 0.01

// lossyEps is the lossy-counting error bound (paper τ=1e-4).
const lossyEps = 1e-4

// entry holds one table's streaming accumulators between folds. Every
// fold runs under mu (a first touch's pool tasks too: the caller holds
// mu until they end), each column's partitions in order: the statistics
// are a function of the sequence of appends and reads alone.
type entry struct {
	tbl *table.Table
	// pub is the snapshot last published; a reader at an unchanged
	// Table.Version() takes it without the lock.
	pub atomic.Pointer[TableStats]
	mu  sync.Mutex
	// guarded-by: mu
	cols []colAcc
	// marks[p] is how many lanes of partition p cols has folded.
	// guarded-by: mu
	marks []int
	// sets holds one accumulator per column set NDVSet was asked for,
	// keyed by the joined sorted column names.
	// guarded-by: mu
	sets map[string]*setAcc
}

// setAcc accumulates the distinct combinations of one column set, from
// its own per-partition marks.
type setAcc struct {
	idx   []int
	kmv   *sketch.KMV
	marks []int
	// version is the Table.Version() the marks were last advanced at.
	version uint64
}

func newEntry(t *table.Table) *entry {
	e := &entry{tbl: t, cols: make([]colAcc, t.Schema.Len()), marks: make([]int, len(t.Partitions)), sets: map[string]*setAcc{}}
	for i := range e.cols {
		e.cols[i] = newColAcc()
	}
	return e
}

// foldHook, when set by a test, is told how many lanes each fold of a
// column or column set reads.
var foldHook func(lanes int)

// Collect computes t's statistics in a single pass over its columns: the
// one-shot form of the fold Store.Get runs.
func Collect(t *table.Table) *TableStats { return newEntry(t).get() }

// get returns statistics as of the table's current version, first
// folding whatever lanes were sealed since the last fold.
func (e *entry) get() *TableStats {
	if ts := e.pub.Load(); ts != nil && ts.version == e.tbl.Version() {
		return ts
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ver := e.tbl.Version()
	if ts := e.pub.Load(); ts != nil && ts.version == ver { // a racing reader folded it
		return ts
	}
	ts := &TableStats{Table: e.tbl.Name, Columns: map[string]*ColumnStats{}, version: ver, e: e}
	// A first touch fans out on the pool, a task per partition to seal
	// it, then a task per column to fold it; an extension folds inline.
	// Each column folds its lanes in row order. The marks, not ver, say
	// which lanes are new: a row appended after ver was read is folded
	// here or by the next get, never twice.
	first := e.pub.Load() == nil
	parts := make([]*table.ColPartition, len(e.marks))
	each(first, len(parts), func(p int) { parts[p] = e.tbl.Columnar(p) })
	los := slices.Clone(e.marks)
	for p, cp := range parts {
		ts.RowCount += int64(cp.NumRows)
		ts.Bytes += cp.Bytes
		e.marks[p] = cp.NumRows
		if n := cp.NumRows - los[p]; foldHook != nil && n > 0 {
			for range e.cols {
				foldHook(n)
			}
		}
	}
	cols := e.cols
	each(first, len(cols), func(i int) {
		var f folder
		for p, cp := range parts {
			if los[p] < cp.NumRows {
				cols[i].fold(&cp.Cols[i], los[p], cp.NumRows, &f)
			}
		}
		cols[i].lossy.Compact()
	})
	for i, c := range e.tbl.Schema.Cols {
		a := &e.cols[i]
		cs := &ColumnStats{Name: c.Name, Kind: c.Kind, NullCount: a.nulls, NDV: a.kmv.Estimate(), Min: a.min, Max: a.max}
		if a.cnt > 0 {
			cs.Avg = a.sum / float64(a.cnt)
			cs.Var = math.Max(0, a.sumsq/float64(a.cnt)-cs.Avg*cs.Avg)
		}
		for _, hh := range a.lossy.HeavyHitters(heavyFraction) {
			cs.Heavy = append(cs.Heavy, HeavyValue{Value: hh.Key.Value(), Freq: hh.Freq})
		}
		ts.Columns[cs.Name] = cs
	}
	e.pub.Store(ts)
	return ts
}

// each runs fn(0), …, fn(n-1) inline, or with fan set as tasks of the
// shared pool (the caller among them), re-panicking a task's panic.
func each(fan bool, n int, fn func(int)) {
	if !fan {
		for i := range n {
			fn(i)
		}
	} else if _, err := pool.Default().Run(context.TODO(), n, func(i int) error { fn(i); return nil }); err != nil {
		panic(err)
	}
}

// NDVSet returns the (possibly estimated) number of distinct value
// combinations of cols in the table as of its current version: never
// older than ts, possibly newer. An empty set has NDV 1.
func (ts *TableStats) NDVSet(cols []string) float64 {
	if len(cols) == 0 {
		return 1
	}
	if len(cols) == 1 {
		if c, ok := ts.Columns[cols[0]]; ok {
			return c.NDV
		}
		return float64(ts.RowCount)
	}
	sorted := slices.Clone(cols)
	slices.Sort(sorted)
	return ts.e.setNDV(sorted)
}

// setNDV brings the accumulator of a sorted column set up to the table's
// current version, folding only the lanes past the set's own marks.
func (e *entry) setNDV(cols []string) float64 {
	key := strings.Join(cols, "\x00")
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.tbl.Version()
	sa := e.sets[key]
	if sa == nil {
		sa = &setAcc{kmv: sketch.NewKMV(1024), marks: make([]int, len(e.marks))}
		for _, c := range cols {
			if i := e.tbl.Schema.Index(c); i >= 0 {
				sa.idx = append(sa.idx, i)
			}
		}
		e.sets[key] = sa
	} else if sa.version == v {
		return sa.kmv.Estimate()
	}
	var buf []byte
	cvs := make([]*table.Vector, len(sa.idx))
	for p := range sa.marks {
		cp := e.tbl.Columnar(p)
		lo := sa.marks[p]
		sa.marks[p] = cp.NumRows
		if lo == cp.NumRows {
			continue
		}
		for k, i := range sa.idx {
			cvs[k] = &cp.Cols[i]
		}
		if foldHook != nil {
			foldHook(cp.NumRows - lo)
		}
		buf = foldSet(sa.kmv, cvs, lo, cp.NumRows, buf)
	}
	sa.version = v
	return sa.kmv.Estimate()
}

// foldSet adds lanes [lo, hi) of a column set to kmv, each lane's key
// the columns' Value.Key bytes, each followed by a NUL, built in buf.
//
// TestCollectAllocCeiling holds its allocations per folded lane.
func foldSet(kmv *sketch.KMV, cvs []*table.Vector, lo, hi int, buf []byte) []byte {
	for lane := lo; lane < hi; lane++ {
		buf = buf[:0]
		for _, cv := range cvs {
			buf = append(cv.Value(lane).AppendKey(buf), 0)
		}
		kmv.AddKey(buf, 1)
	}
	return buf
}

// HeavyFreq returns the frequency of value v in column col if v is a
// tracked heavy hitter, else 0.
func (ts *TableStats) HeavyFreq(col string, v table.Value) int64 {
	cs, ok := ts.Columns[col]
	if !ok {
		return 0
	}
	for _, h := range cs.Heavy {
		if h.Value.Equal(v) {
			return h.Freq
		}
	}
	return 0
}

// Store keeps one entry per table and brings it up to date on every
// read (paper §4.2.6: "if not already available, the statistics are
// computed by the first query that reads the table").
type Store struct {
	mu sync.Mutex
	// entries is keyed by name so that a replaced table's accumulators
	// go with it; the entry's tbl decides whether it answers for t.
	entries map[string]*entry // guarded-by: mu
}

// NewStore returns an empty statistics store.
func NewStore() *Store { return &Store{entries: map[string]*entry{}} }

// Get returns t's statistics as of t.Version(). A table re-created or
// re-registered under an old name is a different table and starts over.
func (s *Store) Get(t *table.Table) *TableStats {
	s.mu.Lock()
	e := s.entries[t.Name]
	if e == nil || e.tbl != t {
		e = newEntry(t)
		s.entries[t.Name] = e
	}
	s.mu.Unlock()
	return e.get()
}
