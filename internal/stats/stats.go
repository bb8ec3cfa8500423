// Package stats implements the input statistics Quickr uses for sampler
// selection (paper Table 2): row counts, per-column average/variance,
// distinct value counts (also for column sets), and heavy-hitter values
// with frequencies. Statistics are computed in a single pass over each
// table, matching the paper's "computed by the first query that reads
// the table" behaviour, and cached in a Store.
package stats

import (
	"math"
	"strconv"
	"strings"
	"sync"

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

// TableStats summarizes one table.
type TableStats struct {
	Table    string
	RowCount int64
	Bytes    int64
	Columns  map[string]*ColumnStats
	// colSetNDV caches distinct-value counts for multi-column sets,
	// keyed by the joined sorted column names.
	colSetNDV map[string]float64
	src       *table.Table
	mu        sync.Mutex
}

// heavyFraction is the s threshold for reporting heavy hitters (paper
// §4.1.2 uses s=1e-2).
const heavyFraction = 0.01

// lossyEps is the lossy-counting error bound (paper τ=1e-4).
const lossyEps = 1e-4

// Collect computes TableStats in a single pass over t's columns.
func Collect(t *table.Table) *TableStats {
	ts := &TableStats{
		Table:     t.Name,
		Columns:   map[string]*ColumnStats{},
		colSetNDV: map[string]float64{},
		src:       t,
	}
	n := t.Schema.Len()
	type colAcc struct {
		cs    *ColumnStats
		kmv   *sketch.KMV
		lossy *sketch.LossyCounter
		sum   float64
		sumsq float64
		cnt   int64
	}
	accs := make([]*colAcc, n)
	for i, c := range t.Schema.Cols {
		accs[i] = &colAcc{
			cs:    &ColumnStats{Name: c.Name, Kind: c.Kind, Min: table.Null, Max: table.Null},
			kmv:   sketch.NewKMV(1024),
			lossy: sketch.NewLossyCounter(lossyEps),
		}
	}
	// Column by column within a partition, partitions in order: each
	// column's sketches and float sums see its values in row order.
	for p := range t.Partitions {
		cp := t.Columnar(p)
		ts.RowCount += int64(cp.NumRows)
		ts.Bytes += cp.Bytes
		for i, a := range accs {
			keys := cp.Cols[i].Keys()
			for lane := 0; lane < cp.NumRows; lane++ {
				v, key := keys.At(lane)
				if v.IsNull() {
					a.cs.NullCount++
					continue
				}
				a.kmv.Add(key)
				a.lossy.Add(key)
				if v.IsNumeric() {
					f := v.Float()
					a.sum += f
					a.sumsq += f * f
					a.cnt++
				}
				if a.cs.Min.IsNull() || v.Compare(a.cs.Min) < 0 {
					a.cs.Min = v
				}
				if a.cs.Max.IsNull() || v.Compare(a.cs.Max) > 0 {
					a.cs.Max = v
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		a := accs[i]
		a.cs.NDV = a.kmv.Estimate()
		if a.cnt > 0 {
			a.cs.Avg = a.sum / float64(a.cnt)
			a.cs.Var = math.Max(0, a.sumsq/float64(a.cnt)-a.cs.Avg*a.cs.Avg)
		}
		for _, hh := range a.lossy.HeavyHitters(heavyFraction) {
			a.cs.Heavy = append(a.cs.Heavy, HeavyValue{Value: keyToValue(hh.Key), Freq: hh.Freq})
		}
		ts.Columns[a.cs.Name] = a.cs
	}
	return ts
}

// keyToValue reconstructs the value behind a Value.Key encoding: the
// sketch reports heavy hitters by key, HeavyFreq matches them by value.
func keyToValue(key string) table.Value {
	if key == "" {
		return table.Null
	}
	switch key[0] {
	case 'i':
		var n int64
		neg := false
		s := key[1:]
		if strings.HasPrefix(s, "-") {
			neg = true
			s = s[1:]
		}
		for _, c := range s {
			if c < '0' || c > '9' {
				return table.NewString(key)
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return table.NewInt(n)
	case 'f':
		bits, err := strconv.ParseUint(key[1:], 16, 64)
		if err != nil {
			return table.NewString(key)
		}
		return table.NewFloat(math.Float64frombits(bits))
	case 's':
		return table.NewString(key[1:])
	case 'b':
		return table.NewBool(key == "bt")
	default:
		return table.NewString(key)
	}
}

// NDVSet returns the (possibly estimated) number of distinct value
// combinations of cols in the table, computing and caching it on first
// use. An empty set has NDV 1.
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
	sorted := append([]string{}, cols...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	key := strings.Join(sorted, "\x00")
	ts.mu.Lock()
	if v, ok := ts.colSetNDV[key]; ok {
		ts.mu.Unlock()
		return v
	}
	ts.mu.Unlock()

	v := ts.computeSetNDV(sorted)
	ts.mu.Lock()
	ts.colSetNDV[key] = v
	ts.mu.Unlock()
	return v
}

func (ts *TableStats) computeSetNDV(cols []string) float64 {
	if ts.src == nil {
		// Fall back to the independence upper bound capped at rowcount.
		prod := 1.0
		for _, c := range cols {
			if cs, ok := ts.Columns[c]; ok {
				prod *= cs.NDV
			}
		}
		return math.Min(prod, float64(ts.RowCount))
	}
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		if i := ts.src.Schema.Index(c); i >= 0 {
			idx = append(idx, i)
		}
	}
	kmv := sketch.NewKMV(1024)
	var sb strings.Builder
	keys := make([]table.ColKeys, len(idx))
	for p := range ts.src.Partitions {
		cp := ts.src.Columnar(p)
		for k, i := range idx {
			keys[k] = cp.Cols[i].Keys()
		}
		for lane := 0; lane < cp.NumRows; lane++ {
			sb.Reset()
			for k := range keys {
				_, key := keys[k].At(lane)
				sb.WriteString(key)
				sb.WriteByte(0)
			}
			kmv.Add(sb.String())
		}
	}
	return kmv.Estimate()
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

// Store caches statistics per table, computing them on first access
// (paper §4.2.6: "if not already available, the statistics are computed
// by the first query that reads the table").
type Store struct {
	mu     sync.Mutex
	tables map[string]*TableStats
}

// NewStore returns an empty statistics store.
func NewStore() *Store {
	return &Store{tables: map[string]*TableStats{}}
}

// Get returns cached stats for t, collecting them on first use.
func (s *Store) Get(t *table.Table) *TableStats {
	s.mu.Lock()
	if ts, ok := s.tables[t.Name]; ok {
		s.mu.Unlock()
		return ts
	}
	s.mu.Unlock()
	ts := Collect(t)
	s.mu.Lock()
	s.tables[t.Name] = ts
	s.mu.Unlock()
	return ts
}

// Lookup returns stats by table name if already collected.
func (s *Store) Lookup(name string) (*TableStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tables[name]
	return ts, ok
}
