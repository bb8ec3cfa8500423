package table

// Per-partition summary statistics: row counts, per-column measure
// moments (sum/min/max over numeric lanes), heavy hitters (lossy
// counting) and KMV distinct sketches. No query reads them today: they
// are the base of the one statistics system ROADMAP item 3 builds, and
// the benchmark times their construction (table.summaries_ms). A summary
// is built from the partition's snapshot on first use and kept beside
// it until the next Append.

import "quickr/internal/sketch"

const (
	// summaryKMVK sizes the per-column KMV sketch: exact distinct
	// counts up to 4·k values, ~9% relative error beyond.
	summaryKMVK = 128
	// summaryEps is the lossy-counting error bound: every key with
	// frequency ≥ eps·n in the partition is guaranteed tracked.
	summaryEps = 1.0 / 1024
)

// ColumnSummary summarizes one column of one partition.
type ColumnSummary struct {
	// NonNull counts non-NULL lanes. Numeric reports that every
	// non-NULL lane was numeric, making Sum/Min/Max meaningful.
	NonNull int64
	Numeric bool
	Sum     float64
	Min     float64
	Max     float64
	// Heavy lists the tracked keys (canonical Value.Key form) with
	// their approximate frequencies, most frequent first.
	Heavy []sketch.HeavyHitter
	// Distinct estimates the number of distinct non-NULL keys.
	Distinct float64
	// Complete reports that Heavy is the complete key set of the
	// column (the distinct count stayed small enough for the sketches
	// to track every key), so a reader may treat it as the exact
	// partition-level value dictionary.
	Complete bool

	kmv *sketch.KMV
	hh  *sketch.LossyCounter
}

// PartitionSummary summarizes one stored partition.
type PartitionSummary struct {
	NumRows int
	Cols    []ColumnSummary
}

func newColumnSummary() ColumnSummary {
	return ColumnSummary{
		Numeric: true,
		kmv:     sketch.NewKMV(summaryKMVK),
		hh:      sketch.NewLossyCounter(summaryEps),
	}
}

// observe folds one non-NULL lane, with its Value.Key, into the column's
// moments and sketches.
func (c *ColumnSummary) observe(v Value, key string) {
	c.NonNull++
	if v.IsNumeric() {
		f := v.Float()
		c.Sum += f
		if c.NonNull == 1 || f < c.Min {
			c.Min = f
		}
		if c.NonNull == 1 || f > c.Max {
			c.Max = f
		}
	} else {
		c.Numeric = false
	}
	c.kmv.Add(key)
	c.hh.Add(key)
}

// finish freezes the sketch-derived fields after the last observe.
func (c *ColumnSummary) finish() {
	c.Heavy = c.hh.HeavyHitters(0) // threshold < 0: every tracked entry
	exact, ok := c.kmv.ExactCount()
	if ok {
		c.Distinct = float64(exact)
		c.Complete = exact == c.hh.EntryCount()
	} else {
		c.Distinct = c.kmv.Estimate()
	}
}

// mergeFrom folds another partition's column summary into c (table-
// level rollup). Sketches merge via KMV.Merge / LossyCounter.Merge.
func (c *ColumnSummary) mergeFrom(o *ColumnSummary) {
	if o.NonNull > 0 {
		if c.NonNull == 0 {
			c.Min, c.Max = o.Min, o.Max
		} else {
			if o.Min < c.Min {
				c.Min = o.Min
			}
			if o.Max > c.Max {
				c.Max = o.Max
			}
		}
	}
	c.NonNull += o.NonNull
	c.Sum += o.Sum
	c.Numeric = c.Numeric && o.Numeric
	c.kmv.Merge(o.kmv)
	c.hh.Merge(o.hh)
}

// BuildSummary computes the summary of a partition, column by column.
func BuildSummary(cp *ColPartition) *PartitionSummary {
	ps := &PartitionSummary{NumRows: cp.NumRows, Cols: make([]ColumnSummary, len(cp.Cols))}
	for c := range cp.Cols {
		cs := newColumnSummary()
		keys := cp.Cols[c].Keys()
		for i := 0; i < cp.NumRows; i++ {
			if v, key := keys.At(i); !v.IsNull() {
				cs.observe(v, key)
			}
		}
		cs.finish()
		ps.Cols[c] = cs
	}
	return ps
}

// Summary returns the summary of partition i as Columnar(i) has it,
// building it on first use and after an Append. Safe for concurrent
// use.
func (t *Table) Summary(i int) *PartitionSummary {
	p := &t.parts[i]
	t.cacheMu.Lock()
	sum := p.sum
	t.cacheMu.Unlock()
	if sum != nil {
		return sum
	}
	p.sumBuild.Lock()
	defer p.sumBuild.Unlock()
	t.cacheMu.Lock()
	sum = p.sum // a racing first touch may have built it
	t.cacheMu.Unlock()
	if sum != nil {
		return sum
	}
	cp := t.Columnar(i)
	sum = BuildSummary(cp)
	t.cacheMu.Lock()
	// Published only if no Append landed meanwhile; either way the
	// result is consistent with the snapshot it was built from.
	if p.snap == cp && len(t.Partitions[i]) == 0 {
		p.sum = sum
	}
	t.cacheMu.Unlock()
	return sum
}

// EnsureSummaries eagerly builds every partition's summary.
func (t *Table) EnsureSummaries() {
	for i := range t.parts {
		t.Summary(i)
	}
}

// MergedColumn rolls the per-partition summaries of one column up into
// a table-level summary (partition sketches combine via KMV.Merge and
// LossyCounter.Merge; Complete survives only when every partition was
// complete and the union stayed exactly countable).
func (t *Table) MergedColumn(col int) ColumnSummary {
	out := newColumnSummary()
	allComplete := true
	for i := range t.parts {
		ps := t.Summary(i)
		out.mergeFrom(&ps.Cols[col])
		allComplete = allComplete && ps.Cols[col].Complete
	}
	out.finish()
	out.Complete = out.Complete && allComplete
	return out
}
