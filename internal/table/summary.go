package table

// Per-partition summary statistics: row counts, per-column measure
// moments (sum/min/max over numeric lanes), heavy hitters (lossy
// counting) and KMV distinct sketches. The optimizer's partition-
// selection pass reads these to decide which partitions a sampled scan
// may skip; summaries are lazy and cached beside the columnar cache,
// and Append invalidates both caches for the touched partition under
// one lock acquisition.

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

// observe folds one lane into the column's moments and sketches.
func (c *ColumnSummary) observe(v Value) {
	if v.IsNull() {
		return
	}
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
	key := v.Key()
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

// BuildSummary computes the summary of a row-major partition. width is
// the schema width; short rows are padded with NULL lanes.
func BuildSummary(rows []Row, width int) *PartitionSummary {
	ps := &PartitionSummary{NumRows: len(rows), Cols: make([]ColumnSummary, width)}
	for c := 0; c < width; c++ {
		ps.Cols[c] = newColumnSummary()
	}
	for _, r := range rows {
		for c := 0; c < width; c++ {
			ps.Cols[c].observe(colAt(r, c))
		}
	}
	for c := 0; c < width; c++ {
		ps.Cols[c].finish()
	}
	return ps
}

// Summary returns the cached summary of partition i, building it on
// first use (see derive). Safe for concurrent use; Append invalidates
// the affected partition's cache (atomically with the columnar cache).
func (t *Table) Summary(i int) *PartitionSummary {
	return derive(t, i, sumPart, BuildSummary)
}

// EnsureSummaries eagerly builds every partition's summary.
func (t *Table) EnsureSummaries() {
	for i := range t.Partitions {
		t.Summary(i)
	}
}

// Summaries returns one summary per partition, building missing ones.
func (t *Table) Summaries() []*PartitionSummary {
	out := make([]*PartitionSummary, len(t.Partitions))
	for i := range t.Partitions {
		out[i] = t.Summary(i)
	}
	return out
}

// MergedColumn rolls the per-partition summaries of one column up into
// a table-level summary (partition sketches combine via KMV.Merge and
// LossyCounter.Merge; Complete survives only when every partition was
// complete and the union stayed exactly countable).
func (t *Table) MergedColumn(col int) ColumnSummary {
	out := newColumnSummary()
	allComplete := true
	for i := range t.Partitions {
		ps := t.Summary(i)
		out.mergeFrom(&ps.Cols[col])
		allComplete = allComplete && ps.Cols[col].Complete
	}
	out.finish()
	out.Complete = out.Complete && allComplete
	return out
}
