// Package metrics collects cheap, race-safe per-operator execution
// counters for one query run: rows and bytes in/out, wall time, sampler
// pass/seen counts, heavy-hitter sketch occupancy, and join build/probe
// sizes. The executor gives every physical operator an Op collector
// with one Slot per partition; parallel partition workers write only
// their own slot (index-disjoint, no locks or atomics), and slots are
// merged with Total only after the parallel region ends. This is the
// observability substrate behind EXPLAIN ANALYZE, the --stats JSON run
// report, and the checked sampler-rate invariants in the experiment
// harness.
package metrics

import "time"

// Slot holds the counters one partition (task) accumulates for one
// operator. Concurrent partitions must touch only their own slot; the
// struct is kept at exactly 128 bytes (two cache lines) so partition
// workers do not false-share.
type Slot struct {
	RowsIn, RowsOut   int64
	BytesIn, BytesOut float64
	// SamplerSeen/SamplerPassed count rows offered to and emitted by a
	// sampler operator (emitted includes reservoir flushes, so for the
	// distinct sampler Passed/Seen can exceed the configured p).
	SamplerSeen, SamplerPassed int64
	// SketchEntries is the heavy-hitter sketch occupancy (tracked
	// entries plus live reservoir rows) at end of partition.
	SketchEntries int64
	// BuildRows/ProbeRows size the two sides of a hash join as the task
	// saw them (the build side is replicated under broadcast joins).
	BuildRows, ProbeRows int64
	// Batches counts the row batches the operator emitted in this
	// partition (one per materialized partition for pipeline breakers).
	Batches int64
	// PeakBytes is the largest in-flight output this partition held at
	// once: the biggest batch for pipelined operators, the whole
	// materialized partition for breakers. Total sums partition peaks,
	// approximating the operator's worst-case concurrent footprint.
	PeakBytes float64
	// WallNanos accumulates wall time the partition spent inside the
	// operator's own per-batch work (machine time, not elapsed; the
	// operator's elapsed time takes the max across partitions).
	WallNanos int64
	// KernelLanes counts physical vector lanes processed by the
	// pipeline's columnar kernels. FallbackRows is always 0, since every
	// expression runs as a kernel; it stays only for the repository
	// benchmark's exec.columnar.fallback_rows point, which reads it.
	KernelLanes  int64
	FallbackRows int64
	_            [2]int64 // pad 14 counters to 128 bytes
}

func (s *Slot) add(o *Slot) {
	s.RowsIn += o.RowsIn
	s.RowsOut += o.RowsOut
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.SamplerSeen += o.SamplerSeen
	s.SamplerPassed += o.SamplerPassed
	s.SketchEntries += o.SketchEntries
	s.BuildRows += o.BuildRows
	s.ProbeRows += o.ProbeRows
	s.Batches += o.Batches
	s.PeakBytes += o.PeakBytes
	s.WallNanos += o.WallNanos
	s.KernelLanes += o.KernelLanes
	s.FallbackRows += o.FallbackRows
}

// NoteBatch records one emitted batch of the given byte size, tracking
// the partition's peak in-flight footprint.
func (s *Slot) NoteBatch(bytes float64) {
	s.Batches++
	if bytes > s.PeakBytes {
		s.PeakBytes = bytes
	}
}

// Op is the collector for one physical operator.
type Op struct {
	// ID is the operator's position in plan pre-order.
	ID int
	// Kind is the operator class ("Scan", "Filter", "Sample", ...).
	Kind string
	// Detail is the operator's Describe() text.
	Detail string
	// Depth is the operator's depth in the plan tree.
	Depth int
	// EstRows is the optimizer's estimated output cardinality, or -1
	// when no estimate was attached.
	EstRows float64
	// CorrRows is the history-corrected cardinality estimate, or -1
	// when no learned correction applied (cold history or learning
	// disabled). Shown by EXPLAIN ANALYZE as `corrected=`.
	CorrRows float64
	// SamplerType and SamplerP describe a sampler operator's
	// configuration ("" / 0 for everything else).
	SamplerType string
	SamplerP    float64

	wallNanos int64
	slots     []Slot
}

// Grow ensures the operator has at least n slots. It must be called
// before the parallel region that writes them (it is not safe
// concurrently with Slot).
func (o *Op) Grow(n int) {
	if n <= len(o.slots) {
		return
	}
	ns := make([]Slot, n)
	copy(ns, o.slots)
	o.slots = ns
}

// Slot returns partition i's counter slot. Callers must Grow first;
// like the cluster simulator's task accounting, out-of-range indexes
// wrap so a misconfigured caller degrades accounting rather than
// panicking.
func (o *Op) Slot(i int) *Slot {
	if len(o.slots) == 0 {
		o.slots = make([]Slot, 1)
	}
	return &o.slots[i%len(o.slots)]
}

// Partitions returns the number of slots (the operator's degree of
// parallelism as executed).
func (o *Op) Partitions() int { return len(o.slots) }

// AddWall adds wall-clock time spent in the operator's own work
// (excluding its children). Call only from the coordinating goroutine.
func (o *Op) AddWall(d time.Duration) { o.wallNanos += int64(d) }

// WallNanos returns the operator's elapsed wall time: coordinator-side
// time plus the slowest partition's in-pipeline time (partitions run
// concurrently, so the max approximates the elapsed contribution).
func (o *Op) WallNanos() int64 {
	w := o.wallNanos
	var slowest int64
	for i := range o.slots {
		if o.slots[i].WallNanos > slowest {
			slowest = o.slots[i].WallNanos
		}
	}
	return w + slowest
}

// Total merges all partition slots. Call only after the operator's
// parallel region has completed.
func (o *Op) Total() Slot {
	var t Slot
	for i := range o.slots {
		t.add(&o.slots[i])
	}
	return t
}

// Query collects the per-operator metrics of one plan execution, in
// plan pre-order.
type Query struct {
	ops    []*Op
	byNode map[any]*Op
}

// NewQuery creates an empty per-query collector.
func NewQuery() *Query {
	return &Query{byNode: map[any]*Op{}}
}

// Register creates the collector for one plan node. Nodes are keyed by
// identity, so the same physical plan can later be walked to look its
// operators up again.
func (q *Query) Register(node any, kind, detail string, depth int, estRows float64) *Op {
	op := &Op{ID: len(q.ops), Kind: kind, Detail: detail, Depth: depth, EstRows: estRows, CorrRows: -1}
	q.ops = append(q.ops, op)
	q.byNode[node] = op
	return op
}

// Op returns the collector registered for node, or nil.
func (q *Query) Op(node any) *Op {
	if q == nil {
		return nil
	}
	return q.byNode[node]
}

// Ops returns all collectors in plan pre-order.
func (q *Query) Ops() []*Op {
	if q == nil {
		return nil
	}
	return q.ops
}
