package exec

import "math"

// DefaultBatchSize is the number of rows per pipeline batch when the
// caller does not override it. Big enough to amortize per-batch
// accounting, small enough that a fused scan→filter→sample pipeline
// keeps only a few KB in flight per partition instead of the whole
// intermediate result (and small enough to still batch the modest
// per-partition row counts of the CI smoke scale).
const DefaultBatchSize = 256

// Options tunes plan execution.
type Options struct {
	// BatchSize is the number of rows per streamed pipeline batch.
	// 0 selects DefaultBatchSize. Negative makes every batch span its
	// whole partition (the same code path with one batch per partition;
	// its in-flight peak is what the streaming peak is gated against).
	BatchSize int
	// QueuedNanos and AdmittedBytes echo the admission-gate outcome so
	// EXPLAIN ANALYZE and the JSON run report can annotate it alongside
	// the run's own pool telemetry.
	QueuedNanos   int64
	AdmittedBytes int64
	// CorrRows carries history-corrected cardinality estimates keyed by
	// plan-node identity (nil when no learned correction applied);
	// EXPLAIN ANALYZE shows them as `corrected=` next to `est=`.
	CorrRows map[PNode]float64
	// CacheEpoch is the engine's config epoch at submission time; it is
	// folded into sample-cache keys so entries from before a Set*/DDL
	// bump are unreachable even if a purge races a populate.
	CacheEpoch uint64
}

// resolveBatch maps the Options knob onto an effective batch size.
func resolveBatch(n int) int {
	switch {
	case n == 0:
		return DefaultBatchSize
	case n < 0:
		return math.MaxInt // one batch spans the whole partition
	}
	return n
}
