package metrics

import "sync/atomic"

// Process-wide gauges for the concurrent query service: the shared
// worker pool, the byte-budget admission gate, and the plan cache all
// publish here, and the `quickr -serve` /metrics endpoint (plus tests)
// reads consistent snapshots via Gauges(). Unlike the per-query Op
// collectors these are cross-query and therefore atomic.
var (
	// PoolWorkers is the number of live pool workers.
	PoolWorkers atomic.Int64
	// PoolRunningTasks is the number of partition tasks executing now.
	PoolRunningTasks atomic.Int64
	// PoolQueuedJobs is the number of jobs with unclaimed tasks.
	PoolQueuedJobs atomic.Int64
	// PoolCompletedTasks counts tasks finished since process start.
	PoolCompletedTasks atomic.Int64

	// AdmittedBytes is the admission gate's currently reserved bytes.
	AdmittedBytes atomic.Int64
	// QueuedQueries is the number of queries waiting at the gate.
	QueuedQueries atomic.Int64

	// PlanCacheHits and PlanCacheMisses count prepared-plan cache
	// lookups across all engines in the process.
	PlanCacheHits   atomic.Int64
	PlanCacheMisses atomic.Int64

	// ActiveQueries is the number of queries between admission and
	// completion.
	ActiveQueries atomic.Int64

	// ContractEscalations counts contract misses that escalated p one
	// ladder rung and re-ran.
	ContractEscalations atomic.Int64
	// ContractViolations counts contract queries whose FINAL answer
	// still missed the bound (the exact fallback makes this zero in a
	// healthy system).
	ContractViolations atomic.Int64
	// HistoryHits counts runs that found learned corrections for their
	// plan fingerprint; HistoryRecords counts observations written.
	HistoryHits    atomic.Int64
	HistoryRecords atomic.Int64

	// Sample-cache gauges: lookups against the materialized sampler-
	// output cache (hot-sample reuse), LRU evictions, admission rejects
	// (entries over the per-entry ceiling fall back to the lazy path),
	// and the currently resident payload bytes.
	SampleCacheHits      atomic.Int64
	SampleCacheMisses    atomic.Int64
	SampleCacheEvictions atomic.Int64
	SampleCacheRejects   atomic.Int64
	SampleCacheBytes     atomic.Int64
)

// GaugeSnapshot is a point-in-time copy of the process gauges.
type GaugeSnapshot struct {
	PoolWorkers        int64 `json:"pool_workers"`
	PoolRunningTasks   int64 `json:"pool_running_tasks"`
	PoolQueuedJobs     int64 `json:"pool_queued_jobs"`
	PoolCompletedTasks int64 `json:"pool_completed_tasks"`
	AdmittedBytes      int64 `json:"admitted_bytes"`
	QueuedQueries      int64 `json:"queued_queries"`
	PlanCacheHits      int64 `json:"plan_cache_hits"`
	PlanCacheMisses    int64 `json:"plan_cache_misses"`
	ActiveQueries      int64 `json:"active_queries"`

	ContractEscalations int64 `json:"contract_escalations"`
	ContractViolations  int64 `json:"contract_violations"`
	HistoryHits         int64 `json:"history_hits"`
	HistoryRecords      int64 `json:"history_records"`

	SampleCacheHits      int64 `json:"sample_cache_hits"`
	SampleCacheMisses    int64 `json:"sample_cache_misses"`
	SampleCacheEvictions int64 `json:"sample_cache_evictions"`
	SampleCacheRejects   int64 `json:"sample_cache_rejects"`
	SampleCacheBytes     int64 `json:"sample_cache_bytes"`
}

// Gauges snapshots the process-wide service gauges.
func Gauges() GaugeSnapshot {
	return GaugeSnapshot{
		PoolWorkers:        PoolWorkers.Load(),
		PoolRunningTasks:   PoolRunningTasks.Load(),
		PoolQueuedJobs:     PoolQueuedJobs.Load(),
		PoolCompletedTasks: PoolCompletedTasks.Load(),
		AdmittedBytes:      AdmittedBytes.Load(),
		QueuedQueries:      QueuedQueries.Load(),
		PlanCacheHits:      PlanCacheHits.Load(),
		PlanCacheMisses:    PlanCacheMisses.Load(),
		ActiveQueries:      ActiveQueries.Load(),

		ContractEscalations: ContractEscalations.Load(),
		ContractViolations:  ContractViolations.Load(),
		HistoryHits:         HistoryHits.Load(),
		HistoryRecords:      HistoryRecords.Load(),

		SampleCacheHits:      SampleCacheHits.Load(),
		SampleCacheMisses:    SampleCacheMisses.Load(),
		SampleCacheEvictions: SampleCacheEvictions.Load(),
		SampleCacheRejects:   SampleCacheRejects.Load(),
		SampleCacheBytes:     SampleCacheBytes.Load(),
	}
}
