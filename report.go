package quickr

import "quickr/internal/metrics"

// RunMetrics is the JSON view of the simulated cluster costs.
type RunMetrics struct {
	MachineHours      float64 `json:"machine_hours"`
	Runtime           float64 `json:"runtime"`
	IntermediateBytes float64 `json:"intermediate_bytes"`
	ShuffledBytes     float64 `json:"shuffled_bytes"`
	Passes            float64 `json:"passes"`
	Tasks             int     `json:"tasks"`
	Stages            int     `json:"stages"`
	OptimizeSeconds   float64 `json:"optimize_seconds"`
	// PeakInflightBytes is the worst per-operator in-flight footprint
	// (max over operators of the bytes it held at once across tasks).
	PeakInflightBytes float64 `json:"peak_inflight_bytes"`
	// RowsPerSec is base-table rows processed per wall-clock second.
	RowsPerSec float64 `json:"rows_per_sec"`
	// ExecSeconds is the real (not simulated) execution wall time.
	ExecSeconds float64 `json:"exec_seconds"`
	// QueuedSeconds is the admission-gate wait before execution began.
	QueuedSeconds float64 `json:"queued_seconds"`
	// AdmittedBytes is the admission gate's byte reservation.
	AdmittedBytes int64 `json:"admitted_bytes"`
	// PoolWaitSeconds is the aggregate scheduling wait on the shared
	// worker pool.
	PoolWaitSeconds float64 `json:"pool_wait_seconds"`
	// PoolTasks and PoolStolen count partition tasks and how many ran
	// on shared pool workers.
	PoolTasks  int `json:"pool_tasks"`
	PoolStolen int `json:"pool_stolen"`
	// PartitionsScanned counts the base-table partitions the plan's
	// scans read. Always emitted (the stats_*.golden files pin the
	// schema).
	PartitionsScanned int64 `json:"partitions_scanned"`
}

// RunReport is the machine-readable report of one executed query,
// emitted by `quickr --stats` and embedded per query in the BENCH_*.json
// files quickr-bench writes.
type RunReport struct {
	Query          string             `json:"query,omitempty"`
	Approx         bool               `json:"approx"`
	Sampled        bool               `json:"sampled"`
	Unapproximable bool               `json:"unapproximable"`
	PlanCached     bool               `json:"plan_cached"`
	Samplers       []SamplerInfo      `json:"samplers,omitempty"`
	Metrics        RunMetrics         `json:"metrics"`
	Operators      []metrics.OpReport `json:"operators"`
	// Contract reports the accuracy/latency contract outcome (absent
	// for queries without a contract clause).
	Contract *ContractReport `json:"contract,omitempty"`
}

// ContractReport is the JSON view of a ContractInfo.
type ContractReport struct {
	ErrorTarget     float64 `json:"error_target,omitempty"`
	Confidence      float64 `json:"confidence"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	ChosenP         float64 `json:"chosen_p"`
	Attempts        int     `json:"attempts"`
	Escalations     int     `json:"escalations"`
	PlanCacheHits   int     `json:"plan_cache_hits"`
	Satisfied       bool    `json:"satisfied"`
	Exact           bool    `json:"exact"`
	HistoryHit      bool    `json:"history_hit"`
	PredictedRelErr float64 `json:"predicted_rel_err,omitempty"`
	CorrectedRelErr float64 `json:"corrected_rel_err,omitempty"`
	RealizedRelErr  float64 `json:"realized_rel_err,omitempty"`
}

// ContractReport builds the JSON contract view, or nil when the query
// carried no contract.
func (r *Result) ContractReport() *ContractReport {
	c := r.Contract
	if c == nil {
		return nil
	}
	return &ContractReport{
		ErrorTarget:     c.ErrorTarget,
		Confidence:      c.Confidence,
		DeadlineSeconds: c.Deadline.Seconds(),
		ChosenP:         c.ChosenP,
		Attempts:        c.Attempts,
		Escalations:     c.Escalations,
		PlanCacheHits:   c.PlanCacheHits,
		Satisfied:       c.Satisfied,
		Exact:           c.Exact,
		HistoryHit:      c.HistoryHit,
		PredictedRelErr: c.PredictedRelErr,
		CorrectedRelErr: c.CorrectedRelErr,
		RealizedRelErr:  c.RealizedRelErr,
	}
}

// RunReport builds the JSON run report for this result.
func (r *Result) RunReport(query string, approx bool) *RunReport {
	rps := 0.0
	if r.ExecSeconds > 0 {
		rps = float64(r.RowsProcessed) / r.ExecSeconds
	}
	return &RunReport{
		Query:          query,
		Approx:         approx,
		Sampled:        r.Sampled,
		Unapproximable: r.Unapproximable,
		PlanCached:     r.PlanCached,
		Samplers:       r.Samplers,
		Metrics: RunMetrics{
			MachineHours:      r.Metrics.MachineHours,
			Runtime:           r.Metrics.Runtime,
			IntermediateBytes: r.Metrics.IntermediateBytes,
			ShuffledBytes:     r.Metrics.ShuffledBytes,
			Passes:            r.Metrics.Passes,
			Tasks:             r.Metrics.Tasks,
			Stages:            r.Metrics.Stages,
			OptimizeSeconds:   r.OptimizeTime,
			PeakInflightBytes: r.PeakInFlightBytes,
			RowsPerSec:        rps,
			ExecSeconds:       r.ExecSeconds,
			QueuedSeconds:     r.QueuedSeconds,
			AdmittedBytes:     r.AdmittedBytes,
			PoolWaitSeconds:   r.PoolWaitSeconds,
			PoolTasks:         r.PoolTasks,
			PoolStolen:        r.PoolStolen,
			PartitionsScanned: r.PartitionsScanned,
		},
		Operators: r.Stats.Report(),
		Contract:  r.ContractReport(),
	}
}
