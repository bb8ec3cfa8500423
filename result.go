package quickr

import (
	"fmt"
	"strings"

	"quickr/internal/cluster"
	"quickr/internal/exec"
	"quickr/internal/metrics"
	"quickr/internal/table"
)

// Result is the outcome of executing a query.
type Result struct {
	// Columns are the output column names, in order.
	Columns []string
	// Rows are the output rows as native Go values (int64, float64,
	// string, bool, or nil for SQL NULL).
	Rows [][]any
	// Metrics are the simulated cluster costs of the run.
	Metrics cluster.Metrics
	// Estimates carry per-group values, standard errors and sample
	// support from the top aggregation (populated for sampled plans and
	// exact plans alike; exact plans report zero standard error).
	Estimates []GroupEstimate
	// Sampled reports whether the executed plan contained samplers.
	Sampled bool
	// Unapproximable is set when ExecApprox fell back to the exact plan.
	Unapproximable bool
	// Samplers lists the samplers in the executed plan.
	Samplers []SamplerInfo
	// PlanText is the executed physical plan, for EXPLAIN-style output.
	PlanText string
	// AnalyzedPlan is the EXPLAIN ANALYZE view: the executed plan
	// annotated with actual row counts per operator alongside the
	// optimizer's estimates, sampler pass rates and join sizes.
	AnalyzedPlan string
	// Stats carries the per-operator execution counters backing
	// AnalyzedPlan and the --stats JSON run report.
	Stats *metrics.Query
	// StageReport is the per-stage accounting of the simulated run.
	StageReport string
	// OptimizeTime is the time spent in query optimization.
	OptimizeTime float64 // seconds
	// PeakInFlightBytes is the worst per-operator in-flight footprint of
	// the run (see exec.Result.PeakInFlightBytes): with streaming
	// pipelines this stays near partitions×batch-bytes where the
	// materializing executor held entire intermediates.
	PeakInFlightBytes float64
	// RowsProcessed counts base-table rows driven through the plan.
	RowsProcessed int64
	// PartitionsScanned counts the base-table partitions the plan's
	// scans read: every partition of every scanned table.
	PartitionsScanned int64
	// Always 0: partition selection is gone (DESIGN §12).
	//
	// Deprecated: kept so the benchmark harness compiles; goes with its
	// opt.prune.* point.
	PartitionsPruned int64
	// ExecSeconds is real wall-clock execution time (not simulated).
	ExecSeconds float64
	// QueuedSeconds is the time the query waited at the byte-budget
	// admission gate before executing.
	QueuedSeconds float64
	// AdmittedBytes is the in-flight byte reservation the admission
	// gate granted the query (estimated from optimizer cardinalities).
	AdmittedBytes int64
	// PoolWaitSeconds is the run's aggregate scheduling wait on the
	// process-wide shared worker pool.
	PoolWaitSeconds float64
	// PoolTasks and PoolStolen count partition tasks run for the query
	// and how many were executed by shared pool workers rather than the
	// query's own goroutine.
	PoolTasks, PoolStolen int
	// PlanCached reports whether the prepared plan came from the
	// engine's plan cache rather than a fresh optimization.
	PlanCached bool
	// Contract describes the outcome of the query's accuracy/latency
	// contract (nil for queries without a contract clause).
	Contract *ContractInfo
	// InternalRows exposes the raw rows for in-module tooling.
	InternalRows []table.Row
}

// GroupEstimate is the public view of one aggregated group.
type GroupEstimate struct {
	// Key holds the group-by values.
	Key []any
	// Values holds the aggregate estimates.
	Values []any
	// StdErr holds the standard error of each aggregate's HT estimator
	// (0 for exact runs and for MIN/MAX/COUNT DISTINCT).
	StdErr []float64
	// CI95 is the half-width of the 95% confidence interval per
	// aggregate (1.96 × StdErr).
	CI95 []float64
	// SampleRows is the number of sample rows supporting the group.
	SampleRows int64
}

func newResult(r *exec.Result, p *prepared) *Result {
	out := &Result{
		Metrics:        r.Metrics,
		Sampled:        p.sampled,
		Unapproximable: p.unapproximable,
		Samplers:       p.samplers,
		PlanText:       r.PlanText,
		AnalyzedPlan:   r.AnalyzedPlan,
		Stats:          r.Stats,
		StageReport:    r.StageReport,
		OptimizeTime:   p.optTime.Seconds(),
		InternalRows:   r.Rows,

		PeakInFlightBytes: r.PeakInFlightBytes,
		RowsProcessed:     r.RowsProcessed,
		PartitionsScanned: r.PartitionsScanned,
		ExecSeconds:       r.ExecSeconds,
		QueuedSeconds:     float64(r.QueuedNanos) / 1e9,
		AdmittedBytes:     r.AdmittedBytes,
		PoolWaitSeconds:   float64(r.PoolWaitNanos) / 1e9,
		PoolTasks:         r.PoolTasks,
		PoolStolen:        r.PoolStolen,
	}
	out.Columns = make([]string, len(r.Cols))
	for i, c := range r.Cols {
		out.Columns[i] = c.Name
	}
	// Every row's and estimate's []any is carved from one backing slice,
	// every CI95 from another.
	cells, errs := 0, 0
	for _, row := range r.Rows {
		cells += len(row)
	}
	for _, g := range r.Estimates {
		cells += len(g.Key) + len(g.Values)
		errs += len(g.StdErr)
	}
	anys, ci95 := make([]any, cells), make([]float64, errs)
	if len(r.Rows) > 0 {
		out.Rows = make([][]any, len(r.Rows))
	}
	for i, row := range r.Rows {
		out.Rows[i], anys = valsToAny(anys, row)
	}
	if len(r.Estimates) > 0 {
		out.Estimates = make([]GroupEstimate, len(r.Estimates))
	}
	for i, g := range r.Estimates {
		ge := GroupEstimate{StdErr: g.StdErr, SampleRows: g.SampleRows, CI95: ci95[:len(g.StdErr):len(g.StdErr)]}
		ci95 = ci95[len(g.StdErr):]
		ge.Key, anys = valsToAny(anys, g.Key)
		ge.Values, anys = valsToAny(anys, g.Values)
		for k, se := range g.StdErr {
			ge.CI95[k] = 1.96 * se
		}
		out.Estimates[i] = ge
	}
	return out
}

// valsToAny renders vals as native Go values into the front of buf and
// returns them with the rest of buf.
func valsToAny(buf []any, vals []table.Value) (out, rest []any) {
	out, rest = buf[:len(vals):len(vals)], buf[len(vals):]
	for i, v := range vals {
		switch v.Kind() {
		case table.KindInt:
			out[i] = v.Int()
		case table.KindFloat:
			out[i] = v.Float()
		case table.KindString:
			out[i] = v.Str()
		case table.KindBool:
			out[i] = v.Bool()
		}
	}
	return out, rest
}

// Format renders the result as an aligned text table (up to max rows;
// max<=0 means all).
func (r *Result) Format(max int) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, "\t"))
	b.WriteByte('\n')
	n := len(r.Rows)
	if max > 0 && n > max {
		n = max
	}
	for _, row := range r.Rows[:n] {
		parts := make([]string, len(row))
		for i, v := range row {
			if v == nil {
				parts[i] = "NULL"
			} else if f, ok := v.(float64); ok {
				parts[i] = fmt.Sprintf("%.4g", f)
			} else {
				parts[i] = fmt.Sprint(v)
			}
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	if n < len(r.Rows) {
		fmt.Fprintf(&b, "... (%d more rows)\n", len(r.Rows)-n)
	}
	return b.String()
}
