package metrics

// OpReport is the JSON-serializable view of one operator's executed
// metrics, consumed by the --stats run report and BENCH_*.json. The
// core numeric fields are always emitted (never omitempty) so report
// consumers can schema-check them.
type OpReport struct {
	ID      int     `json:"id"`
	Kind    string  `json:"kind"`
	Detail  string  `json:"detail"`
	Depth   int     `json:"depth"`
	EstRows float64 `json:"est_rows"` // -1 when no optimizer estimate
	// CorrRows is the history-corrected estimate; omitted when no
	// learned correction applied.
	CorrRows float64 `json:"corrected_rows,omitempty"`

	Partitions int     `json:"partitions"`
	RowsIn     int64   `json:"rows_in"`
	RowsOut    int64   `json:"rows_out"`
	BytesIn    float64 `json:"bytes_in"`
	BytesOut   float64 `json:"bytes_out"`
	WallMillis float64 `json:"wall_ms"`
	// Batches counts emitted row batches; PeakBytes sums the partitions'
	// peak in-flight bytes (worst-case concurrent footprint).
	Batches   int64   `json:"batches"`
	PeakBytes float64 `json:"peak_bytes"`

	SamplerType   string  `json:"sampler_type,omitempty"`
	SamplerP      float64 `json:"sampler_p"`
	SamplerSeen   int64   `json:"sampler_seen"`
	SamplerPassed int64   `json:"sampler_passed"`
	// SamplerRate is SamplerPassed/SamplerSeen (0 when nothing seen).
	SamplerRate   float64 `json:"sampler_rate"`
	SketchEntries int64   `json:"sketch_entries"`

	BuildRows int64 `json:"build_rows"`
	ProbeRows int64 `json:"probe_rows"`

	// Kernel counters: physical lanes through the vectorized kernels and
	// live rows routed through the row-closure fallback (omitted at zero:
	// breakers run no kernels, most chains never fall back).
	KernelLanes  int64 `json:"kernel_lanes,omitempty"`
	FallbackRows int64 `json:"fallback_rows,omitempty"`
}

// Report flattens the query's operators (plan pre-order, with depths,
// so consumers can rebuild the tree).
func (q *Query) Report() []OpReport {
	if q == nil {
		return nil
	}
	out := make([]OpReport, 0, len(q.ops))
	for _, op := range q.ops {
		t := op.Total()
		r := OpReport{
			ID:            op.ID,
			Kind:          op.Kind,
			Detail:        op.Detail,
			Depth:         op.Depth,
			EstRows:       op.EstRows,
			CorrRows:      corrOrZero(op.CorrRows),
			Partitions:    op.Partitions(),
			RowsIn:        t.RowsIn,
			RowsOut:       t.RowsOut,
			BytesIn:       t.BytesIn,
			BytesOut:      t.BytesOut,
			WallMillis:    float64(op.WallNanos()) / 1e6,
			Batches:       t.Batches,
			PeakBytes:     t.PeakBytes,
			SamplerType:   op.SamplerType,
			SamplerP:      op.SamplerP,
			SamplerSeen:   t.SamplerSeen,
			SamplerPassed: t.SamplerPassed,
			SketchEntries: t.SketchEntries,
			BuildRows:     t.BuildRows,
			ProbeRows:     t.ProbeRows,
			KernelLanes:   t.KernelLanes,
			FallbackRows:  t.FallbackRows,
		}
		if t.SamplerSeen > 0 {
			r.SamplerRate = float64(t.SamplerPassed) / float64(t.SamplerSeen)
		}
		out = append(out, r)
	}
	return out
}

// corrOrZero maps the "no correction" sentinel (-1) to the JSON zero
// value so corrected_rows is omitted for uncorrected operators.
func corrOrZero(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
