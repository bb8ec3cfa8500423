package exec

import (
	"fmt"
	"strings"

	"quickr/internal/metrics"
)

// FormatAnalyze renders the physical plan as an indented tree annotated
// with executed metrics — the EXPLAIN ANALYZE view. Each operator line
// shows the optimizer-estimated output cardinality next to the actual
// row counts, plus sampler telemetry (rows seen/passed and the observed
// pass rate against the configured p), join build/probe sizes, and
// heavy-hitter sketch occupancy where applicable.
func FormatAnalyze(n PNode, qm *metrics.Query) string {
	var b strings.Builder
	var rec func(PNode, int)
	rec = func(n PNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		if op := qm.Op(n); op != nil {
			t := op.Total()
			b.WriteString("  (")
			if op.EstRows >= 0 {
				fmt.Fprintf(&b, "est=%.4g rows, ", op.EstRows)
			}
			if op.CorrRows >= 0 {
				fmt.Fprintf(&b, "corrected=%.4g rows, ", op.CorrRows)
			}
			fmt.Fprintf(&b, "actual=%d rows", t.RowsOut)
			if t.RowsIn != t.RowsOut {
				fmt.Fprintf(&b, ", in=%d", t.RowsIn)
			}
			if p := op.Partitions(); p > 1 {
				fmt.Fprintf(&b, ", parts=%d", p)
			}
			if w := op.WallNanos(); w > 0 {
				fmt.Fprintf(&b, ", wall=%.2fms", float64(w)/1e6)
			}
			if t.Batches > 0 {
				fmt.Fprintf(&b, ", batches=%d, peak=%.0fB", t.Batches, t.PeakBytes)
			}
			b.WriteString(")")
			if op.SamplerType != "" {
				rate := 0.0
				if t.SamplerSeen > 0 {
					rate = float64(t.SamplerPassed) / float64(t.SamplerSeen)
				}
				fmt.Fprintf(&b, " [sampler %s seen=%d passed=%d rate=%.4g p=%.4g",
					op.SamplerType, t.SamplerSeen, t.SamplerPassed, rate, op.SamplerP)
				if t.SketchEntries > 0 {
					fmt.Fprintf(&b, " sketch=%d", t.SketchEntries)
				}
				b.WriteString("]")
			}
			if t.BuildRows > 0 || t.ProbeRows > 0 {
				fmt.Fprintf(&b, " [build=%d probe=%d]", t.BuildRows, t.ProbeRows)
			}
		}
		b.WriteByte('\n')
		for _, k := range n.Kids() {
			rec(k, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}
