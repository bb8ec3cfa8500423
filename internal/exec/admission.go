package exec

// EstimateAdmissionBytes predicts a plan's in-flight memory footprint
// from the optimizer's cardinality estimates, for byte-budget admission
// control: every pipeline breaker (exchange, co-partitioned join,
// aggregation, sort, union, window) materializes its estimated output,
// so the reservation sums estRows × estimated row width over breaker
// nodes, and every hash join holds its build side. A broadcast join
// probes inside the fused chain and materializes nothing more: whatever
// its chain sinks is charged to the breaker above. Nodes without an
// estimate fall back to the widest child estimate seen below them. The
// result is floored so even trivial queries reserve something — the
// gate's purpose is ordering under pressure, not exact accounting.
func EstimateAdmissionBytes(p PNode, ests map[PNode]float64) int64 {
	const (
		bytesPerCol = 16
		rowOverhead = 24
		floor       = 64 << 10
	)
	var total float64
	var walk func(n PNode) float64 // returns the node's est rows (or best-effort)
	walk = func(n PNode) float64 {
		var kidMax float64
		for _, k := range n.Kids() {
			if r := walk(k); r > kidMax {
				kidMax = r
			}
		}
		rows, ok := ests[n]
		if !ok || rows <= 0 {
			rows = kidMax
		}
		if !chained(n) {
			total += rows * float64(len(n.Cols())*bytesPerCol+rowOverhead)
		}
		if j, isJoin := n.(*PHashJoin); isJoin {
			// The build side is held in hash tables while probing.
			if br, ok := ests[j.Right]; ok && br > 0 {
				total += br * float64(len(j.Right.Cols())*bytesPerCol+rowOverhead)
			}
		}
		return rows
	}
	root := walk(p)
	// The final result materializes at the coordinator.
	total += root * float64(len(p.Cols())*bytesPerCol+rowOverhead)
	if total < floor {
		total = floor
	}
	return int64(total)
}

// MapCtxErr converts context errors into the typed ErrCanceled /
// ErrDeadline query errors (exported for callers that hit cancellation
// outside plan execution, e.g. while queued at the admission gate).
func MapCtxErr(err error) error { return mapCtxErr(err) }
