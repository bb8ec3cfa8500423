package sampler

// Batch-mode entry points for the executor: samplers thin a selection
// vector and scale the weight column in place instead of admitting
// materialized rows. Admit stays the one-row definition: each AdmitBatch
// draws exactly the per-row decision sequence Admit would for the same
// live rows in the same order (TestAdmitBatchMatchesAdmit in
// sampler_test.go and the executor's row reference hold them to it).
// The distinct sampler has no batch form; the executor feeds it row by
// row through Admit.

// AdmitBatch admits the live lanes listed in sel, in order. Passing
// lanes keep their slot in the (in-place thinned) selection and have
// their weight scaled by 1/P; the thinned selection is returned.
func (u *Uniform) AdmitBatch(sel []int32, weights []float64) []int32 {
	out := sel[:0]
	for _, lane := range sel {
		if u.rng.Float64() < u.P {
			weights[lane] /= u.P
			out = append(out, lane)
		}
	}
	return out
}

// AdmitBatch admits the live lanes listed in sel, in order. hash must
// return the lane's subspace coordinate — HashValues over the same
// universe-column values Admit would gather from the materialized row.
func (u *Universe) AdmitBatch(sel []int32, weights []float64, hash func(lane int32) uint64) []int32 {
	out := sel[:0]
	for _, lane := range sel {
		if hash(lane) <= u.threshold {
			weights[lane] /= u.P
			out = append(out, lane)
		}
	}
	return out
}
