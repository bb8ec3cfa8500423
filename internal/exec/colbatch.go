package exec

import "quickr/internal/table"

// Batch is the column-major unit of data flowing through the fused
// pipeline. Its live rows — the lanes covered by sel, in sel order — are
// the partition's rows at this operator boundary, in partition order.
//
//   - cols holds one Vector per column, positionally aligned with the
//     row layout at this point in the pipeline.
//   - n is the physical lane count of each column.
//   - sel is the selection vector: ascending physical lane indexes of
//     the live rows. nil means all n lanes are live (dense).
//   - weights holds the Horvitz–Thompson weight of each physical lane;
//     samplers scale it in place as they thin sel.
//   - bytes is the in-flight size of the live rows (sum of per-row
//     ByteSize()+8, the same measure a Part caches for its rows).
//
// Dead lanes (outside sel) hold unspecified zero/NULL payloads; kernels
// may compute them, and must never read them back for live results.
type Batch struct {
	cols    []table.Vector
	n       int
	sel     []int32
	weights []float64
	bytes   float64
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// liveSel returns the live lanes as an explicit selection, using buf
// when the batch is dense. The result must not be retained past the
// batch.
func (b *Batch) liveSel(buf []int32) []int32 {
	if b.sel != nil {
		return b.sel
	}
	buf = buf[:0]
	for i := 0; i < b.n; i++ {
		buf = append(buf, int32(i))
	}
	return buf
}

// liveBytes recomputes the in-flight size of the live rows selected by
// sel: per row, the per-column value bytes plus the 8-byte weight field.
func liveBytes(cols []table.Vector, sel []int32) float64 {
	total := 8 * float64(len(sel))
	for c := range cols {
		total += cols[c].BytesSel(sel)
	}
	return total
}
