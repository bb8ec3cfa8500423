package table

// Columnar storage: the per-partition, column-major stored form. The
// vectorized executor (internal/exec) windows these vectors directly,
// statistics read them column by column, and Rows rebuilds rows from
// them. Columnarize builds a partition's first
// snapshot; later appends are sealed onto it in place (seal.go).

import "slices"

// ColVec is one stored column of a partition in columnar form.
//
// The representation is chosen per column from the data:
//   - Kind==KindInt: Ints holds the payload (0 for NULL lanes).
//   - Kind==KindFloat: Floats holds the payload.
//   - Kind==KindString: Ints holds dictionary codes into Dict.
//   - Kind==KindBool: Ints holds 0/1.
//   - Kind==KindNull: every lane is NULL; no payload is stored.
//   - Any==true: the column mixes kinds; Vals holds the exact values and
//     the typed fields are unused.
//
// Nulls is a little-endian bitmap (bit i set = lane i is NULL); nil when
// the column has no NULLs. It is unused when Any is set (Vals carries
// NULL lanes directly).
type ColVec struct {
	Kind   Kind
	Any    bool
	Ints   []int64
	Floats []float64
	Dict   []string
	Vals   []Value
	Nulls  []uint64
}

// Len returns the number of lanes in the column.
func (c *ColVec) Len() int {
	if c.Any {
		return len(c.Vals)
	}
	switch c.Kind {
	case KindFloat:
		return len(c.Floats)
	case KindNull:
		return nullLen(c)
	default:
		return len(c.Ints)
	}
}

// nullLen recovers the lane count of an all-NULL column from the bitmap.
func nullLen(c *ColVec) int { return int(c.Ints[0]) }

// IsNull reports whether lane i is NULL.
func (c *ColVec) IsNull(i int) bool {
	if c.Any {
		return c.Vals[i].IsNull()
	}
	if c.Kind == KindNull {
		return true
	}
	if c.Nulls == nil {
		return false
	}
	return c.Nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// Value reconstructs lane i as a Value, bit-identical to the stored row.
func (c *ColVec) Value(i int) Value {
	if c.Any {
		return c.Vals[i]
	}
	if c.Kind == KindNull || c.IsNull(i) {
		return Null
	}
	switch c.Kind {
	case KindInt:
		return NewInt(c.Ints[i])
	case KindFloat:
		return NewFloat(c.Floats[i])
	case KindString:
		return NewString(c.Dict[c.Ints[i]])
	case KindBool:
		return NewBool(c.Ints[i] != 0)
	}
	return Null
}

// ColPartition is one table partition in column-major form. It is
// immutable once published: every slice is clipped to its length, so no
// holder can append into the table's arrays.
type ColPartition struct {
	NumRows int
	// Bytes is the sum of Row.ByteSize over the rows it was built from.
	Bytes int64
	Cols  []ColVec
}

// rows rebuilds the partition's rows through ColVec.Value, with room
// for extra more in the result.
func (cp *ColPartition) rows(extra int) []Row {
	width := len(cp.Cols)
	out := make([]Row, cp.NumRows, cp.NumRows+extra)
	vals := make([]Value, cp.NumRows*width)
	for i := range out {
		out[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	for c := range cp.Cols {
		cv := &cp.Cols[c]
		for i := range out {
			out[i][c] = cv.Value(i)
		}
	}
	return out
}

// Columnarize converts a row-major partition into column-major form.
// width is the schema width; short rows are padded with NULL lanes.
func Columnarize(rows []Row, width int) *ColPartition {
	cp := &ColPartition{NumRows: len(rows), Bytes: rowsBytes(rows), Cols: make([]ColVec, width)}
	for c := 0; c < width; c++ {
		cp.Cols[c] = buildColVec(rows, c)
	}
	return cp
}

func buildColVec(rows []Row, c int) ColVec {
	n := len(rows)
	// First pass: find the column kind; degrade to Any on a mix.
	kind := KindNull
	mixed := false
	hasNull := false
	for _, r := range rows {
		v := colAt(r, c)
		if v.IsNull() {
			hasNull = true
			continue
		}
		if kind == KindNull {
			kind = v.Kind()
		} else if v.Kind() != kind {
			mixed = true
			break
		}
	}
	if mixed {
		vals := make([]Value, n)
		for i, r := range rows {
			vals[i] = colAt(r, c)
		}
		return ColVec{Any: true, Vals: vals}
	}
	if kind == KindNull {
		// All lanes NULL: store only the lane count.
		return ColVec{Kind: KindNull, Ints: []int64{int64(n)}}
	}
	cv := ColVec{Kind: kind}
	if hasNull {
		cv.Nulls = make([]uint64, (n+63)/64)
	}
	switch kind {
	case KindFloat:
		cv.Floats = make([]float64, n)
	default:
		cv.Ints = make([]int64, n)
	}
	var dictIdx map[string]int32
	if kind == KindString {
		dictIdx = make(map[string]int32)
	}
	for i, r := range rows {
		v := colAt(r, c)
		if v.IsNull() {
			cv.Nulls[i>>6] |= 1 << (uint(i) & 63)
			continue
		}
		switch kind {
		case KindInt:
			cv.Ints[i] = v.Int()
		case KindFloat:
			cv.Floats[i] = v.Float()
		case KindBool:
			if v.Bool() {
				cv.Ints[i] = 1
			}
		case KindString:
			s := v.Str()
			code, ok := dictIdx[s]
			if !ok {
				code = int32(len(cv.Dict))
				cv.Dict = append(cv.Dict, s)
				dictIdx[s] = code
			}
			cv.Ints[i] = int64(code)
		}
	}
	cv.Dict = slices.Clip(cv.Dict)
	return cv
}

func colAt(r Row, c int) Value {
	if c >= len(r) {
		return Null
	}
	return r[c]
}

// Columnar returns the column-major form of partition i, first sealing
// whatever was appended since the last read (seal.go). The snapshot is
// immutable and stays valid however the table grows afterwards. Safe
// for concurrent use.
func (t *Table) Columnar(i int) *ColPartition {
	p := &t.parts[i]
	t.cacheMu.Lock()
	snap, pending := p.snap, len(t.Partitions[i])
	t.cacheMu.Unlock()
	if snap != nil && pending == 0 {
		return snap
	}
	p.seal.Lock()
	defer p.seal.Unlock()
	t.cacheMu.Lock()
	snap, tail := p.snap, t.Partitions[i] // a racing reader may have sealed it
	t.cacheMu.Unlock()
	if snap != nil && len(tail) == 0 {
		return snap
	}
	if partBuildHook != nil {
		partBuildHook(i)
	}
	// Outside cacheMu: tail rows are immutable and Append only writes
	// past the end of the header read above.
	snap = p.sealTail(snap, tail, t.Schema.Len())
	t.cacheMu.Lock()
	p.snap = snap
	// Rows that arrived meanwhile move to a fresh array; the sealed
	// rows' array is released with the header.
	t.Partitions[i] = append([]Row(nil), t.Partitions[i][len(tail):]...)
	t.cacheMu.Unlock()
	return snap
}

// EnsureColumnar seals every partition; used to keep first-touch
// columnarization out of timed benchmark loops.
func (t *Table) EnsureColumnar() {
	for i := range t.parts {
		t.Columnar(i)
	}
}

// EnsureSummaries does nothing: per-partition summaries were deleted,
// statistics live in internal/stats alone.
//
// Deprecated: kept so the benchmark harness compiles; goes with its
// table.summaries_ms point.
func (t *Table) EnsureSummaries() {}
