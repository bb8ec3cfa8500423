package table

// Columnar storage: the per-partition, column-major stored form, and
// the Vector that is the one column form from storage to result. The
// executor (internal/exec) slices stored vectors into its batches
// zero-copy and builds the same Vectors between pipeline breakers,
// statistics fold them column by column, and RowsOf rebuilds rows from
// them. Columnarize builds a partition's first snapshot; later appends
// are sealed onto it in place (seal.go).

import (
	"fmt"
	"slices"
)

// VecKind enumerates the physical representations of a Vector. Its
// first five values are Kind's, so a non-NULL value's Kind converts to
// the VecKind that stores it.
type VecKind uint8

const (
	// VKNull is an all-NULL vector with no payload: N is its lane count.
	VKNull = VecKind(KindNull)
	// VKInt stores int64 payloads in Ints.
	VKInt = VecKind(KindInt)
	// VKFloat stores float64 payloads in Floats.
	VKFloat = VecKind(KindFloat)
	// VKStr stores dictionary codes in Ints, strings in Dict.
	VKStr = VecKind(KindString)
	// VKBool stores 0/1 in Ints.
	VKBool = VecKind(KindBool)
)

// Vector is a column of N lanes: a stored partition's column, a batch's
// column in flight and a Part's column between pipeline breakers alike.
// It is a cheap value type: copies share the underlying payload slices.
//
// NULL lanes are tracked by a little-endian bitmap (bit NullOff+i set =
// lane i is NULL; nil when no lane is), so a Vector can window a larger
// column without copying it (Slice). Dead lanes of a batch (not covered
// by its selection vector) hold unspecified zero/NULL payloads.
type Vector struct {
	K       VecKind
	N       int
	Ints    []int64
	Floats  []float64
	Dict    []string
	Nulls   []uint64
	NullOff int
}

// IsNull reports whether lane i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.K == VKNull {
		return true
	}
	if v.Nulls == nil {
		return false
	}
	j := i + v.NullOff
	return v.Nulls[j>>6]&(1<<(uint(j)&63)) != 0
}

// HasNulls reports whether any lane of the vector may be NULL.
func (v *Vector) HasNulls() bool { return v.K == VKNull || v.Nulls != nil }

// Value reconstructs lane i as a Value, bit-identical to the stored or
// row-computed value at the same position.
func (v *Vector) Value(i int) Value {
	if v.IsNull(i) {
		return Null
	}
	switch v.K {
	case VKInt:
		return NewInt(v.Ints[i])
	case VKFloat:
		return NewFloat(v.Floats[i])
	case VKStr:
		return NewString(v.Dict[v.Ints[i]])
	case VKBool:
		return NewBool(v.Ints[i] != 0)
	}
	return Null
}

// Slice returns lanes [off, off+n) of v as a zero-copy Vector: the
// payloads are resliced and the NULL bitmap is shared, shifted by
// NullOff.
func (v *Vector) Slice(off, n int) Vector {
	w := *v
	w.N = n
	switch v.K {
	case VKNull:
	case VKFloat:
		w.Floats = v.Floats[off : off+n]
	default:
		w.Ints = v.Ints[off : off+n]
	}
	w.NullOff += off
	return w
}

// RowsOf rebuilds n rows from cols through Vector.Value, over one
// backing array, with room for extra more rows in the result.
func RowsOf(cols []Vector, n, extra int) []Row {
	width := len(cols)
	out := make([]Row, n, n+extra)
	vals := make([]Value, n*width)
	for i := range out {
		out[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	for c := range cols {
		for i := range out {
			out[i][c] = cols[c].Value(i)
		}
	}
	return out
}

// ColPartition is one table partition in column-major form. It is
// immutable once published: every slice is clipped to its length, so no
// holder can append into the table's arrays.
type ColPartition struct {
	NumRows int
	// Bytes is the sum of Row.ByteSize over the rows it was built from.
	Bytes int64
	// Cols holds one vector of NumRows lanes per schema column: of the
	// kind its non-NULL values share, VKNull while none is non-NULL.
	Cols []Vector
}

// Columnarize converts a row-major partition into column-major form.
// width is the schema width; short rows are padded with NULL lanes. The
// non-NULL values of a column must share a kind (Table.Append holds
// every stored row to its schema); a mix panics.
func Columnarize(rows []Row, width int) *ColPartition {
	cp := &ColPartition{NumRows: len(rows), Bytes: rowsBytes(rows), Cols: make([]Vector, width)}
	for c := 0; c < width; c++ {
		cp.Cols[c] = buildVector(rows, c)
	}
	return cp
}

func buildVector(rows []Row, c int) Vector {
	n := len(rows)
	// First pass: find the column kind.
	kind := KindNull
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
			panic(fmt.Sprintf("table: column %d holds %s and %s values", c, kind, v.Kind()))
		}
	}
	cv := Vector{K: VecKind(kind), N: n}
	if kind == KindNull {
		return cv
	}
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
