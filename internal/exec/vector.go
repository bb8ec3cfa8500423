package exec

import "quickr/internal/table"

// VecKind enumerates the physical representations of a Vector.
type VecKind uint8

const (
	// VKNull is an all-NULL vector with no payload.
	VKNull VecKind = iota
	// VKInt stores int64 payloads in Ints.
	VKInt
	// VKFloat stores float64 payloads in Floats.
	VKFloat
	// VKStr stores dictionary codes in Ints, strings in Dict.
	VKStr
	// VKBool stores 0/1 in Ints.
	VKBool
	// VKAny stores exact table.Values in Vals (mixed-kind fallback).
	VKAny
)

// Vector is a column of N lanes flowing through the vectorized pipeline.
// It is a cheap value type: copies share the underlying payload slices.
//
// NULL lanes are tracked by a little-endian bitmap; nullOff shifts lane
// indexes into the bitmap so a Vector can window a larger stored column
// (table.ColVec) without copying it. VKAny vectors carry NULLs in Vals
// directly and leave the bitmap nil. Dead lanes (not covered by the
// batch's selection vector) hold unspecified zero/NULL payloads.
type Vector struct {
	K       VecKind
	N       int
	Ints    []int64
	Floats  []float64
	Dict    []string
	Vals    []table.Value
	nulls   []uint64
	nullOff int
	// constVal marks a vector whose non-NULL lanes all hold the same
	// value (produced by constant kernels); enables per-dictionary-entry
	// precomputation in comparison kernels.
	constVal bool
}

// IsNull reports whether lane i is NULL.
func (v *Vector) IsNull(i int) bool {
	switch v.K {
	case VKNull:
		return true
	case VKAny:
		return v.Vals[i].IsNull()
	}
	if v.nulls == nil {
		return false
	}
	j := i + v.nullOff
	return v.nulls[j>>6]&(1<<(uint(j)&63)) != 0
}

// hasNulls reports whether any lane of the vector may be NULL.
func (v *Vector) hasNulls() bool { return v.K == VKNull || v.K == VKAny || v.nulls != nil }

// Value reconstructs lane i as a table.Value, bit-identical to the
// stored or row-computed value at the same position.
func (v *Vector) Value(i int) table.Value {
	switch v.K {
	case VKNull:
		return table.Null
	case VKAny:
		return v.Vals[i]
	}
	if v.IsNull(i) {
		return table.Null
	}
	switch v.K {
	case VKInt:
		return table.NewInt(v.Ints[i])
	case VKFloat:
		return table.NewFloat(v.Floats[i])
	case VKStr:
		return table.NewString(v.Dict[v.Ints[i]])
	case VKBool:
		return table.NewBool(v.Ints[i] != 0)
	}
	return table.Null
}

// laneFloat mirrors table.Value.Float for lane i: ints widen, floats
// pass through, everything else (strings, bools, NULL) reads as 0.
func (v *Vector) laneFloat(i int) float64 {
	switch v.K {
	case VKInt:
		return float64(v.Ints[i])
	case VKFloat:
		return v.Floats[i]
	case VKAny:
		return v.Vals[i].Float()
	}
	return 0
}

// laneBytes mirrors table.Value.ByteSize for lane i.
func (v *Vector) laneBytes(i int) int {
	switch v.K {
	case VKNull:
		return 1
	case VKAny:
		return v.Vals[i].ByteSize()
	case VKStr:
		if v.IsNull(i) {
			return 1
		}
		return 8 + len(v.Dict[v.Ints[i]])
	}
	if v.IsNull(i) {
		return 1
	}
	return 8
}

// bytesAll sums laneBytes over every lane (dense window accounting).
func (v *Vector) bytesAll() float64 {
	switch v.K {
	case VKNull:
		return float64(v.N)
	case VKAny:
		n := 0
		for _, val := range v.Vals {
			n += val.ByteSize()
		}
		return float64(n)
	case VKStr:
		n := 0
		for i := 0; i < v.N; i++ {
			n += v.laneBytes(i)
		}
		return float64(n)
	}
	if v.nulls == nil {
		return float64(8 * v.N)
	}
	n := 0
	for i := 0; i < v.N; i++ {
		n += v.laneBytes(i)
	}
	return float64(n)
}

// bytesSel sums laneBytes over the selected lanes.
func (v *Vector) bytesSel(sel []int32) float64 {
	switch v.K {
	case VKNull:
		return float64(len(sel))
	case VKInt, VKFloat, VKBool:
		if v.nulls == nil {
			return float64(8 * len(sel))
		}
	}
	n := 0
	for _, i := range sel {
		n += v.laneBytes(int(i))
	}
	return float64(n)
}

// window wraps lanes [off, off+n) of a stored column as a zero-copy
// Vector.
func window(cv *table.ColVec, off, n int) Vector {
	if cv.Any {
		return Vector{K: VKAny, N: n, Vals: cv.Vals[off : off+n]}
	}
	v := Vector{N: n, nulls: cv.Nulls, nullOff: off}
	switch cv.Kind {
	case table.KindNull:
		return Vector{K: VKNull, N: n}
	case table.KindInt:
		v.K = VKInt
		v.Ints = cv.Ints[off : off+n]
	case table.KindFloat:
		v.K = VKFloat
		v.Floats = cv.Floats[off : off+n]
	case table.KindString:
		v.K = VKStr
		v.Ints = cv.Ints[off : off+n]
		v.Dict = cv.Dict
	case table.KindBool:
		v.K = VKBool
		v.Ints = cv.Ints[off : off+n]
	}
	return v
}

// vecBuilder accumulates values into a Vector, picking the tightest
// representation: typed while all non-NULL values share a kind,
// degrading to VKAny on the first mix. Builders are reused across
// batches; the built Vector aliases the builder's buffers and is valid
// until the next reset.
type vecBuilder struct {
	k       VecKind // VKNull until the first non-NULL value
	n       int
	ints    []int64
	floats  []float64
	dict    []string
	dictIdx map[string]int32
	vals    []table.Value
	nulls   []uint64
	anyNull bool
}

func (bd *vecBuilder) reset() {
	bd.k = VKNull
	bd.n = 0
	bd.ints = bd.ints[:0]
	bd.floats = bd.floats[:0]
	bd.dict = bd.dict[:0]
	for s := range bd.dictIdx {
		delete(bd.dictIdx, s)
	}
	bd.vals = bd.vals[:0]
	bd.nulls = bd.nulls[:0]
	bd.anyNull = false
}

func (bd *vecBuilder) setNull(i int) {
	for len(bd.nulls) <= i>>6 {
		bd.nulls = append(bd.nulls, 0)
	}
	bd.nulls[i>>6] |= 1 << (uint(i) & 63)
	bd.anyNull = true
}

// appendNull adds a NULL lane.
func (bd *vecBuilder) appendNull() {
	bd.setNull(bd.n)
	switch bd.k {
	case VKNull:
	case VKAny:
		bd.vals = append(bd.vals, table.Null)
	case VKFloat:
		bd.floats = append(bd.floats, 0)
	default:
		bd.ints = append(bd.ints, 0)
	}
	bd.n++
}

// append adds one value, adopting or degrading the representation as
// needed.
func (bd *vecBuilder) append(v table.Value) {
	if v.IsNull() {
		bd.appendNull()
		return
	}
	want := VKAny
	switch v.Kind() {
	case table.KindInt:
		want = VKInt
	case table.KindFloat:
		want = VKFloat
	case table.KindString:
		want = VKStr
	case table.KindBool:
		want = VKBool
	}
	if bd.k == VKNull {
		bd.adopt(want)
	} else if bd.k != want && bd.k != VKAny {
		bd.degrade()
	}
	switch bd.k {
	case VKAny:
		bd.vals = append(bd.vals, v)
	case VKInt:
		bd.ints = append(bd.ints, v.Int())
	case VKFloat:
		bd.floats = append(bd.floats, v.Float())
	case VKBool:
		if v.Bool() {
			bd.ints = append(bd.ints, 1)
		} else {
			bd.ints = append(bd.ints, 0)
		}
	case VKStr:
		s := v.Str()
		if bd.dictIdx == nil {
			bd.dictIdx = make(map[string]int32, 8)
		}
		code, ok := bd.dictIdx[s]
		if !ok {
			code = int32(len(bd.dict))
			bd.dict = append(bd.dict, s)
			bd.dictIdx[s] = code
		}
		bd.ints = append(bd.ints, int64(code))
	}
	bd.n++
}

// adopt switches an all-NULL builder to a typed representation,
// backfilling zero payloads for the NULL lanes seen so far.
func (bd *vecBuilder) adopt(k VecKind) {
	bd.k = k
	switch k {
	case VKFloat:
		for i := 0; i < bd.n; i++ {
			bd.floats = append(bd.floats, 0)
		}
	case VKAny:
		for i := 0; i < bd.n; i++ {
			bd.vals = append(bd.vals, table.Null)
		}
	default:
		for i := 0; i < bd.n; i++ {
			bd.ints = append(bd.ints, 0)
		}
	}
}

// padNulls grows the bitmap to cover all n lanes (lanes appended after
// the last NULL never extended it).
func (bd *vecBuilder) padNulls() {
	for len(bd.nulls) < (bd.n+63)/64 {
		bd.nulls = append(bd.nulls, 0)
	}
}

// degrade rewrites the typed payload accumulated so far as exact Values
// and switches to VKAny.
func (bd *vecBuilder) degrade() {
	tmp := Vector{K: bd.k, N: bd.n, Ints: bd.ints, Floats: bd.floats, Dict: bd.dict}
	if bd.anyNull {
		bd.padNulls()
		tmp.nulls = bd.nulls
	}
	bd.vals = bd.vals[:0]
	for i := 0; i < bd.n; i++ {
		bd.vals = append(bd.vals, tmp.Value(i))
	}
	bd.k = VKAny
	bd.ints = bd.ints[:0]
	bd.floats = bd.floats[:0]
	bd.dict = bd.dict[:0]
	for s := range bd.dictIdx {
		delete(bd.dictIdx, s)
	}
}

// build returns the accumulated Vector. It aliases builder buffers.
func (bd *vecBuilder) build() Vector {
	v := Vector{K: bd.k, N: bd.n}
	switch bd.k {
	case VKNull:
		return v
	case VKAny:
		v.Vals = bd.vals
		return v
	case VKFloat:
		v.Floats = bd.floats
	default:
		v.Ints = bd.ints
		v.Dict = bd.dict
	}
	if bd.anyNull {
		bd.padNulls()
		v.nulls = bd.nulls
	}
	return v
}
