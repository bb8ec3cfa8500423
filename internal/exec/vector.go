package exec

import (
	"fmt"
	"slices"

	"quickr/internal/table"
)

// compareLane is table.Value.Order of lanes a and b of v.
func compareLane(v *table.Vector, a, b int) int { return v.Value(a).Order(v.Value(b)) }

// compareLanes is table.CompareRows of rows a and b of cols, lane for
// lane.
func compareLanes(cols []table.Vector, a, b int) int {
	for c := range cols {
		if x := compareLane(&cols[c], a, b); x != 0 {
			return x
		}
	}
	return 0
}

// laneFloat mirrors table.Value.Float for lane i of v: ints widen,
// floats pass through, everything else (strings, bools, NULL) reads as
// 0.
func laneFloat(v *table.Vector, i int) float64 {
	switch v.K {
	case table.VKInt:
		return float64(v.Ints[i])
	case table.VKFloat:
		return v.Floats[i]
	}
	return 0
}

// vecBuilder accumulates values into a column of one kind: VKNull until
// the first non-NULL value, whose kind it adopts. The binder gives every
// column one static kind, so a later value of another kind is a
// programmer error and panics. It takes single Values (append)
// and whole lanes of another Vector (appendSel, appendGather); build
// returns the result, aliasing the builder's buffers until the next
// reset. The integer and float payloads are slabs of the run's ledger
// mem.
type vecBuilder struct {
	mem     *ledger
	k       table.VecKind // VKNull until the first non-NULL value
	n       int
	ints    []int64
	floats  []float64
	dict    []string
	dictIdx map[string]int32
	nulls   []uint64
	anyNull bool
	// String lanes arriving as dictionary codes translate through remap
	// (src code -> own code, -1 = not met yet), rebuilt when the source
	// dictionary changes, so each distinct string of a source dictionary
	// is interned once. shared means dict *is* src (appendGather adopted
	// it): codes pass through and dictIdx is not kept until a foreign
	// string forces a private copy.
	src    []string
	remap  []int32
	shared bool
	// hint is the payload capacity reserved when a representation is
	// adopted (0 = grow on demand).
	hint int
}

func (bd *vecBuilder) reset() {
	bd.k = table.VKNull
	bd.n = 0
	bd.ints = bd.ints[:0]
	bd.floats = bd.floats[:0]
	if len(bd.dict) > 0 {
		// A dictionary that build() handed out is never written again:
		// downstream builders recognize a source dictionary by identity.
		bd.dict = nil
	}
	clear(bd.dictIdx)
	bd.nulls = bd.nulls[:0]
	bd.anyNull = false
	bd.src, bd.shared = nil, false
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
	case table.VKNull:
	case table.VKFloat:
		bd.pushFloat(0)
	default:
		bd.pushInt(0)
	}
	bd.n++
}

// pushInt and pushFloat append one typed payload.
func (bd *vecBuilder) pushInt(x int64) {
	bd.ints = grow(bd.mem, bd.ints, 1)
	bd.ints[len(bd.ints)-1] = x
}

func (bd *vecBuilder) pushFloat(x float64) {
	bd.floats = grow(bd.mem, bd.floats, 1)
	bd.floats[len(bd.floats)-1] = x
}

// append adds one value, adopting the representation of the first
// non-NULL one.
func (bd *vecBuilder) append(v table.Value) {
	if v.IsNull() {
		bd.appendNull()
		return
	}
	if want := table.VecKind(v.Kind()); bd.k == table.VKNull {
		bd.adopt(want)
	} else if bd.k != want {
		kindMismatch(bd.k, want)
	}
	switch bd.k {
	case table.VKInt:
		bd.pushInt(v.Int())
	case table.VKFloat:
		bd.pushFloat(v.Float())
	case table.VKBool:
		bd.pushInt(btoi(v.Bool()))
	case table.VKStr:
		if bd.shared {
			bd.unshare()
		}
		bd.pushInt(int64(bd.intern(v.Str())))
	}
	bd.n++
}

// intern returns s's code in the builder's own dictionary.
func (bd *vecBuilder) intern(s string) int32 {
	code, ok := bd.dictIdx[s]
	if !ok {
		if bd.dictIdx == nil {
			bd.dictIdx = make(map[string]int32, 8)
		}
		code = int32(len(bd.dict))
		bd.dict = append(bd.dict, s)
		bd.dictIdx[s] = code
	}
	return code
}

// extend returns s lengthened by m elements of unspecified content, on
// the heap: per-batch scratch. When it must
// reallocate it at least doubles the capacity (append's own 1.25x steps
// allocate five times the final capacity). Partition payloads grow on
// the run's ledger instead (grow).
func extend[T any](s []T, m int) []T {
	need := len(s) + m
	if need <= cap(s) {
		return s[:need]
	}
	ns := make([]T, need, max(need, 2*cap(s)))
	copy(ns, s)
	return ns
}

// sameDict reports whether two dictionaries are the same slice.
func sameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// setSource prepares the code translation for lanes of a vector over
// dict. With adopt, a builder that holds no strings yet takes dict
// itself as its dictionary instead of re-interning it.
func (bd *vecBuilder) setSource(dict []string, adopt bool) {
	if bd.src != nil && sameDict(bd.src, dict) {
		return
	}
	if bd.shared {
		bd.unshare()
	}
	bd.src = dict
	if adopt && len(bd.dict) == 0 && len(dict) > 0 {
		bd.dict, bd.shared = dict, true
		return
	}
	bd.remap = slices.Grow(bd.remap[:0], len(dict))[:len(dict)]
	for i := range bd.remap {
		bd.remap[i] = -1
	}
}

// unshare replaces an adopted dictionary with a private copy the
// builder may grow.
func (bd *vecBuilder) unshare() {
	bd.dict = append([]string(nil), bd.dict...)
	if bd.dictIdx == nil {
		bd.dictIdx = make(map[string]int32, len(bd.dict))
	}
	bd.remap = slices.Grow(bd.remap[:0], len(bd.dict))[:len(bd.dict)]
	for i, s := range bd.dict {
		bd.dictIdx[s] = int32(i)
		bd.remap[i] = int32(i)
	}
	bd.shared = false
}

// appendSel appends the lanes of v that sel lists, in sel order; a nil
// sel means all v.N lanes.
func (bd *vecBuilder) appendSel(v *table.Vector, sel []int32) { bd.appendLanes(v, sel, false) }

// appendGather is appendSel for join and reorder gathers: a negative
// index appends a NULL lane, and a string column whose lanes all come
// from one stored dictionary shares that dictionary instead of
// re-interning it.
func (bd *vecBuilder) appendGather(v *table.Vector, idx []int32) {
	if len(idx) > 0 { // an empty index list is no lanes, not "all lanes"
		bd.appendLanes(v, idx, true)
	}
}

// appendLanes copies lanes at every pipeline sink, exchange gather and
// join gather; TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkCrossJoin gathers an all-NULL column).
func (bd *vecBuilder) appendLanes(v *table.Vector, sel []int32, gather bool) {
	m := v.N
	if sel != nil {
		m = len(sel)
	}
	if m == 0 {
		return
	}
	if bd.k == table.VKNull && v.K != table.VKNull {
		bd.adopt(v.K)
	} else if bd.k != v.K && v.K != table.VKNull {
		kindMismatch(bd.k, v.K)
	}
	base := bd.n
	bd.n += m
	// Payload first (NULL lanes copy whatever the source holds there and
	// are zeroed below), then the NULL bits.
	switch bd.k {
	case table.VKNull:
	case table.VKFloat:
		bd.floats = grow(bd.mem, bd.floats, m)
		dst := bd.floats[base:]
		switch {
		case v.K == table.VKNull:
			clear(dst)
		case sel == nil:
			copy(dst, v.Floats[:m])
		default:
			src := v.Floats
			for j, i := range sel {
				if i >= 0 {
					dst[j] = src[i]
				} else {
					dst[j] = 0
				}
			}
		}
	default:
		bd.ints = grow(bd.mem, bd.ints, m)
		dst := bd.ints[base:]
		switch {
		case v.K == table.VKNull:
			clear(dst)
		case v.K == table.VKStr:
			bd.appendCodes(dst, v, sel, gather)
		case sel == nil:
			copy(dst, v.Ints[:m])
		default:
			src := v.Ints
			for j, i := range sel {
				if i >= 0 {
					dst[j] = src[i]
				} else {
					dst[j] = 0
				}
			}
		}
	}
	switch {
	case v.K == table.VKNull:
		for j := 0; j < m; j++ {
			bd.setNull(base + j)
		}
	case sel == nil:
		if v.Nulls != nil {
			for i := 0; i < m; i++ {
				if v.IsNull(i) {
					bd.zeroNull(base + i)
				}
			}
		}
	default:
		pads := int32(0) // sign bit set iff a gather index is negative
		if gather {
			for _, i := range sel {
				pads |= i
			}
		}
		if pads < 0 || v.Nulls != nil {
			for j, i := range sel {
				if i < 0 || v.IsNull(int(i)) {
					bd.zeroNull(base + j)
				}
			}
		}
	}
}

// zeroNull marks an already-appended typed lane NULL and zeroes its
// payload (bool vectors rely on payload 0 under NULL).
func (bd *vecBuilder) zeroNull(i int) {
	bd.setNull(i)
	switch bd.k {
	case table.VKNull:
	case table.VKFloat:
		bd.floats[i] = 0
	default:
		bd.ints[i] = 0
	}
}

// appendCodes writes the builder's own dictionary codes for the
// selected string lanes of v into dst. NULL lanes get code 0.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkExchangeGather, BenchmarkJoinBroadcast).
func (bd *vecBuilder) appendCodes(dst []int64, v *table.Vector, sel []int32, adopt bool) {
	bd.setSource(v.Dict, adopt)
	if bd.shared {
		if sel == nil {
			copy(dst, v.Ints[:len(dst)])
			return
		}
		for j, i := range sel {
			if i >= 0 {
				dst[j] = v.Ints[i]
			} else {
				dst[j] = 0
			}
		}
		return
	}
	nul := v.Nulls != nil
	for j := range dst {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		if i < 0 || (nul && v.IsNull(i)) {
			dst[j] = 0
			continue
		}
		c := v.Ints[i]
		r := bd.remap[c]
		if r < 0 {
			r = bd.intern(v.Dict[c])
			bd.remap[c] = r
		}
		dst[j] = int64(r)
	}
}

// adopt switches an all-NULL builder to a typed representation,
// backfilling zero payloads for the NULL lanes seen so far.
func (bd *vecBuilder) adopt(k table.VecKind) {
	bd.k = k
	reserve := bd.n
	if bd.hint > reserve {
		reserve = bd.hint
	}
	switch k {
	case table.VKFloat:
		bd.floats = grow(bd.mem, bd.floats[:0], reserve)[:bd.n]
		clear(bd.floats)
	default:
		bd.ints = grow(bd.mem, bd.ints[:0], reserve)[:bd.n]
		clear(bd.ints)
	}
}

// padNulls grows the bitmap to cover all n lanes (lanes appended after
// the last NULL never extended it).
func (bd *vecBuilder) padNulls() {
	for len(bd.nulls) < (bd.n+63)/64 {
		bd.nulls = append(bd.nulls, 0)
	}
}

// kindMismatch panics on a value of kind got bound for a column of kind
// have.
func kindMismatch(have, got table.VecKind) {
	panic(fmt.Sprintf("exec: a %s value in a %s column", table.Kind(got), table.Kind(have)))
}

// build returns the accumulated Vector. It aliases builder buffers.
func (bd *vecBuilder) build() table.Vector {
	v := table.Vector{K: bd.k, N: bd.n}
	switch bd.k {
	case table.VKNull:
		return v
	case table.VKFloat:
		v.Floats = bd.floats
	default:
		v.Ints = bd.ints
		v.Dict = bd.dict
	}
	if bd.anyNull {
		bd.padNulls()
		v.Nulls = bd.nulls
	}
	return v
}
