package table

// Sealing: a partition's appended rows become lanes of its column
// vectors, in place and in O(tail).
//
// The sealer (Table.Columnar, under the partition's seal mutex) extends
// each column on a private handle, colGrow, whose slices share their
// arrays with the published snapshot but keep the spare capacity, and
// then publishes a new snapshot whose slices are clipped to their
// length. A snapshot published earlier stays valid while it is read,
// without a lock, because the sealer never writes a word that snapshot
// can reach:
//   - payload slices and Dict only grow: lanes and codes below the old
//     NumRows are not written again, and a reallocation copies;
//   - the NULL bitmap is copied before it is extended (its last word
//     would otherwise be shared between the old lanes and the new).
//
// The kind rules are buildVector's, lane for lane — a column takes the
// kind of its first non-NULL value (Append has held every row to the
// schema, so no later value differs), an all-NULL column stays VKNull
// with no payload, dictionary codes are handed out in first-appearance
// order — so after any interleaving of Append and Columnar the snapshot
// equals Columnarize over every row ever appended: scans see the
// vectors and codes they would have seen from a rebuild.

import "slices"

// colGrow is the sealer's handle on one column: the published vector
// with its spare capacity, and the dictionary index behind its codes.
type colGrow struct {
	Vector
	// dictIdx maps a string to its code; built from Dict the first time
	// a string column is extended and kept from then on.
	dictIdx map[string]int32
}

// sealTail returns the snapshot that follows snap (nil before the first
// read) once tail is sealed onto it. The caller holds p.seal.
func (p *partState) sealTail(snap *ColPartition, tail []Row, width int) *ColPartition {
	if snap == nil {
		return Columnarize(tail, width)
	}
	if p.grow == nil {
		p.grow = make([]colGrow, width)
		for c := range p.grow {
			p.grow[c].Vector = snap.Cols[c]
		}
	}
	next := &ColPartition{
		NumRows: snap.NumRows + len(tail),
		Bytes:   snap.Bytes + rowsBytes(tail),
		Cols:    make([]Vector, width),
	}
	for c := range p.grow {
		g := &p.grow[c]
		g.extend(snap.NumRows, tail, c)
		next.Cols[c] = g.publish(next.NumRows)
	}
	return next
}

// extend appends column c of rows to the n lanes g holds.
func (g *colGrow) extend(n int, rows []Row, c int) {
	if g.Nulls != nil {
		g.Nulls = append(make([]uint64, 0, (n+len(rows)+63)/64), g.Nulls...)
	}
	for k, r := range rows {
		v := colAt(r, c)
		switch {
		case v.IsNull():
			if g.K != VKNull {
				g.pushNull(n + k)
			}
		case g.K == VKNull:
			g.adopt(VecKind(v.Kind()), n+k)
			g.push(v, n+k)
		default:
			g.push(v, n+k)
		}
	}
}

// adopt gives an all-NULL column of n lanes the representation of its
// first non-NULL kind.
func (g *colGrow) adopt(k VecKind, n int) {
	g.K = k
	if k == VKFloat {
		g.Floats = make([]float64, n)
	} else {
		g.Ints = make([]int64, n)
	}
	if n > 0 {
		g.Nulls = make([]uint64, (n+63)/64)
		for i := 0; i < n; i++ {
			g.Nulls[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// push appends a non-NULL value of the column's kind as lane i.
func (g *colGrow) push(v Value, i int) {
	switch g.K {
	case VKInt, VKBool:
		g.Ints = push(g.Ints, v.Int())
	case VKFloat:
		g.Floats = push(g.Floats, v.Float())
	case VKStr:
		if g.dictIdx == nil {
			g.dictIdx = make(map[string]int32, len(g.Dict))
			for code, s := range g.Dict {
				g.dictIdx[s] = int32(code)
			}
		}
		s := v.Str()
		code, ok := g.dictIdx[s]
		if !ok {
			code = int32(len(g.Dict))
			g.Dict = push(g.Dict, s)
			g.dictIdx[s] = code
		}
		g.Ints = push(g.Ints, int64(code))
	}
	g.padNulls(i + 1)
}

// pushNull appends a NULL as lane i of a typed column.
func (g *colGrow) pushNull(i int) {
	if g.K == VKFloat {
		g.Floats = push(g.Floats, 0)
	} else {
		g.Ints = push(g.Ints, 0)
	}
	if g.Nulls == nil {
		g.Nulls = make([]uint64, i>>6+1)
	}
	g.padNulls(i + 1)
	g.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

// padNulls keeps the bitmap, if the column has one, n lanes long.
func (g *colGrow) padNulls(n int) {
	for g.Nulls != nil && len(g.Nulls) < (n+63)/64 {
		g.Nulls = push(g.Nulls, 0)
	}
}

// publish returns the column's n lanes as an immutable vector.
func (g *colGrow) publish(n int) Vector {
	cv := g.Vector
	cv.N = n
	cv.Ints, cv.Floats, cv.Dict = slices.Clip(cv.Ints), slices.Clip(cv.Floats), slices.Clip(cv.Dict)
	cv.Nulls = slices.Clip(cv.Nulls)
	return cv
}

// push is append growing by doubling: a partition appended to a few
// rows at a time copies each lane O(1) times over its life (append's
// own steps are 1.25x once a slice is large).
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), max(2*cap(s), 8))
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}
