package exec

import (
	"slices"

	"quickr/internal/table"
)

// Part is a column-major weighted partition: the one form data takes
// between pipeline breakers. Every chain sink, exchange, join,
// aggregate, sort, limit, window and union produces Parts and every
// consumer reads them, by slicing the columns zero-copy into batches
// (partSource) or by reading lanes in place: the sort and the window
// functions compare lanes, and only the final result materializes rows
// (table.RowsOf). A sample-cache entry is a []Part as the sink built it.
//
// Cols are table.Vectors as the builders built them (typed payloads
// without pointers, a NULL bitmap, a string dictionary), always one per
// schema column even when N is 0: the form stored partitions have too,
// which the scan slices into its batches the same way. W holds the rows' Horvitz–Thompson weights.
// A Part is immutable once built and may be shared: by a join output
// with its build side's dictionaries, by a window output with its
// input's columns. Its typed payloads and weights are slabs of the run's
// ledger, so a Part that outlives its run (a sample-cache entry) is a
// clone.
type Part struct {
	N    int
	Cols []table.Vector
	W    []float64
	// bytes is the partition's in-flight size, Σ over rows of
	// Row.ByteSize()+8: what stages, slots and peaks are charged.
	bytes float64
}

// emptyPart is a zero-row partition of the given width.
func emptyPart(width int) Part { return Part{Cols: make([]table.Vector, width)} }

// clone copies every payload slice of the partition; the dictionaries
// are shared.
func (p *Part) clone() Part {
	out := *p
	out.W = slices.Clone(p.W)
	out.Cols = slices.Clone(p.Cols)
	for c := range out.Cols {
		v := &out.Cols[c]
		v.Ints, v.Floats = slices.Clone(v.Ints), slices.Clone(v.Floats)
		v.Nulls = slices.Clone(v.Nulls)
	}
	return out
}

// window appends zero-copy windows of lanes [pos, pos+n) of every
// column to dst.
func (p *Part) window(dst []table.Vector, pos, n int) []table.Vector {
	for c := range p.Cols {
		dst = append(dst, p.Cols[c].Slice(pos, n))
	}
	return dst
}

// gather returns the partition's rows idx, in idx order (the sort's
// permutation), built on mem. String columns keep their dictionaries.
func (p *Part) gather(mem *ledger, idx []int32) Part {
	pb := newPartBuilder(mem, len(p.Cols), len(idx))
	pb.appendGather(p.Cols, idx, 0)
	pb.w = pb.w[:len(idx)]
	for j, i := range idx {
		pb.w[j] = p.W[i]
	}
	return pb.finish()
}

// head returns the partition's first k rows (k <= N), sharing payloads.
func (p *Part) head(k int) Part {
	out := Part{N: k, W: p.W[:k]}
	out.Cols = p.window(make([]table.Vector, 0, len(p.Cols)), 0, k)
	out.bytes = partBytes(out.Cols, k)
	return out
}

// partBytes is Σ Row.ByteSize()+8 over the n lanes of cols.
func partBytes(cols []table.Vector, n int) float64 {
	total := float64(8 * n)
	for c := range cols {
		total += cols[c].BytesAll()
	}
	return total
}

// concatParts appends pieces in order into one partition built on mem.
// A single non-empty piece is returned as is.
func concatParts(mem *ledger, pieces []Part, width int) Part {
	var only *Part
	total := 0
	for i := range pieces {
		if pieces[i].N > 0 {
			only = &pieces[i]
			total += pieces[i].N
		}
	}
	if only != nil && only.N == total {
		return *only
	}
	pb := newPartBuilder(mem, width, total)
	for i := range pieces {
		if p := &pieces[i]; p.N > 0 {
			pb.appendLanes(p.Cols, nil, p.N, p.W)
		}
	}
	return pb.finish()
}

// partBuilder accumulates lanes into a Part, one vecBuilder per column,
// on slabs of the run's ledger mem. With share, a string column fed from
// one dictionary shares it instead of re-interning it, as appendGather
// does.
type partBuilder struct {
	mem   *ledger
	cols  []vecBuilder
	w     []float64
	share bool
}

// newPartBuilder builds width columns on mem; rows > 0 reserves capacity
// for that many (the exact count where the caller knows it).
func newPartBuilder(mem *ledger, width, rows int) *partBuilder {
	pb := &partBuilder{mem: mem, cols: make([]vecBuilder, width)}
	for c := range pb.cols {
		pb.cols[c].mem, pb.cols[c].hint = mem, rows
	}
	if rows > 0 {
		pb.w = slab[float64](mem, rows)[:0]
	}
	return pb
}

// appendBatch appends the live rows of b.
func (pb *partBuilder) appendBatch(b *Batch) { pb.appendLanes(b.cols, b.sel, b.n, b.weights) }

// appendLanes appends the lanes sel (nil = all n) of cols with their
// weights.
//
// TestHotPathAllocCeilings holds its allocations per run (every
// plan sinks through it).
func (pb *partBuilder) appendLanes(cols []table.Vector, sel []int32, n int, weights []float64) {
	for c := range pb.cols {
		pb.cols[c].appendLanes(&cols[c], sel, pb.share)
	}
	base := len(pb.w)
	if sel == nil {
		pb.w = grow(pb.mem, pb.w, n)
		copy(pb.w[base:], weights[:n])
		return
	}
	pb.w = grow(pb.mem, pb.w, len(sel))
	for j, i := range sel {
		pb.w[base+j] = weights[i]
	}
}

// appendGather appends lanes idx of src (negative = NULL) into the
// columns starting at off; the caller appends the weights.
func (pb *partBuilder) appendGather(src []table.Vector, idx []int32, off int) {
	for c := range src {
		pb.cols[off+c].appendGather(&src[c], idx)
	}
}

// vectors appends the columns built so far to dst as vectors, aliasing
// the builder's buffers.
func (pb *partBuilder) vectors(dst []table.Vector) []table.Vector {
	for c := range pb.cols {
		dst = append(dst, pb.cols[c].build())
	}
	return dst
}

// appendRow appends one row of weight 1.
func (pb *partBuilder) appendRow(vals ...[]table.Value) {
	c := 0
	for _, vs := range vals {
		for _, v := range vs {
			pb.cols[c].append(v)
			c++
		}
	}
	pb.w = grow(pb.mem, pb.w, 1)
	pb.w[len(pb.w)-1] = 1
}

// finish returns the built partition. The builder must not be used
// afterwards (the Part aliases its buffers).
func (pb *partBuilder) finish() Part {
	p := pb.finishSized(0)
	p.bytes = partBytes(p.Cols, p.N)
	return p
}

// finishSized is finish for a caller that already knows the partition's
// accounted bytes.
func (pb *partBuilder) finishSized(bytes float64) Part {
	return Part{N: len(pb.w), Cols: pb.vectors(make([]table.Vector, 0, len(pb.cols))), W: pb.w, bytes: bytes}
}

// partSource streams a partition in batches: it windows the column-major
// vectors zero-copy and copies only the batch's weights, which
// downstream samplers scale in place.
type partSource struct {
	p    *Part
	size int
	pos  int

	weights []float64
	cols    []table.Vector
}

func (s *partSource) Next() (Batch, error) {
	remain := s.p.N - s.pos
	if remain <= 0 {
		return Batch{}, nil
	}
	n := s.size
	if n > remain {
		n = remain
	}
	s.cols = s.p.window(s.cols[:0], s.pos, n)
	bytes := partBytes(s.cols, n)
	s.weights = append(s.weights[:0], s.p.W[s.pos:s.pos+n]...)
	s.pos += n
	return Batch{cols: s.cols, n: n, weights: s.weights, bytes: bytes}, nil
}

// hashKeys folds the key vectors of lanes sel (nil = all n) into out,
// indexed by lane, bit-equal to table.HashRow(row, idx, seed) of the
// same rows. Only the listed lanes are read: dead lanes of a batch hold
// unspecified payloads. A dense pass takes codes (nil = none): for key
// k, nil or the dictHashes of keys[k]'s dictionary, so that a string
// lane costs one load instead of hashing its bytes.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkExchangeGather, BenchmarkJoinNullKeys, BenchmarkAggFloatKey).
func hashKeys(out []uint64, keys []table.Vector, codes [][]uint64, seed uint64, sel []int32, n int) {
	h0 := table.HashRowSeed(seed)
	if sel != nil {
		for _, i := range sel {
			h := h0
			for k := range keys {
				h = table.HashRowStep(h, laneHash(&keys[k], int(i)))
			}
			out[i] = h
		}
		return
	}
	for i := 0; i < n; i++ {
		out[i] = h0
	}
	for k := range keys {
		v := &keys[k]
		switch {
		case v.K == table.VKInt && v.Nulls == nil: // the common join and group key
			for i, x := range v.Ints[:n] {
				out[i] = table.HashRowStep(out[i], table.HashInt(x))
			}
		case codes != nil && codes[k] != nil:
			ch := codes[k]
			if v.Nulls == nil {
				for i, c := range v.Ints[:n] {
					out[i] = table.HashRowStep(out[i], ch[c])
				}
				continue
			}
			for i, c := range v.Ints[:n] {
				x := table.HashNull
				if !v.IsNull(i) {
					x = ch[c]
				}
				out[i] = table.HashRowStep(out[i], x)
			}
		default:
			for i := 0; i < n; i++ {
				out[i] = table.HashRowStep(out[i], laneHash(v, i))
			}
		}
	}
}

// dictHashes returns HashString of every entry of dict, by code: a
// string key's lane hashes for hashKeys' codes.
func dictHashes(dict []string) []uint64 {
	out := make([]uint64, len(dict))
	for c, s := range dict {
		out[c] = table.HashString(s)
	}
	return out
}

// laneHash is v.Value(i).Hash64() without building the Value.
func laneHash(v *table.Vector, i int) uint64 {
	if v.IsNull(i) {
		return table.HashNull
	}
	switch v.K {
	case table.VKInt:
		return table.HashInt(v.Ints[i])
	case table.VKFloat:
		return table.HashFloat(v.Floats[i])
	case table.VKStr:
		return table.HashString(v.Dict[v.Ints[i]])
	default:
		return table.HashBool(v.Ints[i] != 0)
	}
}
