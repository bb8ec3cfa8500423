package exec

import (
	"context"
	"math"
	"slices"
	"time"

	"quickr/internal/cluster"
	"quickr/internal/metrics"
	"quickr/internal/pool"
	"quickr/internal/sampler"
	"quickr/internal/table"
)

// This file holds the fused chain's operators and drive loops: the
// scan→filter→project→sample chains between pipeline breakers run
// column-at-a-time over exec.Batch. Predicates evaluate as per-column
// kernels and thin the selection vector, samplers thin it further and
// scale the weight column, and the sink (the breaker boundary) appends
// the live lanes of each batch to a column-major Part. Every
// expression, CASE and function calls included, evaluates as a kernel
// (coleval.go).
//
// Answers do not depend on the batch size: sampler decision sequences
// (rng draws, hash inputs, their order) and every stage/metric total
// are functions of the partition's rows only. The frozen result hashes
// (internal/experiments/frozen_hash_test.go) hold the chain to the
// answers of the row-at-a-time pipeline it replaced.

// colOperator is the columnar pipeline operator: an empty batch
// (Len()==0) means the partition is exhausted. Batches may alias
// operator-owned buffers and are valid until the next Next call.
type colOperator interface {
	Next() (Batch, error)
}

// windowCols appends zero-copy windows of lanes [pos, pos+n) of every
// column to dst and returns it with the lanes' summed value bytes.
func windowCols(dst []Vector, cols []table.ColVec, pos, n int) ([]Vector, float64) {
	var bytes float64
	for c := range cols {
		w := window(&cols[c], pos, n)
		bytes += w.bytesAll()
		dst = append(dst, w)
	}
	return dst, bytes
}

// colScanSource streams one stored partition's columnar mirror,
// windowing each column zero-copy and extracting apriori sample weights
// per batch. Raw bytes account the full stored width; the pruned width
// shows up on the downstream operators instead.
type colScanSource struct {
	p    *PScan
	cp   *table.ColPartition
	size int
	pos  int

	st   *cluster.Stage
	task int
	slot *metrics.Slot
	// raw accumulates the partition's unpruned input bytes for the
	// job-level passes metric (summed by the coordinator afterwards).
	raw *float64

	weights []float64
	cols    []Vector
	wins    []Vector
}

func (s *colScanSource) Next() (Batch, error) {
	remain := s.cp.NumRows - s.pos
	if remain <= 0 {
		return Batch{}, nil
	}
	n := s.size
	if n > remain {
		n = remain
	}
	t0 := time.Now()
	// Window every stored column once: raw bytes account the full
	// stored width, the batch carries only the pruned columns.
	var rawBytes float64
	s.wins, rawBytes = windowCols(s.wins[:0], s.cp.Cols, s.pos, n)
	s.cols = s.cols[:0]
	if prune := len(s.p.ColIdx) > 0; prune {
		for _, ci := range s.p.ColIdx {
			s.cols = append(s.cols, s.wins[ci])
		}
	} else {
		s.cols = append(s.cols, s.wins...)
	}
	if cap(s.weights) < n {
		s.weights = make([]float64, n)
	}
	s.weights = s.weights[:n]
	if s.p.WeightIdx >= 0 && s.p.WeightIdx < len(s.wins) {
		wv := &s.wins[s.p.WeightIdx]
		for i := 0; i < n; i++ {
			w := wv.laneFloat(i)
			if w <= 0 {
				w = 1
			}
			s.weights[i] = w
		}
	} else {
		for i := 0; i < n; i++ {
			s.weights[i] = 1
		}
	}
	outBytes := 8 * float64(n)
	for c := range s.cols {
		outBytes += s.cols[c].bytesAll()
	}
	s.pos += n
	s.st.AddInput(s.task, int64(n), rawBytes)
	s.st.AddCPU(s.task, float64(n))
	s.slot.RowsIn += int64(n)
	s.slot.RowsOut += int64(n)
	s.slot.BytesIn += rawBytes
	s.slot.BytesOut += rawBytes
	s.slot.NoteBatch(outBytes)
	s.slot.KernelLanes += int64(n)
	*s.raw += rawBytes
	s.slot.WallNanos += int64(time.Since(t0))
	return Batch{cols: s.cols, n: n, weights: s.weights, bytes: outBytes}, nil
}

// colFilterOp evaluates the predicate kernel and keeps the truthy lanes
// in the selection, pulling more input until it has survivors.
type colFilterOp struct {
	ctx   context.Context
	child colOperator
	kern  colKernel
	st    *cluster.Stage
	task  int
	slot  *metrics.Slot
	sel   []int32
}

func (f *colFilterOp) Next() (Batch, error) {
	for {
		// Per-pull cancellation point: a selective kernel can consume
		// many input batches before the drive loop sees an output batch.
		if err := ctxErr(f.ctx); err != nil {
			return Batch{}, err
		}
		b, err := f.child.Next()
		if err != nil || b.Len() == 0 {
			return Batch{}, err
		}
		t0 := time.Now()
		v := f.kern(&b)
		liveIn := b.Len()
		f.sel = truthyLanes(f.sel[:0], &v, &b)
		f.st.AddCPU(f.task, float64(liveIn))
		f.slot.RowsIn += int64(liveIn)
		f.slot.RowsOut += int64(len(f.sel))
		f.slot.KernelLanes += int64(b.n)
		f.slot.WallNanos += int64(time.Since(t0))
		if len(f.sel) > 0 {
			bytes := liveBytes(b.cols, f.sel)
			f.slot.NoteBatch(bytes)
			return Batch{cols: b.cols, n: b.n, sel: f.sel, weights: b.weights, bytes: bytes}, nil
		}
	}
}

// truthyLanes appends to dst the live lanes of b on which the predicate
// result v is true.
func truthyLanes(dst []int32, v *Vector, b *Batch) []int32 {
	switch v.K {
	case VKBool:
		// NULL lanes carry payload 0, so truthiness is the payload.
		if b.sel != nil {
			for _, i := range b.sel {
				if v.Ints[i] != 0 {
					dst = append(dst, i)
				}
			}
		} else {
			for i := 0; i < b.n; i++ {
				if v.Ints[i] != 0 {
					dst = append(dst, int32(i))
				}
			}
		}
	case VKAny:
		if b.sel != nil {
			for _, i := range b.sel {
				if truthy(v.Vals[i]) {
					dst = append(dst, i)
				}
			}
		} else {
			for i := 0; i < b.n; i++ {
				if truthy(v.Vals[i]) {
					dst = append(dst, int32(i))
				}
			}
		}
	default:
		// Non-boolean predicate result: nothing passes.
	}
	return dst
}

// colProjectOp evaluates one kernel per output expression; the batch
// keeps its selection and weights, only the columns change.
type colProjectOp struct {
	child colOperator
	kerns []colKernel
	cost  float64
	st    *cluster.Stage
	task  int
	slot  *metrics.Slot
	cols  []Vector
}

func (p *colProjectOp) Next() (Batch, error) {
	b, err := p.child.Next()
	if err != nil || b.Len() == 0 {
		return Batch{}, err
	}
	t0 := time.Now()
	p.cols = p.cols[:0]
	for _, k := range p.kerns {
		p.cols = append(p.cols, k(&b))
	}
	live := b.Len()
	var bytes float64
	if b.sel != nil {
		bytes = liveBytes(p.cols, b.sel)
	} else {
		bytes = 8 * float64(b.n)
		for c := range p.cols {
			bytes += p.cols[c].bytesAll()
		}
	}
	p.st.AddCPU(p.task, p.cost*float64(live))
	p.slot.RowsIn += int64(live)
	p.slot.RowsOut += int64(live)
	p.slot.KernelLanes += int64(b.n)
	p.slot.NoteBatch(bytes)
	p.slot.WallNanos += int64(time.Since(t0))
	return Batch{cols: p.cols, n: b.n, sel: b.sel, weights: b.weights, bytes: bytes}, nil
}

// colPassOp is a pass-through sampler: it forwards batches untouched and
// only counts them (no stage exists for all-pass-through chains, and no
// CPU is charged).
type colPassOp struct {
	child colOperator
	slot  *metrics.Slot
}

func (p *colPassOp) Next() (Batch, error) {
	b, err := p.child.Next()
	if err != nil || b.Len() == 0 {
		return b, err
	}
	live := b.Len()
	p.slot.RowsIn += int64(live)
	p.slot.RowsOut += int64(live)
	p.slot.NoteBatch(b.bytes)
	return b, nil
}

// colSampleOp runs a real sampler columnar-style. Uniform and universe
// samplers thin the selection in place and scale the weight column (the
// universe sampler once universeLanes has each lane's coordinate); the
// distinct sampler's output is built into a batch of its own
// (distinctLanes).
type colSampleOp struct {
	ctx   context.Context
	child colOperator
	unif  *sampler.Uniform
	uni   *universeLanes
	dist  *distinctLanes
	cost  float64 // the sampler type's CostPerRow

	st   *cluster.Stage
	task int
	slot *metrics.Slot

	selBuf []int32
	done   bool
}

func (s *colSampleOp) Next() (Batch, error) {
	if s.done {
		return Batch{}, nil
	}
	for {
		// Per-pull cancellation point: a low-p sampler may swallow whole
		// input batches without emitting.
		if err := ctxErr(s.ctx); err != nil {
			return Batch{}, err
		}
		b, err := s.child.Next()
		if err != nil {
			return Batch{}, err
		}
		t0 := time.Now()
		if b.Len() == 0 {
			// End of partition: the reservoir flush is the final batch.
			s.done = true
			var out Batch
			if d := s.dist; d != nil {
				d.em = d.s.Flush(d.appendKey, d.em[:0])
				out = d.emit(nil)
				s.slot.RowsOut += int64(out.n)
				s.slot.SamplerPassed += int64(out.n)
				s.slot.SketchEntries += int64(d.s.MemoryFootprint())
				if out.n > 0 {
					s.slot.NoteBatch(out.bytes)
				}
			}
			s.slot.WallNanos += int64(time.Since(t0))
			return out, nil
		}
		liveIn := b.Len()
		sel := b.liveSel(s.selBuf)
		if b.sel == nil {
			s.selBuf = sel
		}
		out := b
		switch {
		case s.unif != nil:
			out.sel = s.unif.AdmitBatch(sel, b.weights)
		case s.uni != nil:
			out.sel = s.uni.admit(&b, sel)
		default:
			out = s.dist.admit(&b, sel)
		}
		passed := out.Len()
		s.st.AddCPU(s.task, s.cost*float64(liveIn))
		s.slot.RowsIn += int64(liveIn)
		s.slot.RowsOut += int64(passed)
		s.slot.SamplerSeen += int64(liveIn)
		s.slot.SamplerPassed += int64(passed)
		s.slot.KernelLanes += int64(liveIn)
		s.slot.WallNanos += int64(time.Since(t0))
		if passed > 0 {
			if s.dist == nil {
				out.bytes = liveBytes(b.cols, out.sel)
			}
			s.slot.NoteBatch(out.bytes)
			return out, nil
		}
	}
}

// universeLanes is one partition's universe sampler: per batch it
// computes the coordinate of every live lane, hashKeys under the
// sampler's seed and then sampler.Mix, which is sampler.HashValues of
// the lane's keys, and admits.
type universeLanes struct {
	s      *sampler.Universe
	keys   []Vector
	hashes []uint64 // by lane
}

// admit thins the live lanes sel of b to those whose coordinate falls in
// the sampler's subspace, scaling their weights.
func (u *universeLanes) admit(b *Batch, sel []int32) []int32 {
	u.coords(b, sel)
	return u.s.AdmitBatch(sel, b.weights, u.hashes)
}

// coords sets hashes, by lane, to the coordinate of every live lane sel
// of b.
//
//hot:universe sampler coordinate per live lane, gated by BenchmarkUniverseSample allocs/op
func (u *universeLanes) coords(b *Batch, sel []int32) {
	u.keys = u.keys[:0]
	for _, ci := range u.s.Cols {
		u.keys = append(u.keys, b.cols[ci])
	}
	u.hashes = extend(u.hashes[:0], b.n)
	hashKeys(u.hashes, u.keys, nil, u.s.Seed, sel, 0)
	for _, i := range sel {
		u.hashes[i] = sampler.Mix(u.hashes[i])
	}
}

// distinctLanes is one partition's distinct sampler over key vectors.
// Per batch it builds the stratum key vectors (the sampler columns, then
// one bucket vector per bucket column), resolves a dense stratum id per
// live lane through a keyTable — column by column, so no two strata can
// share an id — and admits the lanes. Lanes the sampler holds are copied
// into hold, whose positions are the sampler's handles; the output batch
// is built in emission order from the input batch and hold.
type distinctLanes struct {
	s       *sampler.Distinct
	colIdx  []int
	buckets []bucketCol
	kt      *keyTable
	keys    []Vector
	ids     []int64
	em      []sampler.Emit
	held    []int32
	hold    *partBuilder
	out     *partBuilder // the output batch, rebuilt per batch
	run     []int32
	vecs    []Vector
}

// bucketCol stratifies on ⌈v/width⌉ of the column at pos — the paper's
// stratification over functions of columns (§4.1.2): a numeric lane
// becomes that integer, any other lane (NULL, string, bool) stays as it
// is.
type bucketCol struct {
	pos   int
	width float64
	ints  []int64
	vals  []table.Value
}

// vector returns the bucket vector of v over the lanes sel (the other
// lanes are unspecified).
func (bc *bucketCol) vector(v *Vector, sel []int32) Vector {
	switch v.K {
	case VKInt, VKFloat:
		bc.ints = growInts(bc.ints, v.N)
		for _, i := range sel {
			bc.ints[i] = int64(math.Ceil(v.laneFloat(int(i)) / bc.width))
		}
	case VKAny:
		bc.vals = slices.Grow(bc.vals[:0], v.N)[:v.N]
		for _, i := range sel {
			x := v.Vals[i]
			if x.IsNumeric() {
				x = table.NewInt(int64(math.Ceil(x.Float() / bc.width)))
			}
			bc.vals[i] = x
		}
		return Vector{K: VKAny, N: v.N, Vals: bc.vals}
	default:
		return *v
	}
	return Vector{K: VKInt, N: v.N, Ints: bc.ints, nulls: v.nulls, nullOff: v.nullOff}
}

// admit runs the live lanes sel of b through the sampler and returns
// the batch of what it emitted (empty when nothing was).
func (d *distinctLanes) admit(b *Batch, sel []int32) Batch {
	d.keys = d.keys[:0]
	for _, ci := range d.colIdx {
		d.keys = append(d.keys, b.cols[ci])
	}
	for k := range d.buckets {
		bc := &d.buckets[k]
		d.keys = append(d.keys, bc.vector(&b.cols[bc.pos], sel))
	}
	d.ids = growInts(d.ids, b.n)
	d.kt.resolve(d.ids, d.keys, sel, nil)
	d.em, d.held = d.s.AdmitBatch(sel, d.ids, b.weights, d.em[:0], d.held[:0])
	d.hold.appendGather(b.cols, d.held, 0)
	return d.emit(b.cols)
}

// appendKey appends stratum id's canonical key — each key column's
// Value.AppendKey and a NUL — to dst: what the flush orders by.
func (d *distinctLanes) appendKey(dst []byte, id int32) []byte {
	for k := range d.kt.keys {
		dst = append(d.kt.keys[k].Value(int(id)).AppendKey(dst), 0)
	}
	return dst
}

// emit builds the batch of the rows d.em lists, in that order: each run
// of lanes copies from src, each run of handles from hold.
//
//hot:distinct sampler emission builder, per batch
func (d *distinctLanes) emit(src []Vector) Batch {
	if len(d.em) == 0 {
		return Batch{}
	}
	for c := range d.out.cols {
		d.out.cols[c].reset()
	}
	d.out.w = d.out.w[:0]
	var bytes float64
	for lo := 0; lo < len(d.em); {
		held := d.em[lo].Held
		d.run = d.run[:0]
		for ; lo < len(d.em) && d.em[lo].Held == held; lo++ {
			d.run = append(d.run, d.em[lo].Ref)
			d.out.w = append(d.out.w, d.em[lo].W)
		}
		from := src
		if held {
			d.vecs = d.hold.vectors(d.vecs[:0])
			from = d.vecs
		}
		d.out.appendGather(from, d.run, 0)
		bytes += liveBytes(from, d.run)
	}
	d.vecs = d.out.vectors(d.vecs[:0])
	return Batch{cols: d.vecs, n: len(d.out.w), weights: d.out.w, bytes: bytes}
}

// colProbeOp is a hash join's probe: per pulled batch it puts the live
// lanes' keys in joinKeys' form, finds their ids in the build table's
// keyTable (hashing them unless it indexes a lone key directly), walks
// each lane's chain and emits the (probe lane, build row) pairs, in that
// order, as one batch — probe columns, then build columns — gathered
// into builders it owns and reuses. Under a left outer join a lane with
// no match pairs with build row −1, a NULL pad. An output batch holds
// every pair of its input batch, so it exceeds the batch size when build
// keys repeat.
//
// The simulated task is charged what a task that built its own table
// over the build side would spend: 2 CPU units per build row, with the
// task's first charge (also when its partition is empty), and 2 per
// probe lane.
type colProbeOp struct {
	ctx   context.Context
	child colOperator
	js    *joinSpec
	bt    *joinTable
	resid *joinResidual // nil without a residual predicate
	outer bool

	st      *cluster.Stage
	task    int
	slot    *metrics.Slot
	charged bool // the build rows' CPU is on the task

	jk     joinKeys
	ids    []int64
	hashes []uint64
	selBuf []int32
	pl, pr []int32
	out    *partBuilder
	vecs   []Vector
}

func (o *colProbeOp) Next() (Batch, error) {
	for {
		// Per-pull cancellation point: a selective join can consume many
		// input batches before it emits one.
		if err := ctxErr(o.ctx); err != nil {
			return Batch{}, err
		}
		b, err := o.child.Next()
		if err != nil {
			return Batch{}, err
		}
		if b.Len() == 0 {
			o.charge(0)
			return Batch{}, nil
		}
		t0 := time.Now()
		live := b.Len()
		out := o.probe(&b)
		o.charge(live)
		o.slot.RowsIn += int64(live)
		o.slot.ProbeRows += int64(live)
		o.slot.RowsOut += int64(out.n)
		o.slot.WallNanos += int64(time.Since(t0))
		if out.n > 0 {
			o.slot.NoteBatch(out.bytes)
			return out, nil
		}
	}
}

// charge puts live probe lanes' CPU on the task, and with the first
// charge the build rows'.
func (o *colProbeOp) charge(live int) {
	cpu := 2 * float64(live)
	if !o.charged {
		cpu += 2 * float64(len(o.bt.next))
		o.charged = true
	}
	o.st.AddCPU(o.task, cpu)
}

// probe joins the live lanes of b and returns the output batch (empty
// when no pair survived).
//
//hot:join probe, per batch
func (o *colProbeOp) probe(b *Batch) Batch {
	sel := b.liveSel(o.selBuf)
	if b.sel == nil {
		o.selBuf = sel
	}
	bt, pad := o.bt, o.outer && o.resid == nil
	lanes, ids := o.jk.set(b.cols, o.js.lIdx, sel), extend(o.ids[:0], b.n)
	narrowed := len(lanes) < len(sel) // some live lanes can match nothing
	if narrowed {
		for _, i := range sel {
			ids[i] = -1
		}
	}
	if bt.keys.idx != nil { // a hashed table: find reads the lanes' hashes
		o.hashes = extend(o.hashes[:0], b.n)
		if narrowed {
			hashKeys(o.hashes, o.jk.keys, nil, exchangeHashSeed, lanes, 0)
		} else {
			hashKeys(o.hashes, o.jk.keys, nil, exchangeHashSeed, b.sel, b.n)
		}
	}
	bt.keys.find(ids, o.jk.keys, lanes, o.hashes)
	pl, pr, head, next := o.pl[:0], o.pr[:0], bt.head, bt.next
	for _, i := range sel {
		id := ids[i]
		if id < 0 {
			if pad {
				pl, pr = append(pl, i), append(pr, -1)
			}
			continue
		}
		for ri := head[id]; ri >= 0; ri = next[ri] {
			pl, pr = append(pl, i), append(pr, ri)
		}
	}
	o.ids, o.pl, o.pr = ids, pl, pr
	if o.resid != nil {
		pl, pr = o.resid.filter(b.cols, bt.cols, pl, pr, sel, o.outer)
	}
	if len(pl) == 0 {
		return Batch{}
	}
	out := o.out
	for c := range out.cols {
		out.cols[c].reset()
	}
	out.appendGather(b.cols, pl, 0)
	out.appendGather(bt.cols, pr, len(b.cols))
	out.w = grow(out.mem, out.w[:0], len(pl))
	shared := o.js.p.SharedUniverseP
	for k, i := range pl {
		w := b.weights[i]
		if r := pr[k]; r >= 0 {
			w *= bt.w[r]
			if shared > 0 {
				// Both inputs carry the same universe sampler: the join
				// output is a p-probability universe sample, not p², so
				// the double-counted 1/p factor is removed (§4.1.3).
				w *= shared
			}
		}
		out.w[k] = w
	}
	o.vecs = out.vectors(o.vecs[:0])
	bytes := 8 * float64(len(pl))
	for c := range o.vecs {
		bytes += o.vecs[c].bytesAll()
	}
	return Batch{cols: o.vecs, n: len(pl), weights: out.w, bytes: bytes}
}

// joinResidual evaluates a join's residual predicate over a batch's
// candidate pairs: one probe task's private kernel and buffers.
type joinResidual struct {
	kern   colKernel
	cand   *partBuilder // the candidate pairs' columns
	vecs   []Vector
	keep   []int32
	ol, or []int32
}

// filter returns the candidate pairs (pl, pr) of the live lanes sel that
// pass the residual, plus, under a left outer join, a (lane, −1) pad for
// every lane left with no passing pair, in lane order. The result is
// valid until the next call.
func (jr *joinResidual) filter(lcols, rcols []Vector, pl, pr, sel []int32, outer bool) ([]int32, []int32) {
	for c := range jr.cand.cols {
		jr.cand.cols[c].reset()
	}
	jr.cand.appendGather(lcols, pl, 0)
	jr.cand.appendGather(rcols, pr, len(lcols))
	jr.vecs = jr.cand.vectors(jr.vecs[:0])
	cand := Batch{cols: jr.vecs, n: len(pl)}
	v := jr.kern(&cand)
	jr.keep = truthyLanes(jr.keep[:0], &v, &cand)
	ol, or := jr.ol[:0], jr.or[:0]
	c, k := 0, 0 // cursors into the candidates and into keep
	for _, i := range sel {
		matched := false
		for ; c < len(pl) && pl[c] == i; c++ {
			if k < len(jr.keep) && int(jr.keep[k]) == c {
				ol, or = append(ol, i), append(or, pr[c])
				matched = true
				k++
			}
		}
		if !matched && outer {
			ol, or = append(ol, i), append(or, -1)
		}
	}
	jr.ol, jr.or = ol, or
	return ol, or
}

// colChain is the shared setup for a fused chain: the walk down to its
// source (a scan, a cached-sample node or a breaker), stage wiring and
// per-op setup; per-partition operators are built by operatorFor
// (kernels compile per partition so each owns private buffers).
type colChain struct {
	ex     *executor
	nodes  []PNode // bottom-up, aligned with specs
	specs  []*pipeSpec
	scan   *PScan
	scanOp *metrics.Op
	// src is the source of a chain that does not start at a scan: a
	// breaker's output, or a cached-sample node's (replayed or lazily
	// produced) output. Its partitions are windowed zero-copy.
	src     *stream
	st      *cluster.Stage
	parts   int
	partRaw []float64
	// probes is set when a broadcast join probes inside the chain.
	probes bool
}

// buildColChain walks from top down through the chain's operators to its
// source, running each broadcast join's build side on the way down (so
// the build side runs before the probe side, as it always has), then
// opens the source and sets the operators up bottom-up.
func (ex *executor) buildColChain(top PNode) (*colChain, error) {
	var chain []PNode
	var builds []*stream // a broadcast join's build side, aligned with chain
	var scan *PScan
	var cached *PCachedSample
	n := top
	for {
		if s, ok := n.(*PScan); ok {
			scan = s
			break
		}
		// A cached-sample node ends the fused chain like a scan does: its
		// output (replayed or lazily produced) is the pipeline's source.
		if cs, ok := n.(*PCachedSample); ok {
			cached = cs
			break
		}
		if !chained(n) {
			break
		}
		var build *stream
		if j, ok := n.(*PHashJoin); ok {
			var err error
			if build, err = ex.exec(j.Right); err != nil {
				return nil, err
			}
		}
		chain, builds = append(chain, n), append(builds, build)
		n = n.Kids()[0]
	}

	cc := &colChain{ex: ex, scan: scan}
	if scan != nil {
		cc.parts = len(scan.Tbl.Partitions)
		cc.st = ex.run.NewStage("scan:"+scan.Tbl.Name, cc.parts)
		cc.st.Extract = true
		cc.partRaw = make([]float64, cc.parts)
		cc.scanOp = ex.opFor(scan)
		cc.scanOp.Grow(cc.parts)
	} else {
		var s *stream
		var err error
		if cached != nil {
			s, err = ex.execCachedSample(cached)
		} else {
			s, err = ex.exec(n)
		}
		if err != nil {
			return nil, err
		}
		cc.src = s
		cc.parts = len(s.parts)
	}

	// Stages open bottom-up: over a materialized source, the bottom-most
	// compute operator names the probe side's stage, and a join closes
	// its build side's stage before that.
	for i := len(chain) - 1; i >= 0; i-- {
		sp, err := ex.compilePipeOp(chain[i], cc.parts)
		if err != nil {
			return nil, err
		}
		if j, ok := chain[i].(*PHashJoin); ok {
			if sp.join, err = cc.broadcastBuild(j, builds[i], sp.op); err != nil {
				return nil, err
			}
		} else if name := stageName(chain[i]); cc.src != nil && name != "" {
			ex.ensureStage(cc.src, name)
		}
		cc.nodes = append(cc.nodes, chain[i])
		cc.specs = append(cc.specs, sp)
	}
	if cc.src != nil {
		cc.st = cc.src.stage
	}
	return cc, nil
}

// broadcastBuild closes a broadcast join's build side as shuffled output,
// opens the probe side's stage if nothing below did, makes it depend on
// the build side, and builds the join table once over the gathered build
// side; every probe task reads it.
func (cc *colChain) broadcastBuild(p *PHashJoin, build *stream, op *metrics.Op) (*joinSpec, error) {
	ex := cc.ex
	ex.ensureStage(build, "build-src")
	ex.materialize(build, true)
	side := concatParts(ex.mem, build.parts, len(p.Right.Cols()))
	if cc.src != nil {
		ex.ensureStage(cc.src, stageName(p))
		cc.st = cc.src.stage
	}
	cc.st.Deps = appendDep(cc.st.Deps, build.deps)
	cc.probes = true
	t0 := time.Now()
	js, err := newJoinSpec(ex.mem, p, &side)
	op.AddWall(time.Since(t0))
	return js, err
}

// operatorFor builds the partition-local columnar operator chain.
func (cc *colChain) operatorFor(i int) (colOperator, error) {
	var cur colOperator
	if cc.scan != nil {
		cur = &colScanSource{
			p: cc.scan, cp: cc.scan.Tbl.Columnar(i), size: cc.ex.batch,
			st: cc.st, task: i, slot: cc.scanOp.Slot(i), raw: &cc.partRaw[i],
		}
	} else {
		cur = &partSource{p: &cc.src.parts[i], size: cc.ex.batch}
	}
	for k, sp := range cc.specs {
		slot := sp.op.Slot(i)
		switch x := cc.nodes[k].(type) {
		case *PFilter:
			kern, err := compileColKernel(x.Pred, buildColMap(x.In.Cols()), cc.ex.mem)
			if err != nil {
				return nil, err
			}
			cur = &colFilterOp{ctx: cc.ex.ctx, child: cur, kern: kern, st: cc.st, task: i, slot: slot}
		case *PProject:
			kerns, err := compileColKernels(x.Exprs, buildColMap(x.In.Cols()), cc.ex.mem)
			if err != nil {
				return nil, err
			}
			cur = &colProjectOp{child: cur, kerns: kerns, cost: sp.cost, st: cc.st, task: i, slot: slot}
		case *PSample:
			if sp.passthrough {
				cur = &colPassOp{child: cur, slot: slot}
				break
			}
			op := sp.newSampler(cc.ex.mem, i)
			op.ctx, op.child, op.st, op.task, op.slot = cc.ex.ctx, cur, cc.st, i, slot
			cur = op
		case *PHashJoin:
			// Every task reads the whole broadcast build side.
			js := sp.join
			cc.st.AddInput(i, int64(js.side.N), js.side.bytes)
			op, err := js.newProbe(cc.ex.ctx, cc.ex.mem, cur, js.bt, cc.st, i, slot)
			if err != nil {
				return nil, err
			}
			cur = op
		}
	}
	return cur, nil
}

// finish folds the per-partition raw scan bytes into the job total.
func (cc *colChain) finish() {
	for _, b := range cc.partRaw {
		cc.ex.run.JobInputBytes += b
	}
}

// result wraps the sink's partitions as the chain's output stream.
func (cc *colChain) result(outParts []Part) *stream {
	if cc.scan != nil {
		return &stream{parts: outParts, stage: cc.st}
	}
	cc.src.parts = outParts
	return cc.src
}

// drive pulls partition i's chain dry, handing every batch to sink.
func (cc *colChain) drive(i int, sink func(*Batch)) error {
	cur, err := cc.operatorFor(i)
	if err != nil {
		return err
	}
	return pull(cc.ex.ctx, cur, sink)
}

// pull drains op, handing every batch to sink.
func pull(ctx context.Context, op colOperator, sink func(*Batch)) error {
	var b Batch // escapes to sink: one allocation per drain, not per batch
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		var err error
		b, err = op.Next()
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		sink(&b)
	}
}

// estHint splits an optimizer cardinality estimate across parts tasks
// for sink preallocation; 0 means "no estimate, grow on demand". The
// cap bounds what an overestimate can waste per column (512 KiB).
func estHint(est float64, parts int) int {
	if est <= 0 || parts <= 0 {
		return 0
	}
	return min(int(est)/parts+1, 1<<16)
}

// execColPipeline runs the fused chain rooted at top column-at-a-time;
// each partition's sink appends the live lanes of every batch to a
// Part. The append time is the chain top's own work and lands on its
// slot. Behind a probe the sink shares the dictionaries of the columns
// it copies, as a materialized join output always did, so a build
// side's strings are not interned again per partition. Other sinks
// intern: their Part keeps only the strings it holds, not a stored
// partition's whole dictionary (a cached sample is sized by it).
func (ex *executor) execColPipeline(top PNode) (*stream, error) {
	cc, err := ex.buildColChain(top)
	if err != nil {
		return nil, err
	}
	if cc.src != nil && len(cc.nodes) == 0 {
		// A bare cached-sample node: its partitions are the output.
		return cc.src, nil
	}
	width := len(top.Cols())
	owner := ex.opFor(top)
	// Sink capacity from the optimizer's estimate of the pipeline's
	// output cardinality, split across partitions.
	hint := estHint(owner.EstRows, cc.parts)
	outParts := make([]Part, cc.parts)
	if err := ex.parallel(cc.parts, func(i int) error {
		pb := newPartBuilder(ex.mem, width, hint)
		pb.share = cc.probes
		sl := owner.Slot(i)
		if err := cc.drive(i, func(b *Batch) {
			t0 := time.Now()
			pb.appendBatch(b)
			sl.WallNanos += int64(time.Since(t0))
		}); err != nil {
			return err
		}
		t0 := time.Now()
		outParts[i] = pb.finish()
		sl.WallNanos += int64(time.Since(t0))
		return nil
	}); err != nil {
		return nil, err
	}
	cc.finish()
	return cc.result(outParts), nil
}

// execAgg runs a hash aggregate over whatever feeds it: the chain below
// (possibly empty, when the input is a breaker's output) is fused into
// the aggregate, its batches folding into the aggregation runner
// vector by vector without building the aggregate's input first.
func (ex *executor) execAgg(p *PHashAgg) (*stream, error) {
	if x, ok := p.In.(*PExchange); ok && x.routed() {
		return ex.execAggRouted(p, x)
	}
	cc, err := ex.buildColChain(p.In)
	if err != nil {
		return nil, err
	}
	if cc.st == nil {
		// No compute operator below opened a stage over the materialized
		// stream: the aggregate does.
		ex.ensureStage(cc.src, "aggregate")
		cc.st = cc.src.stage
	}
	// Lanes read straight off a breaker's partition went through no
	// chain kernel and are not counted as kernel lanes.
	ao := ex.newAggOut(p, cc.st, cc.parts, !p.In.Breaker())
	t0 := time.Now()
	if err := ex.parallel(cc.parts, func(i int) error {
		r, err := newAggRunner(p, ao.cm, ex.mem)
		if err != nil {
			return err
		}
		nrows := 0
		if err := cc.drive(i, func(b *Batch) { nrows += r.addBatch(b, nil) }); err != nil {
			return err
		}
		ao.emit(i, r, nrows)
		return nil
	}); err != nil {
		return nil, err
	}
	ao.op.AddWall(time.Since(t0))
	cc.finish()
	return cc.result(ao.finish(ex)), nil
}

// execAggRouted runs a hash aggregate over a keyed exchange without
// building the exchange's output: destination d's runner folds the
// lanes routed to d where they lie in the sources, as batches of a
// source window under the routed selection — the lanes, in the order, a
// gathered partition would hand it. A task owns a stripe of
// destinations (d % tasks) and reads each source window once for all of
// them; one task per destination would re-read every source column for
// 1/parts of its lanes. Grouped on the exchange keys (the shape the
// planner emits), the runners take the routing hashes as group hashes.
func (ex *executor) execAggRouted(p *PHashAgg, x *PExchange) (*stream, error) {
	rt, s, err := ex.routeExchange(x, slices.Equal(p.GroupCols, x.Keys))
	if err != nil {
		return nil, err
	}
	return ex.aggRoutes(p, rt, s.deps)
}

// aggRoutes is execAggRouted once the exchange is routed.
func (ex *executor) aggRoutes(p *PHashAgg, rt *routes, deps []int) (*stream, error) {
	st := ex.run.NewStage("aggregate", rt.parts, deps...)
	for d := 0; d < rt.parts; d++ {
		st.AddInput(d, rt.rows[d], rt.bytes[d])
	}
	ao := ex.newAggOut(p, st, rt.parts, false)
	tasks := min(rt.parts, pool.Default().Workers())
	t0 := time.Now()
	if err := ex.parallel(tasks, func(t int) error {
		runners := make([]*aggRunner, rt.parts)
		for d := t; d < rt.parts; d += tasks {
			r, err := newAggRunner(p, ao.cm, ex.mem)
			if err != nil {
				return err
			}
			runners[d] = r
		}
		if err := rt.fold(ex.ctx, t, tasks, runners); err != nil {
			return err
		}
		for d := t; d < rt.parts; d += tasks {
			ao.emit(d, runners[d], int(rt.rows[d]))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	ao.op.AddWall(time.Since(t0))
	return &stream{parts: ao.finish(ex), stage: st}, nil
}

// fold feeds the runners of stripe t every source window's routed lanes,
// with their kept hashes.
//
//hot:striped aggregate fold over routed lanes, per window
func (rt *routes) fold(ctx context.Context, t, tasks int, runners []*aggRunner) error {
	var b Batch
	for i := range rt.srcs {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		src := &rt.srcs[i]
		for w, pos := 0, 0; pos < src.N; w++ {
			b.n = min(rt.window, src.N-pos)
			b.cols, b.weights = src.window(b.cols[:0], pos, b.n), src.W[pos:pos+b.n]
			var hs []uint64
			if rt.hashes != nil {
				hs = rt.hashes[i][pos : pos+b.n]
			}
			for d := t; d < rt.parts; d += tasks {
				if b.sel = rt.sel(i, w, d); len(b.sel) > 0 {
					runners[d].addBatch(&b, hs)
				}
			}
			pos += b.n
		}
	}
	return nil
}

// aggOut collects a hash aggregate's per-partition outputs; emit is
// called from the partitions' tasks, each for its own indexes.
type aggOut struct {
	p     *PHashAgg
	cm    colMap
	op    *metrics.Op
	st    *cluster.Stage
	fused bool // the input lanes came through chain kernels
	parts []Part
	ests  [][]GroupEstimate
}

func (ex *executor) newAggOut(p *PHashAgg, st *cluster.Stage, parts int, fused bool) *aggOut {
	op := ex.opFor(p)
	op.Grow(parts)
	return &aggOut{p: p, cm: buildColMap(p.In.Cols()), op: op, st: st, fused: fused,
		parts: make([]Part, parts), ests: make([][]GroupEstimate, parts)}
}

// emit renders partition i's groups from its runner, which folded nrows
// rows, and charges the partition's task.
func (ao *aggOut) emit(i int, r *aggRunner, nrows int) {
	out, ests := r.emit()
	// A global aggregate on a non-first partition must not emit the
	// empty-input global row.
	if len(ao.p.GroupCols) == 0 && i > 0 && nrows == 0 {
		out, ests = emptyPart(len(out.Cols)), nil
	}
	ao.parts[i], ao.ests[i] = out, ests
	ao.st.AddCPU(i, 2*float64(nrows))
	sl := ao.op.Slot(i)
	sl.RowsIn += int64(nrows)
	sl.RowsOut += int64(out.N)
	if ao.fused {
		sl.KernelLanes += int64(nrows)
	}
	if out.N > 0 {
		sl.NoteBatch(out.bytes)
	}
}

// finish hands the top aggregate's estimates to the executor and
// returns the output partitions.
func (ao *aggOut) finish(ex *executor) []Part {
	if ao.p.Top {
		n := 0
		for _, es := range ao.ests {
			n += len(es)
		}
		if n > 0 {
			all := make([]GroupEstimate, 0, n)
			for _, es := range ao.ests {
				all = append(all, es...)
			}
			ex.topEstimates = all
		}
	}
	return ao.parts
}
