package exec

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"time"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/pool"
	"quickr/internal/table"
)

// parallelParts runs fn(i) for each partition index on the process-wide
// shared worker pool (plus the calling goroutine), returning the first
// error. Per-stage task accounting is index-disjoint (each partition
// touches only its own task counters), so operators parallelize without
// locks. Cancellation is honored between tasks: after ctx is done, no
// new partition starts, every started partition's teardown completes
// before the call returns, and the typed ErrCanceled/ErrDeadline is
// reported.
func parallelParts(ctx context.Context, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	_, err := pool.Default().Run(ctx, n, fn)
	return mapCtxErr(err)
}

// stream is the in-flight state between pipeline breakers: the data
// partitions plus the stage currently accumulating their cost. A nil
// stage means the data was materialized at a boundary (exchange/union);
// the next compute operator opens a new stage depending on deps.
type stream struct {
	parts []Part
	stage *cluster.Stage
	deps  []int
}

// Result is the outcome of executing a physical plan.
type Result struct {
	Cols    []lplan.ColumnInfo
	Rows    []table.Row
	Metrics cluster.Metrics
	// Estimates holds per-group HT estimates from the top aggregate
	// (confidence intervals for the public API).
	Estimates []GroupEstimate
	// StageReport is a human-readable per-stage accounting dump.
	StageReport string
	// PlanText is the executed physical plan.
	PlanText string
	// Stats holds the per-operator execution counters.
	Stats *metrics.Query
	// AnalyzedPlan is the EXPLAIN ANALYZE rendering: the plan tree
	// annotated with actual and optimizer-estimated cardinalities.
	AnalyzedPlan string
	// PeakInFlightBytes is the run's worst per-operator in-flight
	// footprint: for each operator, the sum over partitions of the
	// biggest batch (pipelined operators) or materialized partition
	// (breakers) it held at once, maxed over operators. Streaming
	// pipelines keep this near parts×batch-bytes where the materializing
	// executor held entire intermediates.
	PeakInFlightBytes float64
	// RowsProcessed counts base-table rows driven through the plan.
	RowsProcessed int64
	// PartitionsScanned counts the stored partitions the plan's scan
	// operators read: every partition of every scanned table.
	PartitionsScanned int64
	// ExecSeconds is real wall-clock execution time (not simulated).
	ExecSeconds float64
	// PoolWaitNanos is the run's aggregate scheduling wait on the shared
	// worker pool (see pool.Stats.WaitNanos).
	PoolWaitNanos int64
	// PoolTasks and PoolStolen count partition tasks run for this query
	// and how many of them were executed by shared pool workers.
	PoolTasks, PoolStolen int
	// QueuedNanos and AdmittedBytes echo the admission-gate outcome the
	// caller passed in via Options (zero when no admission control ran).
	QueuedNanos   int64
	AdmittedBytes int64
}

// Run executes the physical plan under the given cluster configuration.
func Run(p PNode, cfg cluster.Config) (*Result, error) {
	return RunWithOptions(context.Background(), p, cfg, nil, Options{})
}

// RunWithOptions executes the plan with per-operator metrics
// collection, a cancellation context and execution tuning (batch size,
// admission echo). estRows annotates each operator with the optimizer's
// estimated output cardinality (keyed by plan-node identity; nil is
// allowed and leaves estimates unknown). The context is checked between
// partition tasks and at every pipeline batch boundary; a canceled run
// returns ErrCanceled (ErrDeadline when the deadline passed) after all
// started partition work has unwound.
func RunWithOptions(ctx context.Context, p PNode, cfg cluster.Config, estRows map[PNode]float64, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	qm := metrics.NewQuery()
	registerOps(qm, p, estRows, opts.CorrRows)
	// The run's payload slabs go back to their pools on every exit path,
	// once the answer has been copied out of them (part.rows, the top
	// estimates): pool.Run returns only after every task it started has
	// finished, so no task still holds one.
	mem := newLedger()
	defer mem.release()
	ex := &executor{run: cluster.NewRun(cfg), qm: qm, batch: resolveBatch(opts.BatchSize), ctx: ctx, sc: opts.SampleCache, cacheEpoch: opts.CacheEpoch, mem: mem}
	t0 := time.Now()
	s, err := ex.exec(p)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(s, "final")
	s.stage.Final = true
	total := 0
	for i := range s.parts {
		total += s.parts[i].N
	}
	rows := make([]table.Row, 0, total)
	for i := range s.parts {
		part := &s.parts[i]
		rows = append(rows, part.rows()...)
		s.stage.AddOutput(i, int64(part.N), part.bytes)
		ex.run.JobOutputBytes += part.bytes
	}
	execSeconds := time.Since(t0).Seconds()

	var peak float64
	var scanned, partsScanned int64
	for _, op := range qm.Ops() {
		t := op.Total()
		if t.PeakBytes > peak {
			peak = t.PeakBytes
		}
		if op.Kind == "Scan" {
			scanned += t.RowsOut
			partsScanned += int64(op.Partitions())
		}
	}
	res := &Result{
		Cols:              p.Cols(),
		Rows:              rows,
		Metrics:           ex.run.Finish(),
		Estimates:         ex.topEstimates,
		StageReport:       ex.run.String(),
		PlanText:          FormatPlan(p),
		Stats:             qm,
		PeakInFlightBytes: peak,
		RowsProcessed:     scanned,
		PartitionsScanned: partsScanned,
		ExecSeconds:       execSeconds,
		PoolWaitNanos:     ex.poolWaitNanos,
		PoolTasks:         ex.poolTasks,
		PoolStolen:        ex.poolStolen,
		QueuedNanos:       opts.QueuedNanos,
		AdmittedBytes:     opts.AdmittedBytes,
	}
	res.AnalyzedPlan = FormatAnalyze(p, qm) + fmt.Sprintf(
		"service: queued=%.2fms admitted_bytes=%d pool_wait=%.2fms pool_tasks=%d stolen=%d\n",
		float64(res.QueuedNanos)/1e6, res.AdmittedBytes,
		float64(res.PoolWaitNanos)/1e6, res.PoolTasks, res.PoolStolen)
	return res, nil
}

// registerOps creates one collector per plan node, in pre-order (the
// same order FormatPlan prints), recording sampler configuration so
// pass-rate invariants can be checked against the configured p.
func registerOps(qm *metrics.Query, root PNode, estRows, corrRows map[PNode]float64) {
	var rec func(n PNode, depth int)
	rec = func(n PNode, depth int) {
		est := -1.0
		if v, ok := estRows[n]; ok {
			est = v
		}
		op := qm.Register(n, opKind(n), n.Describe(), depth, est)
		if v, ok := corrRows[n]; ok {
			op.CorrRows = v
		}
		if ps, ok := n.(*PSample); ok && ps.Def.Type != lplan.SamplerPassThrough {
			op.SamplerType = ps.Def.Type.String()
			op.SamplerP = ps.Def.P
		}
		for _, k := range n.Kids() {
			rec(k, depth+1)
		}
	}
	rec(root, 0)
}

func opKind(n PNode) string {
	switch n.(type) {
	case *PScan:
		return "Scan"
	case *PFilter:
		return "Filter"
	case *PProject:
		return "Project"
	case *PSample:
		return "Sample"
	case *PExchange:
		return "Exchange"
	case *PHashJoin:
		return "HashJoin"
	case *PHashAgg:
		return "HashAgg"
	case *PSort:
		return "Sort"
	case *PLimit:
		return "Limit"
	case *PUnion:
		return "Union"
	case *PWindow:
		return "Window"
	case *PCachedSample:
		return "CachedSample"
	}
	return fmt.Sprintf("%T", n)
}

type executor struct {
	run          *cluster.Run
	qm           *metrics.Query
	topEstimates []GroupEstimate
	// batch is the streamed pipeline batch size (math.MaxInt when one
	// batch spans the whole partition).
	batch int
	// ctx carries the query's cancellation/deadline signal; it is
	// checked between partition tasks and at batch boundaries.
	ctx context.Context
	// sc resolves PCachedSample nodes (nil = always run fragments
	// lazily); cacheEpoch is folded into its runtime keys.
	sc         *SampleCache
	cacheEpoch uint64
	// Pool telemetry accumulated across this run's parallel regions
	// (written only by the coordinating goroutine).
	poolWaitNanos         int64
	poolTasks, poolStolen int
	// mem is the run's ledger: every payload slab its partitions and
	// routes hold.
	mem *ledger
}

// parallel fans fn out over n partitions on the shared pool,
// accumulating scheduling telemetry and mapping cancellation to the
// typed query errors.
func (ex *executor) parallel(n int, fn func(i int) error) error {
	st, err := pool.Default().Run(ex.ctx, n, fn)
	ex.poolWaitNanos += st.WaitNanos
	ex.poolTasks += st.Tasks
	ex.poolStolen += st.Stolen
	return mapCtxErr(err)
}

// opFor returns the collector for a plan node, registering one on the
// fly for nodes the pre-order walk could not see (never the case for
// planner-emitted plans, but cheap insurance for hand-built ones).
func (ex *executor) opFor(n PNode) *metrics.Op {
	if op := ex.qm.Op(n); op != nil {
		return op
	}
	return ex.qm.Register(n, opKind(n), n.Describe(), 0, -1)
}

// ensureStage opens a stage for a materialized stream so subsequent
// pipelined operators have tasks to charge.
func (ex *executor) ensureStage(s *stream, name string) {
	if s.stage != nil {
		return
	}
	st := ex.run.NewStage(name, len(s.parts), s.deps...)
	for i := range s.parts {
		st.AddInput(i, int64(s.parts[i].N), s.parts[i].bytes)
	}
	s.stage = st
	s.deps = nil
}

// materialize closes the stream's stage, recording task outputs; the
// stream becomes stage-less with a dependency on the closed stage.
func (ex *executor) materialize(s *stream, shuffle bool) {
	if s.stage == nil {
		return
	}
	for i := range s.parts {
		s.stage.AddOutput(i, int64(s.parts[i].N), s.parts[i].bytes)
	}
	if shuffle {
		s.stage.ShuffleOut = true
	}
	s.deps = []int{s.stage.ID}
	s.stage = nil
}

// exec runs a plan node. Non-breakers (scan, filter, project, sample)
// and broadcast join probes fuse into streaming per-partition
// pipelines; breakers take and return whole column-major partitions.
func (ex *executor) exec(n PNode) (*stream, error) {
	if err := ctxErr(ex.ctx); err != nil {
		return nil, err
	}
	if chained(n) {
		return ex.execColPipeline(n)
	}
	switch p := n.(type) {
	case *PExchange:
		return ex.execExchange(p)
	case *PHashJoin:
		return ex.execJoin(p)
	case *PHashAgg:
		return ex.execAgg(p)
	case *PSort:
		return ex.execSort(p)
	case *PLimit:
		return ex.execLimit(p)
	case *PUnion:
		return ex.execUnion(p)
	case *PWindow:
		return ex.execWindow(p)
	}
	return nil, fmt.Errorf("exec: unknown physical node %T", n)
}

// exchangeHashSeed is the HashRow seed that routes rows to exchange
// destinations.
const exchangeHashSeed = 7

// execExchange repartitions its input: row r of source partition i goes
// to destination HashRow(r, keys, 7) % parts, or, without keys, the
// whole of partition i to i % parts. Every destination holds its rows
// in (source partition, row) order.
//
// With one destination per source (no keys, or parts == 1) whole
// partitions move and nothing is hashed. Otherwise the sources are
// routed (routeExchange) and each destination gathers its lanes once,
// into a partition sized exactly from the routed row count.
func (ex *executor) execExchange(p *PExchange) (*stream, error) {
	rt, s, err := ex.routeExchange(p, false)
	if err != nil {
		return nil, err
	}
	op := ex.opFor(p)
	t0 := time.Now()
	out := make([]Part, max(p.Parts, 1))
	if rt != nil {
		if err := ex.parallel(len(out), func(d int) (err error) {
			out[d], err = rt.gather(ex.ctx, d)
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		rows, bytes := make([]int64, len(out)), make([]float64, len(out))
		for d := range out {
			var group []Part
			for i := d; i < len(s.parts); i += len(out) {
				group = append(group, s.parts[i])
			}
			out[d] = concatParts(ex.mem, group, len(p.In.Cols()))
			rows[d], bytes[d] = int64(out[d].N), out[d].bytes
		}
		noteExchange(op, rows, bytes)
	}
	op.AddWall(time.Since(t0))
	return &stream{parts: out, deps: s.deps}, nil
}

// noteExchange records what each destination of an exchange received.
func noteExchange(op *metrics.Op, rows []int64, bytes []float64) {
	op.Grow(len(rows))
	var inRows int64
	for d, n := range rows {
		inRows += n
		sl := op.Slot(d)
		sl.RowsOut += n
		if n > 0 {
			sl.NoteBatch(bytes[d])
		}
	}
	op.Slot(0).RowsIn += inRows
}

// routes is a keyed exchange before a lane is copied: the materialized
// source partitions and, for every batch-sized window of every source,
// the window's lanes grouped by destination. An aggregate folds the
// routed lanes where they lie (execAggRouted); every other consumer
// gathers them once (gather).
type routes struct {
	mem                  *ledger
	srcs                 []Part
	width, parts, window int
	// lanes[i] permutes source i's lanes window by window: the stretch
	// [w*window, w*window+n) lists window w's lanes, window-relative,
	// destination 0's first (in lane order), then destination 1's, ...;
	// offs[i][w*(parts+1)+d] is where destination d's run starts in it.
	lanes [][]int32
	offs  [][]int32
	// hashes[i] holds the routing hash of each of source i's lanes, kept
	// only for an aggregate grouped on the exchange keys: the hash is its
	// group hash (keyTable shares the seed). Nil when not kept.
	hashes [][]uint64
	// rows and bytes total each destination's lanes: the N and the
	// accounted bytes of the partition gathering them would build.
	rows  []int64
	bytes []float64
}

// sel returns the lanes of window w of source i bound for destination d.
func (rt *routes) sel(i, w, d int) []int32 {
	off := rt.offs[i][w*(rt.parts+1)+d:]
	return rt.lanes[i][w*rt.window:][off[0]:off[1]]
}

// routeExchange runs the exchange's input to materialized partitions,
// closing their stage as shuffled output, and, when rows of one source
// go to several destinations, routes them: one task per source hashes
// the key vectors densely, window by window, and counting-sorts each
// window's lanes by destination. Without keys or with one destination
// whole partitions move and the routes are nil. With keep the routes
// hold every lane's hash (routes.hashes).
func (ex *executor) routeExchange(p *PExchange, keep bool) (*routes, *stream, error) {
	var keyIdx []int
	if len(p.Keys) > 0 {
		cm := buildColMap(p.In.Cols())
		keyIdx = make([]int, len(p.Keys))
		for i, id := range p.Keys {
			pos, ok := cm[id]
			if !ok {
				return nil, nil, fmt.Errorf("exec: exchange key #%d not available", id)
			}
			keyIdx[i] = pos
		}
	}
	s, err := ex.exec(p.In)
	if err != nil {
		return nil, nil, err
	}
	ex.ensureStage(s, "exchange-src")
	ex.materialize(s, true)
	if !p.routed() {
		return nil, s, nil
	}
	op := ex.opFor(p)
	t0 := time.Now()
	rt, err := routeParts(ex.parallel, ex.mem, s.parts, len(p.In.Cols()), keyIdx, p.Parts, ex.batch, keep)
	if err != nil {
		return nil, nil, err
	}
	noteExchange(op, rt.rows, rt.bytes)
	op.AddWall(time.Since(t0))
	return rt, s, nil
}

// routeParts routes srcs, width columns wide, on the key columns keyIdx
// to parts destinations in windows of at most window lanes, one task
// per source under fan, keeping the lane hashes with keep. The routing
// arrays, and the partitions gather builds, are slabs of mem.
func routeParts(fan func(int, func(int) error) error, mem *ledger, srcs []Part, width int, keyIdx []int, parts, window int, keep bool) (*routes, error) {
	longest := 1
	for i := range srcs {
		longest = max(longest, srcs[i].N)
	}
	rt := &routes{
		mem: mem, srcs: srcs, width: width, parts: parts, window: min(window, longest),
		lanes: make([][]int32, len(srcs)), offs: make([][]int32, len(srcs)),
		rows: make([]int64, parts), bytes: make([]float64, parts),
	}
	if keep {
		rt.hashes = make([][]uint64, len(srcs))
	}
	// Each source task totals its own stretch of rows and bytes.
	rows, bytes := make([]int64, len(srcs)*parts), make([]float64, len(srcs)*parts)
	if err := fan(len(srcs), func(i int) error {
		rt.route(i, keyIdx, rows[i*parts:][:parts], bytes[i*parts:][:parts])
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range rows {
		rt.rows[i%parts] += rows[i]
		rt.bytes[i%parts] += bytes[i]
	}
	return rt, nil
}

// route fills lanes[i] and offs[i] (and hashes[i] when kept) and adds
// what each destination receives from source i to rows and bytes. A
// string key whose dictionary is no longer than the source hashes once
// per dictionary code.
//
//hot:exchange routing, per window
func (rt *routes) route(i int, keyIdx []int, rows []int64, bytes []float64) {
	src, parts, mod := &rt.srcs[i], rt.parts, uint64(rt.parts)
	lanes := slab[int32](rt.mem, src.N)
	offs := slab[int32](rt.mem, ((src.N+rt.window-1)/rt.window)*(parts+1))
	clear(offs) // the windows' destination counts start at zero
	next := make([]int32, parts)
	keys := make([]Vector, len(keyIdx))
	codes := make([][]uint64, len(keyIdx))
	for k, ci := range keyIdx {
		if cv := &src.Cols[ci]; !cv.Any && cv.Kind == table.KindString && len(cv.Dict) <= src.N {
			codes[k] = dictHashes(cv.Dict)
		}
	}
	var kept []uint64
	if rt.hashes != nil {
		kept = slab[uint64](rt.mem, src.N)
		rt.hashes[i] = kept
	}
	var cols []Vector
	dest := slab[uint64](rt.mem, min(rt.window, src.N))
	for w, pos := 0, 0; pos < src.N; w++ {
		n := min(rt.window, src.N-pos)
		for k, ci := range keyIdx {
			keys[k] = window(&src.Cols[ci], pos, n)
		}
		// Destinations overwrite the hashes in place unless they are kept.
		dest = dest[:n]
		hs := dest
		if kept != nil {
			hs = kept[pos : pos+n]
		}
		hashKeys(hs, keys, codes, exchangeHashSeed, nil, n)
		off := offs[w*(parts+1):][:parts+1]
		for j, h := range hs {
			d := h % mod
			dest[j] = d
			off[d+1]++
		}
		for d := 0; d < parts; d++ {
			next[d] = off[d]
			off[d+1] += off[d]
		}
		out := lanes[pos : pos+n]
		for j, d := range dest {
			out[next[d]] = int32(j)
			next[d]++
		}
		cols = src.window(cols[:0], pos, n)
		for d := 0; d < parts; d++ {
			if sel := out[off[d]:off[d+1]]; len(sel) > 0 {
				rows[d] += int64(len(sel))
				bytes[d] += liveBytes(cols, sel)
			}
		}
		pos += n
	}
	rt.lanes[i], rt.offs[i] = lanes, offs
}

// gather builds destination d's partition: its lanes of every source, in
// (source, lane) order, appended once into columns of their final size.
//
//hot:exchange gather, per destination
func (rt *routes) gather(ctx context.Context, d int) (Part, error) {
	pb := newPartBuilder(rt.mem, rt.width, int(rt.rows[d]))
	var cols []Vector
	for i := range rt.srcs {
		if err := ctxErr(ctx); err != nil {
			return Part{}, err
		}
		src := &rt.srcs[i]
		for w, pos := 0, 0; pos < src.N; w++ {
			n := min(rt.window, src.N-pos)
			if sel := rt.sel(i, w, d); len(sel) > 0 {
				cols = src.window(cols[:0], pos, n)
				pb.appendLanes(cols, sel, n, src.W[pos:pos+n])
			}
			pos += n
		}
	}
	return pb.finishSized(rt.bytes[d]), nil
}

// joinSpec is a hash join's probe setup, shared read-only by the tasks
// that probe: the key positions on both inputs and, for a broadcast
// join, the gathered build side and the one table over it.
type joinSpec struct {
	p          *PHashJoin
	lIdx, rIdx []int
	side       Part
	bt         *joinTable
}

// newJoinSpec resolves p's keys and, given the broadcast build side,
// builds its table on mem.
func newJoinSpec(mem *ledger, p *PHashJoin, side *Part) (*joinSpec, error) {
	js := &joinSpec{p: p}
	var err error
	if js.lIdx, err = keyPositions(p.Left, p.LeftKeys, "left join key"); err != nil {
		return nil, err
	}
	if js.rIdx, err = keyPositions(p.Right, p.RightKeys, "right join key"); err != nil {
		return nil, err
	}
	if side != nil {
		js.side = *side
		js.bt = buildJoinTable(mem, side, js.rIdx)
	}
	return js, nil
}

// keyPositions resolves key column ids to positions in n's output.
func keyPositions(n PNode, keys []lplan.ColumnID, what string) ([]int, error) {
	cm := buildColMap(n.Cols())
	idx := make([]int, len(keys))
	for i, id := range keys {
		pos, ok := cm[id]
		if !ok {
			return nil, fmt.Errorf("exec: %s #%d not available", what, id)
		}
		idx[i] = pos
	}
	return idx, nil
}

// newProbe builds task's probe of bt over child's batches, its output
// builders on mem, and charges the build rows the task reads to its
// slot.
func (js *joinSpec) newProbe(ctx context.Context, mem *ledger, child colOperator, bt *joinTable, st *cluster.Stage, task int, slot *metrics.Slot) (*colProbeOp, error) {
	width := len(js.p.Left.Cols()) + len(bt.cols)
	o := &colProbeOp{ctx: ctx, child: child, js: js, bt: bt, outer: js.p.Kind == lplan.LeftOuterJoin,
		st: st, task: task, slot: slot, jk: newJoinKeys(len(js.lIdx)), out: newPartBuilder(mem, width, 0)}
	if js.p.Residual != nil {
		kern, err := compileColKernel(js.p.Residual, buildColMap(js.p.Cols()), mem)
		if err != nil {
			return nil, err
		}
		o.resid = &joinResidual{kern: kern, cand: newPartBuilder(mem, width, 0)}
	}
	slot.RowsIn += int64(len(bt.next))
	slot.BuildRows += int64(len(bt.next))
	return o, nil
}

// execJoin runs a co-partitioned hash join (a broadcast join probes
// inside the fused chain, colProbeOp). Both inputs arrive materialized
// behind exchanges and co-partitioned on the join keys; the join opens a
// stage reading both, and each task builds the table over its co-located
// build partition and drains its probe partition through the probe
// operator into its output partition.
func (ex *executor) execJoin(p *PHashJoin) (*stream, error) {
	right, err := ex.exec(p.Right)
	if err != nil {
		return nil, err
	}
	js, err := newJoinSpec(ex.mem, p, nil)
	if err != nil {
		return nil, err
	}
	left, err := ex.exec(p.Left)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(left, "join-left-src")
	ex.materialize(left, false)
	ex.ensureStage(right, "join-right-src")
	ex.materialize(right, false)
	if len(left.parts) != len(right.parts) {
		return nil, fmt.Errorf("exec: join inputs have %d vs %d partitions", len(left.parts), len(right.parts))
	}
	deps := append(append([]int{}, left.deps...), right.deps...)
	st := ex.run.NewStage("join", len(left.parts), deps...)
	out := make([]Part, len(left.parts))
	op := ex.opFor(p)
	op.Grow(len(left.parts))
	width, hint := len(p.Cols()), estHint(op.EstRows, len(out))
	if err := ex.parallel(len(left.parts), func(i int) error {
		lp, rp := &left.parts[i], &right.parts[i]
		st.AddInput(i, int64(lp.N+rp.N), lp.bytes+rp.bytes)
		sl := op.Slot(i)
		t0 := time.Now()
		bt := buildJoinTable(ex.mem, rp, js.rIdx)
		probe, err := js.newProbe(ex.ctx, ex.mem, &partSource{p: lp, size: ex.batch}, bt, st, i, sl)
		if err != nil {
			return err
		}
		// Without an estimate, room for one output row per probe row.
		pb := newPartBuilder(ex.mem, width, cmp.Or(hint, lp.N))
		pb.share = true
		if err := pull(ex.ctx, probe, pb.appendBatch); err != nil {
			return err
		}
		out[i] = pb.finish()
		// The task's wall is its build, probe and drain; the probe's own
		// share, already on the slot, is part of it.
		sl.WallNanos = int64(time.Since(t0))
		return nil
	}); err != nil {
		return nil, err
	}
	return &stream{parts: out, stage: st}, nil
}

func appendDep(deps []int, more []int) []int {
	for _, d := range more {
		found := false
		for _, e := range deps {
			if e == d {
				found = true
				break
			}
		}
		if !found {
			deps = append(deps, d)
		}
	}
	return deps
}

func (ex *executor) execSort(p *PSort) (*stream, error) {
	s, err := ex.exec(p.In)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(s, "sort")
	cm := buildColMap(p.In.Cols())
	idx := make([]int, len(p.Keys))
	for i, k := range p.Keys {
		pos, ok := cm[k.Col]
		if !ok {
			return nil, fmt.Errorf("exec: sort key #%d not available", k.Col)
		}
		idx[i] = pos
	}
	// Sort keys with their input positions resolved once, outside the
	// comparator: the hot comparison loop does no colMap lookups.
	type sortKey struct {
		pos  int
		desc bool
	}
	keys := make([]sortKey, len(p.Keys))
	for i, k := range p.Keys {
		keys[i] = sortKey{pos: idx[i], desc: k.Desc}
	}
	op := ex.opFor(p)
	op.Grow(len(s.parts))
	t0 := time.Now()
	// Partitions are independent: sort them on the shared pool like
	// join/agg fan-outs (slot and stage accounting are index-disjoint).
	if err := ex.parallel(len(s.parts), func(pi int) error {
		part := &s.parts[pi]
		sl := op.Slot(pi)
		sl.RowsIn += int64(part.N)
		sl.RowsOut += int64(part.N)
		if part.N > 0 {
			sl.NoteBatch(part.bytes)
		}
		n := part.N
		if n < 2 {
			return nil
		}
		// The comparator reads whole rows through a local view; the sort
		// orders a permutation and the output gathers columns by it.
		rows := part.rows()
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.SliceStable(perm, func(a, b int) bool {
			ra, rb := rows[perm[a]], rows[perm[b]]
			for _, k := range keys {
				c := ra[k.pos].Compare(rb[k.pos])
				if k.desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			// Deterministic tie-break on the whole row.
			return table.CompareRows(ra, rb) < 0
		})
		s.parts[pi] = part.gather(ex.mem, perm)
		s.stage.AddCPU(pi, float64(n)*logf(n))
		return nil
	}); err != nil {
		return nil, err
	}
	op.AddWall(time.Since(t0))
	return s, nil
}

func logf(n int) float64 {
	l := 0.0
	for m := n; m > 1; m >>= 1 {
		l++
	}
	return l + 1
}

func (ex *executor) execLimit(p *PLimit) (*stream, error) {
	s, err := ex.exec(p.In)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(s, "limit")
	op := ex.opFor(p)
	op.Grow(len(s.parts))
	remaining := p.N
	for i := range s.parts {
		n := s.parts[i].N
		if int64(n) > remaining {
			s.parts[i] = s.parts[i].head(int(remaining))
		}
		remaining -= int64(s.parts[i].N)
		sl := op.Slot(i)
		sl.RowsIn += int64(n)
		sl.RowsOut += int64(s.parts[i].N)
		if s.parts[i].N > 0 {
			sl.NoteBatch(s.parts[i].bytes)
		}
	}
	return s, nil
}

func (ex *executor) execUnion(p *PUnion) (*stream, error) {
	var parts []Part
	var deps []int
	for _, in := range p.Ins {
		s, err := ex.exec(in)
		if err != nil {
			return nil, err
		}
		ex.ensureStage(s, "union-src")
		ex.materialize(s, false)
		parts = append(parts, s.parts...)
		deps = appendDep(deps, s.deps)
	}
	op := ex.opFor(p)
	op.Grow(len(parts))
	for i := range parts {
		sl := op.Slot(i)
		sl.RowsIn += int64(parts[i].N)
		sl.RowsOut += int64(parts[i].N)
		if parts[i].N > 0 {
			sl.NoteBatch(parts[i].bytes)
		}
	}
	return &stream{parts: parts, deps: deps}, nil
}
