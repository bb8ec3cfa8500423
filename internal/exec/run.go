package exec

import (
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
	parts [][]wrow
	stage *cluster.Stage
	deps  []int
	// cached, when set, is a sample-cache hit awaiting replay: partition
	// i's rows are cached[i] (column-major, shared, read-only) and
	// parts[i] is nil until the consuming chain materializes its output.
	cached []CachedPart
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
	// PartitionsScanned counts the stored partitions scan operators
	// actually read; PartitionsPruned counts the partitions the
	// optimizer's partition-selection pass skipped (0 when pruning is
	// off or no scan was eligible).
	PartitionsScanned int64
	PartitionsPruned  int64
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

// RunInstrumented executes the plan with per-operator metrics
// collection, annotating each operator with the optimizer's estimated
// output cardinality from estRows (keyed by plan-node identity; nil is
// allowed and leaves estimates unknown).
func RunInstrumented(p PNode, cfg cluster.Config, estRows map[PNode]float64) (*Result, error) {
	return RunWithOptions(context.Background(), p, cfg, estRows, Options{})
}

// RunWithOptions is RunInstrumented with a cancellation context and
// execution tuning (batch size, admission echo). The
// context is checked between partition tasks and at every pipeline
// batch boundary; a canceled run returns ErrCanceled (ErrDeadline when
// the deadline passed) after all started partition work has unwound.
func RunWithOptions(ctx context.Context, p PNode, cfg cluster.Config, estRows map[PNode]float64, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	qm := metrics.NewQuery()
	registerOps(qm, p, estRows, opts.CorrRows)
	ex := &executor{run: cluster.NewRun(cfg), qm: qm, batch: resolveBatch(opts.BatchSize), ctx: ctx, sc: opts.SampleCache, cacheEpoch: opts.CacheEpoch}
	t0 := time.Now()
	s, err := ex.exec(p)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(s, "final")
	s.stage.Final = true
	var rows []table.Row
	for i, part := range s.parts {
		var bytes float64
		for _, r := range part {
			bytes += wrowBytes(r)
			rows = append(rows, r.row)
		}
		s.stage.AddOutput(i, int64(len(part)), bytes)
		ex.run.JobOutputBytes += bytes
	}
	execSeconds := time.Since(t0).Seconds()

	var peak float64
	var scanned, partsScanned, partsPruned int64
	for _, op := range qm.Ops() {
		t := op.Total()
		if t.PeakBytes > peak {
			peak = t.PeakBytes
		}
		if op.Kind == "Scan" {
			scanned += t.RowsOut
			partsScanned += int64(op.Partitions())
			partsPruned += t.PartsPruned
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
		PartitionsPruned:  partsPruned,
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
	for i, part := range s.parts {
		if s.cached != nil {
			st.AddInput(i, int64(s.cached[i].Cols.NumRows), s.cached[i].bytes)
			continue
		}
		st.AddInput(i, int64(len(part)), rowsBytes(part))
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
	for i, part := range s.parts {
		s.stage.AddOutput(i, int64(len(part)), rowsBytes(part))
	}
	if shuffle {
		s.stage.ShuffleOut = true
	}
	s.deps = []int{s.stage.ID}
	s.stage = nil
}

// exec runs a plan node. Non-breakers (scan, filter, project, sample)
// fuse into streaming per-partition pipelines; breakers materialize.
func (ex *executor) exec(n PNode) (*stream, error) {
	if err := ctxErr(ex.ctx); err != nil {
		return nil, err
	}
	if !n.Breaker() {
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

func (ex *executor) execExchange(p *PExchange) (*stream, error) {
	s, err := ex.exec(p.In)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(s, "exchange-src")
	ex.materialize(s, true)
	parts := p.Parts
	if parts < 1 {
		parts = 1
	}
	op := ex.opFor(p)
	op.Grow(parts)
	t0 := time.Now()
	var inRows int64
	for _, part := range s.parts {
		inRows += int64(len(part))
	}
	out := make([][]wrow, parts)
	if len(p.Keys) == 0 {
		for i, part := range s.parts {
			out[i%parts] = append(out[i%parts], part...)
		}
	} else {
		cm := buildColMap(p.In.Cols())
		idx := make([]int, len(p.Keys))
		for i, id := range p.Keys {
			pos, ok := cm[id]
			if !ok {
				return nil, fmt.Errorf("exec: exchange key #%d not available", id)
			}
			idx[i] = pos
		}
		for _, part := range s.parts {
			for _, r := range part {
				h := table.HashRow(r.row, idx, 7) % uint64(parts)
				out[h] = append(out[h], r)
			}
		}
	}
	op.Slot(0).RowsIn += inRows
	for i, part := range out {
		sl := op.Slot(i)
		sl.RowsOut += int64(len(part))
		if len(part) > 0 {
			sl.NoteBatch(rowsBytes(part))
		}
	}
	op.AddWall(time.Since(t0))
	return &stream{parts: out, deps: s.deps}, nil
}

// estHint splits an optimizer cardinality estimate across parts tasks
// for buffer preallocation; 0 means "no estimate, caller falls back".
func estHint(est float64, parts int) int {
	if est <= 0 || parts <= 0 {
		return 0
	}
	h := int(est)/parts + 1
	if h > 1<<20 {
		h = 1 << 20
	}
	return h
}

func (ex *executor) execJoin(p *PHashJoin) (*stream, error) {
	right, err := ex.exec(p.Right)
	if err != nil {
		return nil, err
	}
	rightCols := p.Right.Cols()
	rcm := buildColMap(rightCols)
	rIdx := make([]int, len(p.RightKeys))
	for i, id := range p.RightKeys {
		pos, ok := rcm[id]
		if !ok {
			return nil, fmt.Errorf("exec: right join key #%d not available", id)
		}
		rIdx[i] = pos
	}

	left, err := ex.exec(p.Left)
	if err != nil {
		return nil, err
	}
	lcm := buildColMap(p.Left.Cols())
	lIdx := make([]int, len(p.LeftKeys))
	for i, id := range p.LeftKeys {
		pos, ok := lcm[id]
		if !ok {
			return nil, fmt.Errorf("exec: left join key #%d not available", id)
		}
		lIdx[i] = pos
	}

	var residual evalFunc
	if p.Residual != nil {
		f, err := compileExpr(p.Residual, buildColMap(p.Cols()))
		if err != nil {
			return nil, err
		}
		residual = f
	}

	nRightCols := len(rightCols)
	op := ex.opFor(p)
	// Probe-output preallocation from the optimizer's join cardinality
	// estimate (set before the parallel regions; read-only inside).
	estPerTask := estHint(p.EstOutRows, len(left.parts))
	// joinRows probes one partition against a prebuilt (possibly shared,
	// read-only) build table. buildLen is the number of build rows this
	// task reads — the simulated-cluster CPU and per-slot counters charge
	// it exactly as when every task built its own table. Output rows are
	// carved from a per-task arena instead of one make per row.
	joinRows := func(st *cluster.Stage, task int, lpart []wrow, bt *joinTable, buildLen int) []wrow {
		hint := estPerTask
		if hint <= 0 {
			hint = len(lpart)
		}
		out := make([]wrow, 0, hint)
		var ar rowArena
		var outBytes float64
		for _, l := range lpart {
			h := table.HashRow(l.row, lIdx, 3)
			matched := false
			for ri := bt.lookup(h); ri >= 0; ri = bt.next[ri] {
				r := bt.rows[ri]
				if !keysEqual(l.row, lIdx, r.row, rIdx) {
					continue
				}
				combined := ar.alloc(len(l.row) + len(r.row))
				combined = append(combined, l.row...)
				combined = append(combined, r.row...)
				w := l.w * r.w
				if p.SharedUniverseP > 0 {
					// Both inputs carry the same universe sampler: the join
					// output is a p-probability universe sample, not p², so
					// the double-counted 1/p factor is removed (§4.1.3).
					w *= p.SharedUniverseP
				}
				if residual != nil && !truthy(residual(combined)) {
					continue
				}
				wr := newWRow(combined, w)
				outBytes += wr.sz
				out = append(out, wr)
				matched = true
			}
			if !matched && p.Kind == lplan.LeftOuterJoin {
				combined := ar.alloc(len(l.row) + nRightCols)
				combined = append(combined, l.row...)
				for k := 0; k < nRightCols; k++ {
					combined = append(combined, table.Null)
				}
				wr := newWRow(combined, l.w)
				outBytes += wr.sz
				out = append(out, wr)
			}
		}
		st.AddCPU(task, 2*float64(buildLen)+2*float64(len(lpart)))
		sl := op.Slot(task)
		sl.RowsIn += int64(len(lpart) + buildLen)
		sl.RowsOut += int64(len(out))
		sl.BuildRows += int64(buildLen)
		sl.ProbeRows += int64(len(lpart))
		if len(out) > 0 {
			sl.NoteBatch(outBytes)
		}
		return out
	}

	if p.Broadcast {
		// Build side is gathered and replicated to every probe task. The
		// hash table over it is built ONCE (parallel partitioned build)
		// and shared read-only across all probe tasks; the simulated
		// cluster still charges each task for reading the broadcast copy.
		ex.ensureStage(right, "build-src")
		ex.materialize(right, true)
		var buildRows []wrow
		for _, part := range right.parts {
			buildRows = append(buildRows, part...)
		}
		ex.ensureStage(left, "probe")
		left.stage.Deps = appendDep(left.stage.Deps, right.deps)
		bbytes := rowsBytes(buildRows)
		op.Grow(len(left.parts))
		t0 := time.Now()
		bt, err := buildJoinTable(buildRows, rIdx, ex.parallel)
		if err != nil {
			return nil, err
		}
		if err := ex.parallel(len(left.parts), func(i int) error {
			left.stage.AddInput(i, int64(len(buildRows)), bbytes)
			left.parts[i] = joinRows(left.stage, i, left.parts[i], bt, len(buildRows))
			return nil
		}); err != nil {
			return nil, err
		}
		op.AddWall(time.Since(t0))
		return left, nil
	}

	// Partitioned join: children arrive materialized (below exchanges)
	// and co-partitioned; the join opens a new stage reading both. Each
	// task builds the table over its own co-located build partition.
	ex.ensureStage(left, "join-left-src")
	ex.materialize(left, false)
	ex.ensureStage(right, "join-right-src")
	ex.materialize(right, false)
	if len(left.parts) != len(right.parts) {
		return nil, fmt.Errorf("exec: join inputs have %d vs %d partitions", len(left.parts), len(right.parts))
	}
	deps := append(append([]int{}, left.deps...), right.deps...)
	st := ex.run.NewStage("join", len(left.parts), deps...)
	out := make([][]wrow, len(left.parts))
	op.Grow(len(left.parts))
	t0 := time.Now()
	if err := ex.parallel(len(left.parts), func(i int) error {
		inRows := int64(len(left.parts[i]) + len(right.parts[i]))
		inBytes := rowsBytes(left.parts[i]) + rowsBytes(right.parts[i])
		st.AddInput(i, inRows, inBytes)
		bt, err := buildJoinTable(right.parts[i], rIdx, serialFan)
		if err != nil {
			return err
		}
		out[i] = joinRows(st, i, left.parts[i], bt, len(right.parts[i]))
		return nil
	}); err != nil {
		return nil, err
	}
	op.AddWall(time.Since(t0))
	return &stream{parts: out, stage: st}, nil
}

// serialFan runs fn(0..n-1) on the calling goroutine; used for
// per-task join-table builds, which must not re-enter the shared pool
// from inside a pool task.
func serialFan(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
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

func keysEqual(l table.Row, lIdx []int, r table.Row, rIdx []int) bool {
	for i := range lIdx {
		if !l[lIdx[i]].Equal(r[rIdx[i]]) {
			return false
		}
	}
	return true
}

func (ex *executor) execAgg(p *PHashAgg) (*stream, error) {
	if !p.In.Breaker() {
		return ex.execAggColumnar(p)
	}
	s, err := ex.exec(p.In)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(s, "aggregate")
	cm := buildColMap(p.In.Cols())
	partEsts := make([][]GroupEstimate, len(s.parts))
	op := ex.opFor(p)
	op.Grow(len(s.parts))
	t0 := time.Now()
	if err := ex.parallel(len(s.parts), func(i int) error {
		part := s.parts[i]
		r, err := newAggRunner(p, cm)
		if err != nil {
			return err
		}
		for _, w := range part {
			r.add(w.row, w.w)
		}
		rows, ests := r.emit()
		// A grouped aggregate on a non-first partition must not emit the
		// empty-input global row.
		if len(p.GroupCols) == 0 && i > 0 && len(part) == 0 {
			rows, ests = nil, nil
		}
		s.parts[i] = rows
		s.stage.AddCPU(i, 2*float64(len(part)))
		sl := op.Slot(i)
		sl.RowsIn += int64(len(part))
		sl.RowsOut += int64(len(rows))
		if len(rows) > 0 {
			sl.NoteBatch(rowsBytes(rows))
		}
		if p.Top {
			partEsts[i] = ests
		}
		return nil
	}); err != nil {
		return nil, err
	}
	op.AddWall(time.Since(t0))
	if p.Top {
		var allEsts []GroupEstimate
		for _, es := range partEsts {
			allEsts = append(allEsts, es...)
		}
		ex.topEstimates = allEsts
	}
	return s, nil
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
		part := s.parts[pi]
		sl := op.Slot(pi)
		sl.RowsIn += int64(len(part))
		sl.RowsOut += int64(len(part))
		if len(part) > 0 {
			sl.NoteBatch(rowsBytes(part))
		}
		n := len(part)
		sort.SliceStable(part, func(a, b int) bool {
			ra, rb := part[a].row, part[b].row
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
		if n > 1 {
			s.stage.AddCPU(pi, float64(n)*logf(n))
		}
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
	for i, part := range s.parts {
		if int64(len(part)) > remaining {
			s.parts[i] = part[:remaining]
		}
		remaining -= int64(len(s.parts[i]))
		if remaining < 0 {
			remaining = 0
		}
		sl := op.Slot(i)
		sl.RowsIn += int64(len(part))
		sl.RowsOut += int64(len(s.parts[i]))
		if len(s.parts[i]) > 0 {
			sl.NoteBatch(rowsBytes(s.parts[i]))
		}
	}
	return s, nil
}

func (ex *executor) execUnion(p *PUnion) (*stream, error) {
	var parts [][]wrow
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
	for i, part := range parts {
		sl := op.Slot(i)
		sl.RowsIn += int64(len(part))
		sl.RowsOut += int64(len(part))
		if len(part) > 0 {
			sl.NoteBatch(rowsBytes(part))
		}
	}
	return &stream{parts: parts, deps: deps}, nil
}
