// Package quickr is a Go implementation of Quickr (Kandula et al.,
// SIGMOD 2016): a big-data query engine that lazily approximates
// complex ad-hoc queries by injecting samplers into the query plan at
// optimization time, with no pre-existing samples required.
//
// The engine parses a large SQL subset, optimizes it with a cost-based
// optimizer in which samplers are first-class operators (the ASALQA
// algorithm), and executes the plan on an in-memory partitioned runtime
// that also simulates cluster costs, so every run reports machine-hours,
// runtime, intermediate data, shuffled data and effective passes over
// the data alongside the (real) answer.
//
// Basic usage:
//
//	eng := quickr.New()
//	eng.CreateTable("sales", []quickr.Column{
//	    {Name: "item", Type: quickr.Int},
//	    {Name: "amount", Type: quickr.Float},
//	}, 4)
//	eng.Insert("sales", rows)
//	exact, _ := eng.Exec("SELECT item, SUM(amount) FROM sales GROUP BY item")
//	approx, _ := eng.ExecApprox("SELECT item, SUM(amount) FROM sales GROUP BY item")
package quickr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"quickr/internal/accuracy"
	"quickr/internal/catalog"
	"quickr/internal/cluster"
	"quickr/internal/core"
	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/opt"
	"quickr/internal/plancheck"
	"quickr/internal/pool"
	"quickr/internal/sql"
	"quickr/internal/stats"
	"quickr/internal/table"
)

// Typed errors a context-interrupted or failed query returns
// (re-exported from the executor so callers need not import internal
// packages).
var (
	// ErrCanceled is returned when the query's context was canceled;
	// cancellation takes effect within one executor batch boundary.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadline is returned when the query's context deadline passed.
	ErrDeadline = exec.ErrDeadline
	// ErrInternal is returned, wrapped with the panic value and where it
	// was raised, when an executor task panicked: the query fails, the
	// engine keeps serving.
	ErrInternal = exec.ErrInternal
)

// DefaultMemoryBudget is the admission gate's default byte budget: the
// total estimated in-flight bytes of concurrently executing queries is
// kept below this, and over-budget queries queue (FIFO) instead of
// running immediately.
const DefaultMemoryBudget int64 = 256 << 20

// DefaultSampleCacheBytes is the byte budget of the sample cache New
// installs: repeated queries replay the samples earlier runs drew
// (SetSampleCache).
const DefaultSampleCacheBytes int64 = 64 << 20

// ColType is a column type for CreateTable.
type ColType int

// Column types.
const (
	Int ColType = iota
	Float
	String
	Bool
)

// Column defines one table column.
type Column struct {
	Name string
	Type ColType
}

// Engine is a Quickr database instance.
//
// An Engine is safe for concurrent use: any number of goroutines may
// call Exec/ExecApprox (and their Context variants) simultaneously —
// they share the process-wide worker pool, the byte-budget admission
// gate, and the engine's prepared-plan cache. Settings calls (Set*) are
// safe at any time, in-flight queries included: a query runs start to
// finish under the one configuration snapshot it loaded when it
// started, and a settings call takes effect for queries that start
// after it returns. Data definition and loads (CreateTable, Insert,
// RegisterStored, SetPrimaryKey) invalidate cached plans the same way;
// queries that overlap a load may see any prefix of it.
type Engine struct {
	cat *catalog.Catalog

	// cur is the engine's whole configuration. reconfigure is its only
	// publisher; run, Plan and ExecWithSample load it once per call and
	// pass the snapshot down.
	cur atomic.Pointer[settings]
	// writeMu serializes reconfigure's copy-edit-publish.
	writeMu sync.Mutex

	cache *planCache
	gate  *pool.Gate
	// history is the per-engine query-history store; it is internally
	// synchronized and is deliberately NOT epoch-versioned — learned
	// corrections survive settings changes (they describe the data and
	// plan shape, not the engine configuration).
	history *stats.History
}

// settings is one immutable configuration snapshot: everything a plan
// and its execution depend on besides the query and the data. A
// published value is never written again.
type settings struct {
	cfg       cluster.Config
	opts      core.Options
	seed      uint64
	batchSize int
	// historyOn enables the learned estimate-correction loop (query
	// history feeding p selection and EXPLAIN ANALYZE `corrected=`).
	historyOn bool
	// epoch versions everything a prepared plan depends on: it
	// increments on DDL, data loads and every Set* call, and keys the
	// plan cache and the sample cache.
	epoch uint64
}

// New creates an engine with default cluster-simulation and ASALQA
// parameters and a sample cache of DefaultSampleCacheBytes.
func New() *Engine {
	e := &Engine{
		cat:     catalog.New(),
		cache:   newPlanCache(),
		gate:    pool.NewGate(DefaultMemoryBudget),
		history: stats.NewHistory(),
	}
	e.cat.SetSampleStore(exec.NewSampleCache(DefaultSampleCacheBytes))
	e.reconfigure(func(s *settings) {
		*s = settings{
			cfg:       cluster.DefaultConfig(),
			opts:      core.DefaultOptions(),
			historyOn: true,
		}
	})
	return e
}

// reconfigure publishes the current settings with edit applied (nil:
// unchanged, for DDL and loads) under the next epoch, then purges the
// plan cache and the sample cache. Both key on the epoch, so a stale
// entry could never be served — the purge just frees memory promptly
// instead of waiting for LRU pressure.
func (e *Engine) reconfigure(edit func(*settings)) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	var next settings // what New's call starts from
	if cur := e.cur.Load(); cur != nil {
		next = *cur
	}
	if edit != nil {
		edit(&next)
	}
	next.epoch++
	e.cur.Store(&next)
	e.cache.purge()
	if sc := opt.SampleCacheOf(e.cat); sc != nil {
		sc.Purge()
	}
}

// SetSeed re-seeds the engine's sampler randomness. Every run is
// deterministic for a given seed; the default seed 0 reproduces the
// historical per-plan sampler seed sequence.
func (e *Engine) SetSeed(seed uint64) { e.reconfigure(func(s *settings) { s.seed = seed }) }

// SetOptions overrides the ASALQA parameters.
func (e *Engine) SetOptions(o core.Options) { e.reconfigure(func(s *settings) { s.opts = o }) }

// SetBatchSize sets the executor's streaming batch size: the number of
// rows each fused scan→filter→project→sample pipeline hands downstream
// at a time. 0 selects the default (exec.DefaultBatchSize); a negative
// value makes every batch span its whole partition (the in-flight peak
// the streaming peak is compared against). Results are bit-identical
// across batch sizes.
func (e *Engine) SetBatchSize(n int) { e.reconfigure(func(s *settings) { s.batchSize = n }) }

// SetColumnar does nothing but bump the epoch: the columnar chain is
// the executor's only pipeline path.
//
// Deprecated: kept so the benchmark harness compiles; goes with its
// exec.columnar.* points.
func (e *Engine) SetColumnar(bool) { e.reconfigure(nil) }

// SetPrune does nothing but bump the epoch: partition selection is
// gone (DESIGN §12), every scan reads every partition.
//
// Deprecated: kept so the benchmark harness compiles; goes with its
// exec.prune.* points.
func (e *Engine) SetPrune(bool) { e.reconfigure(nil) }

// SetHistoryLearning toggles the learned estimate-correction loop:
// when on (the default), every run records its actuals into the
// query-history store and later runs of the same plan fingerprint blend
// the learned corrections into contract p selection and EXPLAIN ANALYZE
// (`corrected=`). Turning it off freezes the store (existing entries
// are kept but neither consulted nor updated).
func (e *Engine) SetHistoryLearning(on bool) { e.reconfigure(func(s *settings) { s.historyOn = on }) }

// SetSampleCache sets the byte budget of hot-sample reuse; New starts
// with DefaultSampleCacheBytes. The optimizer wraps each cacheable
// sampler fragment (a real sampler over filters/projects over one
// base-table scan) in a cached-sample node, and the executor
// materializes the fragment's weighted output (column-major) on first
// execution and replays it on repeats, skipping the base-table scan
// entirely. Cached rows carry the exact per-row Horvitz–Thompson
// weights the lazy path would produce, so answers and confidence
// intervals are bit-identical warm or cold. Entries are keyed by
// fragment fingerprint, table version and config epoch — Appends and
// Set* calls strand stale entries rather than serving them — and
// evicted LRU under the byte budget. The cache belongs to the engine's
// catalog, beside its statistics, so a plan built over Catalog() shares
// it. Each call starts an empty cache; a budget < 1 turns it off, so
// every run draws its own sample as the paper's lazy system does. The
// CLI flag `quickr -sample-cache` sets the same budget.
func (e *Engine) SetSampleCache(bytes int64) {
	var sc catalog.SampleStore // nil, not a nil *exec.SampleCache, turns it off
	if bytes >= 1 {
		sc = exec.NewSampleCache(bytes)
	}
	e.reconfigure(func(*settings) { e.cat.SetSampleStore(sc) })
}

// CreateTable registers an empty table with the given columns, split
// into parts partitions.
func (e *Engine) CreateTable(name string, cols []Column, parts int) error {
	sc := &table.Schema{}
	for _, c := range cols {
		var k table.Kind
		switch c.Type {
		case Int:
			k = table.KindInt
		case Float:
			k = table.KindFloat
		case String:
			k = table.KindString
		case Bool:
			k = table.KindBool
		default:
			return fmt.Errorf("quickr: unknown column type %d", c.Type)
		}
		sc.Cols = append(sc.Cols, table.Column{Name: c.Name, Kind: k})
	}
	e.cat.Register(table.New(name, sc, parts))
	e.reconfigure(nil)
	return nil
}

// Insert appends rows (of Go values: int/int64, float64, string, bool,
// nil) to a table, spreading them round-robin over partitions. Every row
// holds one value per column of the table that fits it by
// table.Schema.Fit: NULL, a value of the column's declared kind, or an
// int, which widens into a Float column. Any other value is a
// *KindError. Every row is converted and checked before any is
// appended, so a failed Insert leaves the table as it was.
func (e *Engine) Insert(name string, rows [][]any) error {
	t, err := e.cat.Table(name)
	if err != nil {
		return err
	}
	conv := make([]table.Row, len(rows))
	for i, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("quickr: row %d has %d values, table %s has %d columns", i, len(r), name, t.Schema.Len())
		}
		conv[i] = make(table.Row, len(r))
		for j, v := range r {
			val, err := toValue(v)
			if err != nil {
				return fmt.Errorf("quickr: row %d col %d: %w", i, j, err)
			}
			var ok bool
			if conv[i][j], ok = t.Schema.Fit(j, val); !ok {
				col := t.Schema.Cols[j]
				return &KindError{Row: i, Column: col.Name, Want: col.Kind.String(), Got: val.Kind().String()}
			}
		}
	}
	e.appendRows(t, conv)
	return nil
}

// appendRows appends rows that fit t's schema round-robin over its
// partitions, then reconfigures: loads change the cardinalities cached
// plans were costed with.
func (e *Engine) appendRows(t *table.Table, rows []table.Row) {
	for i, row := range rows {
		t.Append(i, row)
	}
	e.reconfigure(nil)
}

// KindError is Insert's error for a value whose kind does not match
// its column's declared type. Nothing of the insert is stored.
type KindError struct {
	Row    int    // index of the row in the Insert call
	Column string // the column's name
	Want   string // the column's declared kind
	Got    string // the value's kind
}

func (e *KindError) Error() string {
	return fmt.Sprintf("quickr: row %d column %s: %s value in a %s column", e.Row, e.Column, e.Got, e.Want)
}

func toValue(v any) (table.Value, error) {
	switch x := v.(type) {
	case nil:
		return table.Null, nil
	case int:
		return table.NewInt(int64(x)), nil
	case int64:
		return table.NewInt(x), nil
	case float64:
		return table.NewFloat(x), nil
	case string:
		return table.NewString(x), nil
	case bool:
		return table.NewBool(x), nil
	case table.Value:
		return x, nil
	}
	return table.Value{}, fmt.Errorf("unsupported value type %T", v)
}

// SetPrimaryKey declares a table's primary key (used to recognize
// foreign-key joins with dimension tables).
func (e *Engine) SetPrimaryKey(tableName string, cols ...string) {
	e.cat.SetPrimaryKey(tableName, cols...)
	e.reconfigure(nil)
}

// RegisterStored registers a pre-built internal table (used by the
// bundled data generators and benchmarks).
func (e *Engine) RegisterStored(t *table.Table, pk ...string) {
	e.cat.Register(t)
	if len(pk) > 0 {
		e.cat.SetPrimaryKey(t.Name, pk...)
	}
	e.reconfigure(nil)
}

// Catalog exposes the underlying catalog (for the bundled experiment
// harness).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Exec runs the query exactly (the Baseline plan: same optimizer, no
// samplers).
func (e *Engine) Exec(query string) (*Result, error) {
	return e.run(context.Background(), query, false)
}

// ExecApprox runs the query through ASALQA: if an accuracy-feasible
// sampled plan is cheaper, it executes with samplers and the result
// carries per-group estimates and standard errors; otherwise the exact
// plan runs and Result.Unapproximable is set.
func (e *Engine) ExecApprox(query string) (*Result, error) {
	return e.run(context.Background(), query, true)
}

// ExecContext is Exec honoring a context: the query stops at the next
// executor batch boundary once ctx is canceled or its deadline passes,
// returning ErrCanceled or ErrDeadline. The context also bounds time
// spent queued at the admission gate.
func (e *Engine) ExecContext(ctx context.Context, query string) (*Result, error) {
	return e.run(ctx, query, false)
}

// ExecApproxContext is ExecApprox honoring a context (see ExecContext).
func (e *Engine) ExecApproxContext(ctx context.Context, query string) (*Result, error) {
	return e.run(ctx, query, true)
}

// run loads the configuration snapshot once; every contract rung and
// every phase of every attempt below sees that one configuration and
// that one epoch.
func (e *Engine) run(ctx context.Context, query string, approx bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	s := e.cur.Load()
	if stmt.Contract != nil {
		return e.runContract(ctx, s, stmt, approx)
	}
	return e.runStmt(ctx, s, stmt, approx, 0)
}

// runStmt executes one parsed statement at one configuration point.
// minP > 0 forces a contract ladder rung (a floor on every sampler's
// probability); 0 leaves ASALQA's own choice. Every successful run
// feeds its actuals into the query-history store, and runs whose
// fingerprint already has history get corrected cardinality estimates
// in EXPLAIN ANALYZE.
func (e *Engine) runStmt(ctx context.Context, s *settings, stmt *sql.SelectStmt, approx bool, minP float64) (*Result, error) {
	prep, cached, err := e.prepareCachedStmt(s, stmt, approx, minP)
	if err != nil {
		return nil, err
	}

	// Learned corrections: when this plan fingerprint has history, show
	// the corrected cardinalities next to the optimizer's estimates.
	fp := planFingerprint(stmt, approx)
	var corr map[exec.PNode]float64
	if s.historyOn {
		if qh, ok := e.history.Lookup(fp); ok {
			metrics.HistoryHits.Add(1)
			corr = correctedRows(prep, qh)
		}
	}

	// Admission control: reserve the plan's estimated in-flight bytes,
	// queueing (FIFO) while concurrent queries hold the budget.
	metrics.ActiveQueries.Add(1)
	defer metrics.ActiveQueries.Add(-1)
	adm, err := e.gate.Acquire(ctx, exec.EstimateAdmissionBytes(prep.physical, prep.ests))
	if err != nil {
		return nil, exec.MapCtxErr(err)
	}
	defer e.gate.Release(adm)

	// The snapshot's epoch keys the sample cache: a reconfigure during
	// this run strands its entries under the old epoch rather than ever
	// serving them stale.
	res, err := exec.RunWithOptions(ctx, prep.physical, s.cfg, prep.ests, exec.Options{
		BatchSize:     s.batchSize,
		QueuedNanos:   adm.QueuedNanos,
		AdmittedBytes: adm.Bytes,
		CorrRows:      corr,
		CacheEpoch:    s.epoch,
	})
	if err != nil {
		return nil, err
	}
	if s.historyOn {
		e.recordHistory(fp, prep, res)
	}
	out := newResult(res, prep)
	out.PlanCached = cached
	return out, nil
}

// prepareCachedStmt returns the cached prepared plan for the normalized
// statement at (mode, epoch, minP) — optimizing and caching on miss.
// The contract clause is part of the normalized text, so contract and
// non-contract renderings of the same query cache separately.
func (e *Engine) prepareCachedStmt(s *settings, stmt *sql.SelectStmt, approx bool, minP float64) (*prepared, bool, error) {
	key := planKey{sql: stmt.String(), approx: approx, epoch: s.epoch, minP: minP}
	if prep, ok := e.cache.get(key); ok {
		return prep, true, nil
	}
	prep, err := e.prepareStmt(s, stmt, approx, minP)
	if err != nil {
		return nil, false, err
	}
	e.cache.put(key, prep)
	return prep, false, nil
}

// planFingerprint keys the query-history store: the contract-stripped
// canonical statement text, scoped by execution mode so exact actuals
// never correct approximate estimates (their plans differ).
func planFingerprint(stmt *sql.SelectStmt, approx bool) string {
	bare := *stmt
	bare.Contract = nil
	mode := "exact|"
	if approx {
		mode = "approx|"
	}
	return stats.Fingerprint(mode + bare.String())
}

// correctedRows builds the history-corrected cardinality map for the
// plan's top aggregate (group count) and its input (selectivity) from
// the learned actual/estimated ratios.
func correctedRows(prep *prepared, qh stats.QueryHistory) map[exec.PNode]float64 {
	agg := topAggOf(prep.physical)
	if agg == nil {
		return nil
	}
	corr := map[exec.PNode]float64{}
	if qh.GroupRatio > 0 {
		if est, ok := prep.ests[exec.PNode(agg)]; ok {
			corr[agg] = est * qh.GroupRatio
		}
	}
	if qh.SelRatio > 0 {
		if est, ok := prep.ests[agg.In]; ok {
			corr[agg.In] = est * qh.SelRatio
		}
	}
	if len(corr) == 0 {
		return nil
	}
	return corr
}

// topAggOf returns the plan's Top hash aggregate, or nil.
func topAggOf(root exec.PNode) *exec.PHashAgg {
	var top *exec.PHashAgg
	exec.WalkP(root, func(n exec.PNode) {
		if a, ok := n.(*exec.PHashAgg); ok && a.Top && top == nil {
			top = a
		}
	})
	return top
}

// recordHistory folds one successful run's actuals into the history
// store: processing rate, selectivity and group-count estimate ratios
// at the top aggregate, and sampler pass-rate ratio.
func (e *Engine) recordHistory(fp string, prep *prepared, res *exec.Result) {
	obs := stats.Observation{}
	if res.ExecSeconds > 0 && res.RowsProcessed > 0 {
		obs.RowsPerSec = float64(res.RowsProcessed) / res.ExecSeconds
	}
	if agg := topAggOf(prep.physical); agg != nil && res.Stats != nil {
		if op := res.Stats.Op(agg.In); op != nil {
			if est, ok := prep.ests[agg.In]; ok && est > 0 {
				if actual := op.Total().RowsOut; actual > 0 {
					obs.SelRatio = float64(actual) / est
				}
			}
		}
		if op := res.Stats.Op(exec.PNode(agg)); op != nil {
			if est, ok := prep.ests[exec.PNode(agg)]; ok && est > 0 {
				if actual := op.Total().RowsOut; actual > 0 {
					obs.GroupRatio = float64(actual) / est
				}
			}
		}
	}
	e.history.Record(fp, obs)
	metrics.HistoryRecords.Add(1)
}

// prepared carries everything Plan/Exec produce before execution.
type prepared struct {
	logical        lplan.Node
	physical       exec.PNode
	ests           map[exec.PNode]float64
	sampled        bool
	unapproximable bool
	samplers       []SamplerInfo
	notes          []string
	analysis       *accuracy.Analysis
	optTime        time.Duration
}

// prepareStmt optimizes one statement and verifies both plans it
// produces (internal/plancheck): a violated sampler, universe-pairing,
// weight-propagation or exchange invariant fails the query instead of
// returning a biased answer. minP > 0 floors every sampler's
// probability at a contract ladder rung, and MaxP is raised alongside
// so a rung above the paper's 0.1 default still plans. The checker
// holds every sampler to the same cap ASALQA planned under.
func (e *Engine) prepareStmt(s *settings, stmt *sql.SelectStmt, approx bool, minP float64) (*prepared, error) {
	opts := s.opts
	if minP > 0 {
		opts.MinP = minP
		if opts.MaxP < minP {
			opts.MaxP = minP
		}
	}
	checker := plancheck.Checker{MaxP: opts.MaxP}
	start := time.Now()
	logical, est, err := e.bound(stmt)
	if err != nil {
		return nil, err
	}
	cm := opt.NewCostModel(est, s.cfg)

	p := &prepared{logical: logical}
	var estCfg *exec.EstimatorConfig
	if approx {
		asalqa := core.New(est, cm, opts)
		res, err := asalqa.Place(logical)
		if err != nil {
			return nil, err
		}
		p.logical = res.Plan
		p.sampled = res.Sampled
		p.unapproximable = res.Unapproximable
		p.notes = res.Notes
		for _, sm := range res.Samplers {
			p.samplers = append(p.samplers, SamplerInfo{
				Type:  sm.Def.Type.String(),
				P:     sm.Def.P,
				Delta: sm.Def.Delta,
			})
		}
		if res.Sampled {
			an := accuracy.Analyze(res.Plan)
			p.analysis = an
			estCfg = &exec.EstimatorConfig{Type: an.Type, P: an.P, UniverseCols: an.UniverseCols}
			if an.Type == lplan.SamplerUniverse && len(an.UniverseCols) > 0 {
				// The subspace variance estimator keys on the universe
				// columns at the aggregate input; re-thread them past any
				// pruned projections.
				p.logical = opt.RetainColumns(p.logical, an.UniverseCols)
			}
		}
	}
	if err := checker.LogicalError(p.logical); err != nil {
		return nil, fmt.Errorf("quickr: optimized logical plan is invalid: %w", err)
	}
	planner := &opt.Planner{CM: cm, EstCfg: estCfg, Seed: s.seed}
	physical, err := planner.Plan(p.logical)
	if err != nil {
		return nil, err
	}
	if err := checker.PhysicalError(physical); err != nil {
		return nil, fmt.Errorf("quickr: compiled physical plan is invalid: %w", err)
	}
	if stmt.Contract != nil && stmt.Contract.ErrPct > 0 {
		// Contract-bearing sampled plans must carry an estimator — the
		// realized-CI check is meaningless without one.
		if err := checker.ContractError(physical); err != nil {
			return nil, fmt.Errorf("quickr: contract plan is invalid: %w", err)
		}
	}
	p.physical = physical
	p.ests = planner.Ests
	p.optTime = time.Since(start)
	return p, nil
}

// Plan optimizes without executing and returns plan information.
func (e *Engine) Plan(query string, approx bool) (*PlanInfo, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	p, err := e.prepareStmt(e.cur.Load(), stmt, approx, 0)
	if err != nil {
		return nil, err
	}
	info := &PlanInfo{
		Logical:        lplan.Format(p.logical),
		Physical:       exec.FormatPlan(p.physical),
		Sampled:        p.sampled,
		Unapproximable: approx && p.unapproximable,
		Samplers:       p.samplers,
		Notes:          p.notes,
		OptimizeTime:   p.optTime,
	}
	if p.analysis != nil {
		info.AccuracyTrace = p.analysis.Trace
		info.EffectiveP = p.analysis.P
		info.RootSampler = p.analysis.Type.String()
	}
	return info, nil
}

// PlanInfo describes an optimized plan.
type PlanInfo struct {
	Logical        string
	Physical       string
	Sampled        bool
	Unapproximable bool
	Samplers       []SamplerInfo
	Notes          []string
	AccuracyTrace  []string
	EffectiveP     float64
	RootSampler    string
	OptimizeTime   time.Duration
}

// SamplerInfo summarizes one materialized sampler.
type SamplerInfo struct {
	Type  string
	P     float64
	Delta int
}
