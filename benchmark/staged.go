package main

import (
	"context"
	"fmt"

	"quickr"
	"quickr/internal/accuracy"
	"quickr/internal/catalog"
	"quickr/internal/cluster"
	"quickr/internal/core"
	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/opt"
	"quickr/internal/plancheck"
	"quickr/internal/pool"
	"quickr/internal/sql"
)

// mirror replays a statement through the layers' exported functions in
// the order Engine.prepareStmt and Engine.runStmt call them, under the
// engine's default configuration, with one span around each call. It
// has no plan cache, no query history and no result encoding; what the
// engine spends there is what engine.unattributed_ms reports.
type mirror struct {
	cat  *catalog.Catalog
	gate *pool.Gate
	cfg  cluster.Config
	opts core.Options
}

func newMirror(eng *quickr.Engine) *mirror {
	return &mirror{
		cat:  eng.Catalog(),
		gate: pool.NewGate(quickr.DefaultMemoryBudget),
		cfg:  cluster.DefaultConfig(),
		opts: core.DefaultOptions(),
	}
}

// optInSpans are timed by the mirror but are off in a default engine
// (Engine.SetPlanChecks), so they do not count towards the staged total
// that is compared with the engine's wall.
var optInSpans = map[string]bool{"plancheck.logical": true, "plancheck.physical": true}

// stagedCall is the outcome of one mirrored statement.
type stagedCall struct {
	res      *exec.Result
	sampled  bool
	unapprox bool
	samplers []*lplan.Sample
	effP     float64 // effective end-to-end sampling probability
	root     int     // index of the call's root span
	// violations are what the opt-in plan checker said about the plans.
	// A default engine does not ask it, so they do not fail the call.
	violations []string
}

// call mirrors one statement. minP > 0 forces a contract ladder rung,
// as Engine.runContract does for the attempt it settles on.
func (m *mirror) call(t *tracer, text string, approx bool, seed uint64, minP float64) (*stagedCall, error) {
	request := len(t.spans) // the root span's index names the request
	out := &stagedCall{root: t.begin("query", -1, request)}
	defer t.end(out.root)
	stage := func(name string, fn func() error) error {
		s := t.begin(name, out.root, request)
		err := fn()
		t.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var stmt *sql.SelectStmt
	if err := stage("sql.parse", func() (err error) {
		stmt, err = sql.Parse(text)
		return err
	}); err != nil {
		return nil, err
	}
	opts, checker := m.opts, plancheck.New()
	if minP > 0 {
		opts.MinP = minP
		if opts.MaxP < minP {
			opts.MaxP = minP
		}
		if checker.MaxP < minP {
			checker.MaxP = minP
		}
	}
	var logical lplan.Node
	if err := stage("catalog.bind", func() (err error) {
		logical, err = catalog.NewBinder(m.cat).Bind(stmt)
		return err
	}); err != nil {
		return nil, err
	}
	var est *opt.Estimator
	var cm *opt.CostModel
	_ = stage("opt.normalize", func() error {
		est = opt.NewEstimator(m.cat)
		cm = opt.NewCostModel(est, m.cfg)
		logical = opt.Normalize(logical, est)
		return nil
	})
	var estCfg *exec.EstimatorConfig
	if approx {
		var placed *core.Result
		if err := stage("core.place", func() (err error) {
			placed, err = core.New(est, cm, opts).Place(logical)
			return err
		}); err != nil {
			return nil, err
		}
		logical = placed.Plan
		out.sampled, out.unapprox, out.samplers = placed.Sampled, placed.Unapproximable, placed.Samplers
		if placed.Sampled {
			_ = stage("accuracy.analyze", func() error {
				an := accuracy.Analyze(placed.Plan)
				out.effP = an.P
				estCfg = &exec.EstimatorConfig{Type: an.Type, P: an.P, UniverseCols: an.UniverseCols}
				if an.Type == lplan.SamplerUniverse && len(an.UniverseCols) > 0 {
					logical = opt.RetainColumns(logical, an.UniverseCols)
				}
				return nil
			})
		}
	}
	if err := stage("plancheck.logical", func() error { return checker.LogicalError(logical) }); err != nil {
		out.violations = append(out.violations, err.Error())
	}
	planner := &opt.Planner{CM: cm, EstCfg: estCfg, Seed: seed}
	var physical exec.PNode
	if err := stage("opt.plan", func() (err error) {
		physical, err = planner.Plan(logical)
		if err == nil && stmt.Contract != nil && stmt.Contract.ErrPct > 0 {
			err = checker.ContractError(physical)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("plancheck.physical", func() error { return checker.PhysicalError(physical) }); err != nil {
		out.violations = append(out.violations, err.Error())
	}

	ctx := context.Background()
	var adm pool.Admission
	if err := stage("pool.gate_acquire", func() (err error) {
		adm, err = m.gate.Acquire(ctx, exec.EstimateAdmissionBytes(physical, planner.Ests))
		return err
	}); err != nil {
		return nil, err
	}
	defer m.gate.Release(adm)
	run := t.begin("exec.run", out.root, request)
	res, err := exec.RunWithOptions(ctx, physical, m.cfg, planner.Ests, exec.Options{
		QueuedNanos:   adm.QueuedNanos,
		AdmittedBytes: adm.Bytes,
	})
	t.end(run)
	if err != nil {
		return nil, fmt.Errorf("exec.run: %w", err)
	}
	// Per-operator time, as the executor already exposes it.
	ops := map[string]any{}
	for _, op := range res.Stats.Ops() {
		k := op.Kind + "_us"
		prev, _ := ops[k].(float64)
		ops[k] = prev + float64(op.WallNanos())/1e3
	}
	t.spans[run].Args = ops
	t.spans[out.root].Args = map[string]any{"approx": approx, "sampled": out.sampled}
	out.res = res
	return out, nil
}
