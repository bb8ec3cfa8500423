package opt

import (
	"fmt"
	"math"

	"quickr/internal/exec"
	"quickr/internal/lplan"
)

// Planner compiles an optimized logical plan into the physical algebra:
// it places exchanges (stage boundaries), chooses join strategies,
// assigns degrees of parallelism from estimated cardinalities (so a
// sampler's cardinality reduction propagates into cheaper, less
// parallel sub-plans, §A), and wires the Horvitz–Thompson estimator
// configuration into the top aggregate.
type Planner struct {
	CM *CostModel
	// EstCfg configures the top aggregate's estimators (from the
	// accuracy analysis); nil for unsampled plans.
	EstCfg *exec.EstimatorConfig
	// Seed perturbs the per-plan sampler instance seeds so whole runs
	// can be re-randomized from one config knob; 0 (the default)
	// reproduces the historical seed sequence 1,2,3,...
	Seed uint64
	// Ests records the optimizer's estimated output cardinality for
	// every emitted physical node (EXPLAIN ANALYZE compares these
	// against executed counts). Plan initializes it if nil.
	Ests map[exec.PNode]float64

	topAgg     *lplan.Aggregate
	samplerSeq uint64
}

// Plan compiles the logical plan.
func (pl *Planner) Plan(n lplan.Node) (exec.PNode, error) {
	pl.topAgg = findTopAggregate(n)
	if pl.Ests == nil {
		pl.Ests = map[exec.PNode]float64{}
	}
	p, err := pl.compile(n)
	if err == nil && p != nil && SampleCacheOf(pl.CM.Est.Cat) != nil {
		pl.applySampleCache(p)
	}
	return p, err
}

// compile wraps compileNode, tagging the emitted operator with the
// logical node's estimated cardinality.
func (pl *Planner) compile(n lplan.Node) (exec.PNode, error) {
	p, err := pl.compileNode(n)
	if err != nil || p == nil {
		return p, err
	}
	pl.setEst(p, pl.CM.Est.Props(n).Rows)
	return p, nil
}

// setEst records an estimate for a physical node, without overwriting
// one already attached (compileNode tags synthesized exchanges itself).
func (pl *Planner) setEst(p exec.PNode, rows float64) {
	if pl.Ests == nil {
		return
	}
	if _, ok := pl.Ests[p]; !ok {
		pl.Ests[p] = rows
	}
}

// findTopAggregate locates the outermost Aggregate (whose estimates the
// result exposes) by walking down from the root.
func findTopAggregate(n lplan.Node) *lplan.Aggregate {
	for n != nil {
		if a, ok := n.(*lplan.Aggregate); ok {
			return a
		}
		ch := n.Children()
		if len(ch) != 1 {
			return nil
		}
		n = ch[0]
	}
	return nil
}

func (pl *Planner) compileNode(n lplan.Node) (exec.PNode, error) {
	switch x := n.(type) {
	case *lplan.Scan:
		tbl, err := pl.CM.Est.Cat.Table(x.Table)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(x.Cols))
		for i, c := range x.Cols {
			pos := tbl.Schema.Index(c.Name)
			if pos < 0 {
				return nil, fmt.Errorf("opt: column %s missing from table %s", c.Name, x.Table)
			}
			idx[i] = pos
		}
		wIdx := -1
		if x.WeightColumn != "" {
			wIdx = tbl.Schema.Index(x.WeightColumn)
		}
		return &exec.PScan{Tbl: tbl, OutCols: x.Cols, ColIdx: idx, WeightIdx: wIdx}, nil
	case *lplan.Select:
		in, err := pl.compile(x.Input)
		if err != nil {
			return nil, err
		}
		return &exec.PFilter{In: in, Pred: x.Pred}, nil
	case *lplan.Project:
		in, err := pl.compile(x.Input)
		if err != nil {
			return nil, err
		}
		return &exec.PProject{In: in, Exprs: x.Exprs, OutCols: x.Cols}, nil
	case *lplan.Sample:
		in, err := pl.compile(x.Input)
		if err != nil {
			return nil, err
		}
		def := lplan.SamplerDef{Type: lplan.SamplerPassThrough}
		if x.Def != nil {
			def = *x.Def
		}
		pl.samplerSeq++
		seed := pl.samplerSeq
		if pl.Seed != 0 {
			// Mix the config seed in so a different Engine seed draws a
			// different (still deterministic) sampler stream.
			seed = pl.Seed*0x9E3779B97F4A7C15 + pl.samplerSeq
		}
		return &exec.PSample{In: in, Def: def, Seed: seed}, nil
	case *lplan.Join:
		return pl.compileJoin(x)
	case *lplan.Aggregate:
		return pl.compileAgg(x)
	case *lplan.Window:
		return pl.compileWindow(x)
	case *lplan.Sort:
		in, err := pl.compile(x.Input)
		if err != nil {
			return nil, err
		}
		gathered := &exec.PExchange{In: in, Parts: 1}
		pl.setEst(gathered, pl.CM.Est.Props(x.Input).Rows)
		return &exec.PSort{In: gathered, Keys: x.Keys}, nil
	case *lplan.Limit:
		in, err := pl.compile(x.Input)
		if err != nil {
			return nil, err
		}
		if _, isSort := x.Input.(*lplan.Sort); !isSort {
			in = &exec.PExchange{In: in, Parts: 1}
			pl.setEst(in, pl.CM.Est.Props(x.Input).Rows)
		}
		return &exec.PLimit{In: in, N: x.N}, nil
	}
	// UnionAll and the binder's wrapper.
	if len(n.Children()) > 0 {
		if _, ok := n.(*lplan.UnionAll); ok || isUnionLike(n) {
			ins := make([]exec.PNode, len(n.Children()))
			for i, c := range n.Children() {
				p, err := pl.compile(c)
				if err != nil {
					return nil, err
				}
				ins[i] = p
			}
			return &exec.PUnion{Ins: ins, OutCols: n.Columns()}, nil
		}
	}
	return nil, fmt.Errorf("opt: cannot compile logical node %T", n)
}

func isUnionLike(n lplan.Node) bool {
	_, single := n.(interface{ Columns() []lplan.ColumnInfo })
	return single && len(n.Children()) > 1
}

func (pl *Planner) compileJoin(j *lplan.Join) (exec.PNode, error) {
	shared := sharedUniverseP(j)
	// Keys equal in float space may route to two partitions: broadcast.
	if pl.CM.Broadcast(j) || j.FloatSpaceKeys() {
		left, err := pl.compile(j.Left)
		if err != nil {
			return nil, err
		}
		right, err := pl.compile(j.Right)
		if err != nil {
			return nil, err
		}
		return &exec.PHashJoin{
			Kind: j.Kind, Left: left, Right: right,
			LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
			Residual: j.Residual, Broadcast: true,
			SharedUniverseP: shared,
		}, nil
	}
	parts := pl.CM.DOP(math.Max(pl.CM.Est.Props(j.Left).Rows, pl.CM.Est.Props(j.Right).Rows))
	left, err := pl.compile(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := pl.compile(j.Right)
	if err != nil {
		return nil, err
	}
	lx := &exec.PExchange{In: left, Keys: j.LeftKeys, Parts: parts}
	rx := &exec.PExchange{In: right, Keys: j.RightKeys, Parts: parts}
	pl.setEst(lx, pl.CM.Est.Props(j.Left).Rows)
	pl.setEst(rx, pl.CM.Est.Props(j.Right).Rows)
	return &exec.PHashJoin{
		Kind:     j.Kind,
		Left:     lx,
		Right:    rx,
		LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
		Residual: j.Residual, SharedUniverseP: shared,
	}, nil
}

// sharedUniverseP detects the paper's paired-universe-sampler case: both
// join inputs contain universe samplers drawn from the same subspace
// (same seed). Returns the shared probability, or 0.
func sharedUniverseP(j *lplan.Join) float64 {
	collect := func(n lplan.Node) map[uint64]float64 {
		out := map[uint64]float64{}
		lplan.Walk(n, func(x lplan.Node) {
			if s, ok := x.(*lplan.Sample); ok && s.Def != nil && s.Def.Type == lplan.SamplerUniverse {
				out[s.Def.Seed] = s.Def.P
			}
		})
		return out
	}
	l, r := collect(j.Left), collect(j.Right)
	for seed, p := range l {
		if _, ok := r[seed]; ok {
			return p
		}
	}
	return 0
}

// compileWindow co-partitions the input on the specs' shared PARTITION
// BY columns (gathering to one task when specs disagree or have none),
// so every task holds whole window partitions.
func (pl *Planner) compileWindow(w *lplan.Window) (exec.PNode, error) {
	in, err := pl.compile(w.Input)
	if err != nil {
		return nil, err
	}
	shared := sharedPartitionCols(w.Specs)
	var exch *exec.PExchange
	if len(shared) > 0 {
		exch = &exec.PExchange{In: in, Keys: shared, Parts: pl.CM.DOP(pl.CM.Est.Props(w.Input).Rows)}
	} else {
		exch = &exec.PExchange{In: in, Parts: 1}
	}
	pl.setEst(exch, pl.CM.Est.Props(w.Input).Rows)
	return &exec.PWindow{In: exch, Specs: w.Specs}, nil
}

// sharedPartitionCols returns the common PARTITION BY columns when all
// specs agree, else nil.
func sharedPartitionCols(specs []lplan.WinSpec) []lplan.ColumnID {
	if len(specs) == 0 {
		return nil
	}
	first := specs[0].PartitionBy
	if len(first) == 0 {
		return nil
	}
	for _, s := range specs[1:] {
		if len(s.PartitionBy) != len(first) {
			return nil
		}
		for i := range first {
			if s.PartitionBy[i] != first[i] {
				return nil
			}
		}
	}
	return first
}

func (pl *Planner) compileAgg(a *lplan.Aggregate) (exec.PNode, error) {
	in, err := pl.compile(a.Input)
	if err != nil {
		return nil, err
	}
	inProps := pl.CM.Est.Props(a.Input)
	var exch *exec.PExchange
	if len(a.GroupCols) > 0 {
		exch = &exec.PExchange{In: in, Keys: a.GroupCols, Parts: pl.CM.DOP(inProps.Rows)}
	} else {
		exch = &exec.PExchange{In: in, Parts: 1}
	}
	pl.setEst(exch, inProps.Rows)
	agg := &exec.PHashAgg{
		In:        exch,
		GroupCols: a.GroupCols,
		GroupInfo: a.GroupInfo,
		Aggs:      a.Aggs,
	}
	if a == pl.topAgg {
		agg.Top = true
		agg.Est = pl.EstCfg
	}
	return agg, nil
}
