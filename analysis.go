package quickr

import (
	"sort"

	"quickr/internal/catalog"
	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/opt"
	"quickr/internal/sql"
	"quickr/internal/table"
)

// QueryStats are static characteristics of a query's optimized plan,
// matching the metrics of the paper's Fig. 2b / Table 3 / Table 9:
// operator counts and depth, joins, aggregation operators, scalar UDF
// applications, and the sizes of the query column set (QCS — columns
// that appear in the answer or decide which rows belong in it) and
// query value set (QVS — columns feeding aggregates), with generated
// columns recursively replaced by their base columns.
type QueryStats struct {
	Operators    int
	Depth        int
	Joins        int
	Aggregations int
	UDFs         int
	QCS          int
	QVS          int
	QCSPlusQVS   int
}

// Analyze parses, binds and normalizes the query and computes its
// static characteristics.
func (e *Engine) Analyze(query string) (*QueryStats, error) {
	logical, err := e.BoundPlan(query)
	if err != nil {
		return nil, err
	}

	st := &QueryStats{
		Operators: lplan.Count(logical),
		Depth:     lplan.Depth(logical),
	}
	qcs := queryColumnSet(logical)
	qvs := map[lplan.BaseCol]bool{}
	lplan.Walk(logical, func(n lplan.Node) {
		switch x := n.(type) {
		case *lplan.Join:
			st.Joins++
		case *lplan.Aggregate:
			st.Aggregations += len(x.Aggs)
			if len(x.Aggs) == 0 {
				st.Aggregations++ // SELECT DISTINCT
			}
			for _, a := range x.Aggs {
				ids := []lplan.ColumnID{}
				if a.Arg != lplan.NoColumn {
					ids = append(ids, a.Arg)
				}
				if a.Cond != lplan.NoColumn {
					ids = append(ids, a.Cond)
				}
				addOrigins(qvs, x.Input, ids)
			}
		case *lplan.Select:
			st.UDFs += countUDFs(x.Pred)
		case *lplan.Project:
			for _, ex := range x.Exprs {
				st.UDFs += countUDFs(ex)
			}
		}
	})
	st.QCS = len(qcs)
	st.QVS = len(qvs)
	st.QCSPlusQVS = len(qvs)
	for c := range qcs {
		if !qvs[c] {
			st.QCSPlusQVS++
		}
	}
	return st, nil
}

// addOrigins adds to set the base columns behind the columns ids of n's
// output.
func addOrigins(set map[lplan.BaseCol]bool, n lplan.Node, ids []lplan.ColumnID) {
	cols := n.Columns()
	for _, id := range ids {
		if ci, ok := lplan.ColumnByID(cols, id); ok {
			for _, o := range ci.Origins {
				set[o] = true
			}
		}
	}
}

// queryColumnSet returns the query's QCS as base columns: join keys,
// group-by columns and filter columns.
func queryColumnSet(logical lplan.Node) map[lplan.BaseCol]bool {
	qcs := map[lplan.BaseCol]bool{}
	lplan.Walk(logical, func(n lplan.Node) {
		switch x := n.(type) {
		case *lplan.Join:
			addOrigins(qcs, x, append(append([]lplan.ColumnID{}, x.LeftKeys...), x.RightKeys...))
		case *lplan.Aggregate:
			addOrigins(qcs, x.Input, x.GroupCols)
		case *lplan.Select:
			ids := make([]lplan.ColumnID, 0, 4)
			for id := range lplan.ExprColumns(x.Pred) {
				ids = append(ids, id)
			}
			addOrigins(qcs, x.Input, ids)
		}
	})
	return qcs
}

// countUDFs counts row-local computed expressions: explicit scalar
// functions plus arithmetic/CASE/LIKE expressions — in SCOPE-style
// systems these are all user code compiled into the operators, which is
// what the paper's UDF counts measure.
func countUDFs(e lplan.Expr) int {
	n := 0
	lplan.WalkExpr(e, func(x lplan.Expr) {
		switch y := x.(type) {
		case *lplan.Func, *lplan.Case, *lplan.Like:
			n++
		case *lplan.Binary:
			// Connectives are plan structure; everything else (arithmetic
			// and comparisons) compiles to row-local user code in
			// SCOPE-style systems.
			if y.Op != lplan.OpAnd && y.Op != lplan.OpOr {
				n++
			}
		case *lplan.In, *lplan.IsNull:
			n++
		}
	})
	return n
}

// QueryColumnSets returns, per base table, the QCS of the query (the
// stratification column sets an apriori-sampling system like BlinkDB
// would need): group-by columns, filter columns and join keys, mapped
// to their origin tables.
func (e *Engine) QueryColumnSets(query string) (map[string][]string, error) {
	logical, err := e.BoundPlan(query)
	if err != nil {
		return nil, err
	}

	out := map[string][]string{}
	for c := range queryColumnSet(logical) {
		out[c.Table] = append(out[c.Table], c.Column)
	}
	for _, cols := range out {
		sort.Strings(cols)
	}
	return out, nil
}

// ExecWithSample runs the query with every scan of baseTable replaced
// by a scan of sampleTable, whose trailing `_w` column carries per-row
// weights (the apriori-sampling execution path used by the BlinkDB
// baseline). The sample table is registered in the catalog on first
// use.
func (e *Engine) ExecWithSample(query, baseTable string, sample *table.Table) (*Result, error) {
	if _, err := e.cat.Table(sample.Name); err != nil {
		e.cat.Register(sample)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	logical, est, err := e.bound(stmt)
	if err != nil {
		return nil, err
	}
	cfg := e.cur.Load().cfg
	cm := opt.NewCostModel(est, cfg)
	logical = substituteScan(logical, baseTable, sample.Name)

	// Estimator config: the sample behaves like a stratified input
	// sample; report uniform-style confidence intervals from weights.
	ratio := 1.0
	if base, err := e.cat.Table(baseTable); err == nil && base.NumRows() > 0 {
		ratio = float64(sample.NumRows()) / float64(base.NumRows())
		if ratio > 1 {
			ratio = 1
		}
	}
	planner := &opt.Planner{CM: cm, EstCfg: &exec.EstimatorConfig{Type: lplan.SamplerDistinct, P: ratio}}
	physical, err := planner.Plan(logical)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(physical, cfg)
	if err != nil {
		return nil, err
	}
	return newResult(res, &prepared{sampled: true, physical: physical, logical: logical}), nil
}

// substituteScan swaps scans of one table for another (schema-
// compatible) table, attaching the weight column.
func substituteScan(n lplan.Node, from, to string) lplan.Node {
	ch := n.Children()
	if len(ch) > 0 {
		newCh := make([]lplan.Node, len(ch))
		for i, c := range ch {
			newCh[i] = substituteScan(c, from, to)
		}
		n = n.WithChildren(newCh)
	}
	if s, ok := n.(*lplan.Scan); ok && s.Table == from {
		return &lplan.Scan{Table: to, Cols: s.Cols, WeightColumn: "_w"}
	}
	return n
}

// BoundPlan parses, binds and normalizes a query and returns the
// (unsampled) logical plan — used by in-module tooling such as the
// reference-implementation cross-check.
func (e *Engine) BoundPlan(query string) (lplan.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	logical, _, err := e.bound(stmt)
	return logical, err
}

// bound is the engine's one front end: it binds a parsed statement
// against the catalog and normalizes it, returning the logical plan and
// the estimator that costed it.
func (e *Engine) bound(stmt *sql.SelectStmt) (lplan.Node, *opt.Estimator, error) {
	logical, err := catalog.NewBinder(e.cat).Bind(stmt)
	if err != nil {
		return nil, nil, err
	}
	est := opt.NewEstimator(e.cat)
	return opt.Normalize(logical, est), est, nil
}
