package catalog

import (
	"fmt"
	"slices"
	"strings"

	"quickr/internal/lplan"
	"quickr/internal/sql"
	"quickr/internal/table"
)

// bindScalar binds a scalar (non-aggregate) expression against a scope.
func (b *Binder) bindScalar(e sql.Expr, sc *scope) (lplan.Expr, error) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		ci, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return &lplan.ColRef{ID: ci.ID, Name: ci.Name, Kind: ci.Kind}, nil
	case *sql.Literal:
		return &lplan.Const{Val: x.Val}, nil
	case *sql.BinaryExpr:
		l, err := b.bindScalar(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalar(x.R, sc)
		if err != nil {
			return nil, err
		}
		return typed(&lplan.Binary{Op: lplan.BinOp(x.Op), L: l, R: r})
	case *sql.UnaryExpr:
		in, err := b.bindScalar(x.X, sc)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return typed(&lplan.Not{X: in})
		}
		return typed(&lplan.Neg{X: in})
	case *sql.FuncCall:
		if sql.IsAggregateFunc(x.Name) {
			return nil, fmt.Errorf("bind: aggregate %s not allowed here", x.Name)
		}
		args := make([]lplan.Expr, len(x.Args))
		for i, a := range x.Args {
			bound, err := b.bindScalar(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return typed(&lplan.Func{Name: strings.ToUpper(x.Name), Args: args})
	case *sql.InExpr:
		in, err := b.bindScalar(x.X, sc)
		if err != nil {
			return nil, err
		}
		return bindIn(x, in)
	case *sql.BetweenExpr:
		in, err := b.bindScalar(x.X, sc)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindScalar(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindScalar(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		ge, err := typed(&lplan.Binary{Op: lplan.OpGe, L: in, R: lo})
		if err != nil {
			return nil, err
		}
		le, err := typed(&lplan.Binary{Op: lplan.OpLe, L: in, R: hi})
		if err != nil {
			return nil, err
		}
		rng := &lplan.Binary{Op: lplan.OpAnd, L: ge, R: le}
		if x.Not {
			return &lplan.Not{X: rng}, nil
		}
		return rng, nil
	case *sql.IsNullExpr:
		in, err := b.bindScalar(x.X, sc)
		if err != nil {
			return nil, err
		}
		return &lplan.IsNull{X: in, Inv: x.Not}, nil
	case *sql.LikeExpr:
		in, err := b.bindScalar(x.X, sc)
		if err != nil {
			return nil, err
		}
		return typed(&lplan.Like{X: in, Pattern: x.Pattern, Inv: x.Not})
	case *sql.CaseExpr:
		out := &lplan.Case{}
		for _, w := range x.Whens {
			c, err := b.bindScalar(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			t, err := b.bindScalar(w.Then, sc)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, lplan.When{Cond: c, Then: t})
		}
		if x.Else != nil {
			e2, err := b.bindScalar(x.Else, sc)
			if err != nil {
				return nil, err
			}
			out.Else = e2
		}
		return typed(out)
	}
	return nil, fmt.Errorf("bind: unsupported expression %T", e)
}

// bindIn binds x, whose operand is bound as in; its list must hold
// literals.
func bindIn(x *sql.InExpr, in lplan.Expr) (lplan.Expr, error) {
	vals := make([]table.Value, len(x.List))
	for i, item := range x.List {
		lit, ok := item.(*sql.Literal)
		if !ok {
			return nil, fmt.Errorf("bind: IN list must contain literals")
		}
		vals[i] = lit.Val
	}
	return typed(&lplan.In{X: in, Vals: vals, Inv: x.Not})
}

// typed applies the kind rules to e, whose operands are typed already,
// and returns it. Each misfit is a bind error that names the operand
// and its kind, so every statement that binds answers by its declared
// kinds:
//   - the two operands of a comparison, and an IN operand and its list,
//     must have a kind join (lplan.JoinKinds);
//   - the branches of a CASE and the arguments IF and COALESCE may
//     return take their kind join, an Int one widened to Float where the
//     join is Float (widen);
//   - arithmetic and unary minus take numbers, % integers, LIKE a
//     String, and AND, OR, NOT and every condition a Bool.
//
// NULL is legal everywhere. A comparison is not widened: the executor
// compares an Int with a Float in float space.
func typed(e lplan.Expr) (lplan.Expr, error) {
	var slots []*lplan.Expr
	var conds []lplan.Expr
	switch x := e.(type) {
	case *lplan.Case:
		for i := range x.Whens {
			conds = append(conds, x.Whens[i].Cond)
			slots = append(slots, &x.Whens[i].Then)
		}
		if x.Else != nil {
			slots = append(slots, &x.Else)
		}
	case *lplan.Func:
		switch {
		case x.Name == "IF" && len(x.Args) == 3:
			conds, slots = x.Args[:1], []*lplan.Expr{&x.Args[1], &x.Args[2]}
		case x.Name == "COALESCE":
			for i := range x.Args {
				slots = append(slots, &x.Args[i])
			}
		}
	case *lplan.Binary:
		switch {
		case x.Op.IsComparison():
			return e, joinable(e, lplan.KindOf(x.L), lplan.KindOf(x.R))
		case x.Op == lplan.OpAnd || x.Op == lplan.OpOr:
			return e, takes(e, booleans, x.L, x.R)
		case x.Op == lplan.OpMod:
			return e, takes(e, integers, x.L, x.R)
		}
		return e, takes(e, numbers, x.L, x.R)
	case *lplan.Not:
		return e, takes(e, booleans, x.X)
	case *lplan.Neg:
		return e, takes(e, numbers, x.X)
	case *lplan.Like:
		return e, takes(e, strs, x.X)
	case *lplan.In:
		kinds := []table.Kind{lplan.KindOf(x.X)}
		for _, v := range x.Vals {
			kinds = append(kinds, v.Kind())
		}
		return e, joinable(e, kinds...)
	}
	if err := takes(e, booleans, conds...); err != nil {
		return nil, err
	}
	kinds := make([]table.Kind, len(slots))
	for i, p := range slots {
		kinds[i] = lplan.KindOf(*p)
	}
	k, ok := lplan.JoinKinds(kinds...)
	if !ok {
		return nil, fmt.Errorf("bind: %s mixes kinds %v", e, kinds)
	}
	for _, p := range slots {
		*p = widen(*p, k)
	}
	return e, nil
}

// The kinds an operand may take besides NULL.
var (
	numbers  = []table.Kind{table.KindInt, table.KindFloat}
	integers = []table.Kind{table.KindInt}
	booleans = []table.Kind{table.KindBool}
	strs     = []table.Kind{table.KindString}
)

// takes fails unless every operand of e is NULL or of one of kinds.
func takes(e lplan.Expr, kinds []table.Kind, operands ...lplan.Expr) error {
	for _, o := range operands {
		if err := misfit(e, o, lplan.KindOf(o), kinds); err != nil {
			return err
		}
	}
	return nil
}

// misfit is the bind error for operand o of e, of kind k, where e takes
// kinds; nil when k is one of them or NULL.
func misfit(e, o any, k table.Kind, kinds []table.Kind) error {
	if k == table.KindNull || slices.Contains(kinds, k) {
		return nil
	}
	return fmt.Errorf("bind: %v takes %v, %v is %v", e, kinds, o, k)
}

// joinable fails unless the operand kinds of e have a kind join.
func joinable(e lplan.Expr, kinds ...table.Kind) error {
	if _, ok := lplan.JoinKinds(kinds...); !ok {
		return fmt.Errorf("bind: %s compares kinds %v", e, kinds)
	}
	return nil
}

// widen returns e as an expression of kind k, a join of e's kind: an Int
// constant folds to the equal Float, any other Int expression takes one
// FLOAT call where k is Float; everything else is e.
func widen(e lplan.Expr, k table.Kind) lplan.Expr {
	if k != table.KindFloat || lplan.KindOf(e) != table.KindInt {
		return e
	}
	if c, ok := e.(*lplan.Const); ok {
		return &lplan.Const{Val: table.NewFloat(c.Val.Float())}
	}
	return &lplan.Func{Name: "FLOAT", Args: []lplan.Expr{e}}
}

// aggRef keys a seen aggregate by its canonical AST text.
type aggRef struct {
	spec lplan.AggSpec
	col  lplan.ColumnInfo
}

// bindAggregate builds Project(pre) -> Aggregate -> [Select having] ->
// Project(post) for an aggregated SELECT.
func (b *Binder) bindAggregate(sel *sql.SelectStmt, node lplan.Node, sc *scope) (lplan.Node, []lplan.ColumnInfo, error) {
	// 1. Collect group expressions and aggregate calls.
	type preCol struct {
		expr lplan.Expr
		ci   lplan.ColumnInfo
	}
	var pre []preCol
	preByText := map[string]int{}
	addPre := func(text string, expr lplan.Expr, name string) lplan.ColumnInfo {
		if i, ok := preByText[text]; ok {
			return pre[i].ci
		}
		ci := b.exprColumn(expr, name)
		// Ensure uniqueness: even pass-through ColRefs keep their ID —
		// duplicates collapse through preByText.
		b.recordLineage(ci)
		preByText[text] = len(pre)
		pre = append(pre, preCol{expr: expr, ci: ci})
		return ci
	}

	groupInfos := make([]lplan.ColumnInfo, 0, len(sel.GroupBy))
	groupByText := map[string]lplan.ColumnInfo{}
	for _, g := range sel.GroupBy {
		bound, err := b.bindScalar(g, sc)
		if err != nil {
			return nil, nil, err
		}
		ci := addPre(g.String(), bound, exprName(g))
		groupInfos = append(groupInfos, ci)
		groupByText[g.String()] = ci
		// Also allow referring to a grouped column by its select alias.
		for _, it := range sel.Items {
			if !it.Star && it.Alias != "" && it.Expr.String() == g.String() {
				groupByText[it.Alias] = ci
			}
		}
	}

	aggByText := map[string]aggRef{}
	var aggSpecs []lplan.AggSpec
	collectAggs := func(e sql.Expr) error {
		var cerr error
		sql.WalkExpr(e, func(x sql.Expr) {
			f, ok := x.(*sql.FuncCall)
			if !ok || !sql.IsAggregateFunc(f.Name) || cerr != nil {
				return
			}
			text := f.String()
			if _, seen := aggByText[text]; seen {
				return
			}
			spec, err := b.buildAggSpec(f, sc, addPre)
			if err != nil {
				cerr = err
				return
			}
			aggByText[text] = aggRef{spec: spec, col: spec.Out}
			aggSpecs = append(aggSpecs, spec)
		})
		return cerr
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("bind: SELECT * cannot be combined with aggregation")
		}
		if err := collectAggs(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := collectAggs(sel.Having); err != nil {
			return nil, nil, err
		}
	}

	// 2. Pre-aggregation projection (the paper's precursor, §4.2.2).
	exprs := make([]lplan.Expr, len(pre))
	cols := make([]lplan.ColumnInfo, len(pre))
	for i, pc := range pre {
		exprs[i] = pc.expr
		cols[i] = pc.ci
	}
	node = &lplan.Project{Input: node, Exprs: exprs, Cols: cols}

	// 3. Aggregate node (the successor performs these via HT estimators
	// when sampled).
	groupIDs := make([]lplan.ColumnID, len(groupInfos))
	for i, g := range groupInfos {
		groupIDs[i] = g.ID
	}
	agg := &lplan.Aggregate{Input: node, GroupCols: groupIDs, GroupInfo: groupInfos, Aggs: aggSpecs}
	var out lplan.Node = agg

	// 4. HAVING.
	if sel.Having != nil {
		pred, err := b.bindPostAgg(sel.Having, groupByText, aggByText)
		if err == nil {
			err = misfit("HAVING", pred, lplan.KindOf(pred), booleans)
		}
		if err != nil {
			return nil, nil, err
		}
		out = &lplan.Select{Input: out, Pred: pred}
	}

	// 5. Final projection of the select items.
	var outExprs []lplan.Expr
	var outCols []lplan.ColumnInfo
	for _, it := range sel.Items {
		bound, err := b.bindPostAgg(it.Expr, groupByText, aggByText)
		if err != nil {
			return nil, nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		ci := b.exprColumn(bound, name)
		b.recordLineage(ci)
		outExprs = append(outExprs, bound)
		outCols = append(outCols, ci)
	}
	return &lplan.Project{Input: out, Exprs: outExprs, Cols: outCols}, outCols, nil
}

// buildAggSpec converts one aggregate FuncCall to an AggSpec, projecting
// its argument and condition columns via addPre.
func (b *Binder) buildAggSpec(f *sql.FuncCall, sc *scope, addPre func(string, lplan.Expr, string) lplan.ColumnInfo) (lplan.AggSpec, error) {
	spec := lplan.AggSpec{Arg: lplan.NoColumn, Cond: lplan.NoColumn}
	outKind := table.KindFloat
	// bindArg binds an argument of f, which must be NULL or of one of
	// kinds (nil: any kind).
	bindArg := func(e sql.Expr, kinds []table.Kind) (lplan.ColumnInfo, error) {
		bound, err := b.bindScalar(e, sc)
		if err != nil {
			return lplan.ColumnInfo{}, err
		}
		if kinds != nil {
			if err := misfit(f, e, lplan.KindOf(bound), kinds); err != nil {
				return lplan.ColumnInfo{}, err
			}
		}
		return addPre(e.String(), bound, exprName(e)), nil
	}
	switch f.Name {
	case "COUNT":
		outKind = table.KindInt
		switch {
		case f.Star:
			spec.Kind = lplan.AggCount
		case f.Distinct:
			if len(f.Args) != 1 {
				return spec, fmt.Errorf("bind: COUNT(DISTINCT) takes one argument")
			}
			spec.Kind = lplan.AggCountDistinct
			ci, err := bindArg(f.Args[0], nil)
			if err != nil {
				return spec, err
			}
			spec.Arg = ci.ID
		default:
			if len(f.Args) != 1 {
				return spec, fmt.Errorf("bind: COUNT takes one argument")
			}
			spec.Kind = lplan.AggCount
			ci, err := bindArg(f.Args[0], nil)
			if err != nil {
				return spec, err
			}
			spec.Arg = ci.ID
		}
	case "SUM", "AVG", "MIN", "MAX":
		if len(f.Args) != 1 {
			return spec, fmt.Errorf("bind: %s takes one argument", f.Name)
		}
		kinds := numbers
		if f.Name == "MIN" || f.Name == "MAX" {
			kinds = nil
		}
		ci, err := bindArg(f.Args[0], kinds)
		if err != nil {
			return spec, err
		}
		spec.Arg = ci.ID
		switch f.Name {
		case "SUM":
			spec.Kind = lplan.AggSum
			outKind = table.KindFloat
			if ci.Kind == table.KindInt {
				outKind = table.KindInt
			}
		case "AVG":
			spec.Kind = lplan.AggAvg
		case "MIN":
			spec.Kind = lplan.AggMin
			outKind = ci.Kind
		case "MAX":
			spec.Kind = lplan.AggMax
			outKind = ci.Kind
		}
	case "SUMIF":
		if len(f.Args) != 2 {
			return spec, fmt.Errorf("bind: SUMIF takes (condition, value)")
		}
		cond, err := bindArg(f.Args[0], booleans)
		if err != nil {
			return spec, err
		}
		val, err := bindArg(f.Args[1], numbers)
		if err != nil {
			return spec, err
		}
		spec.Kind = lplan.AggSumIf
		spec.Cond = cond.ID
		spec.Arg = val.ID
	case "COUNTIF":
		if len(f.Args) != 1 {
			return spec, fmt.Errorf("bind: COUNTIF takes one argument")
		}
		cond, err := bindArg(f.Args[0], booleans)
		if err != nil {
			return spec, err
		}
		spec.Kind = lplan.AggCountIf
		spec.Cond = cond.ID
		outKind = table.KindInt
	case "AVGIF":
		if len(f.Args) != 2 {
			return spec, fmt.Errorf("bind: AVGIF takes (condition, value)")
		}
		cond, err := bindArg(f.Args[0], booleans)
		if err != nil {
			return spec, err
		}
		val, err := bindArg(f.Args[1], numbers)
		if err != nil {
			return spec, err
		}
		spec.Kind = lplan.AggAvg // AVGIF handled as conditional AVG
		spec.Cond = cond.ID
		spec.Arg = val.ID
	default:
		return spec, fmt.Errorf("bind: unknown aggregate %s", f.Name)
	}
	// Output column: fresh id; origins from argument/condition columns.
	var origins []lplan.BaseCol
	if spec.Arg != lplan.NoColumn {
		origins = append(origins, b.lineage[spec.Arg]...)
	}
	if spec.Cond != lplan.NoColumn {
		origins = append(origins, b.lineage[spec.Cond]...)
	}
	spec.Out = lplan.ColumnInfo{ID: b.newID(), Name: strings.ToLower(f.String()), Kind: outKind, Origins: origins}
	b.recordLineage(spec.Out)
	return spec, nil
}

// bindPostAgg binds an expression in the post-aggregation scope:
// aggregate calls become references to aggregate outputs, group-by
// expressions become references to group columns.
func (b *Binder) bindPostAgg(e sql.Expr, groups map[string]lplan.ColumnInfo, aggs map[string]aggRef) (lplan.Expr, error) {
	if ci, ok := groups[e.String()]; ok {
		return &lplan.ColRef{ID: ci.ID, Name: ci.Name, Kind: ci.Kind}, nil
	}
	switch x := e.(type) {
	case *sql.FuncCall:
		if sql.IsAggregateFunc(x.Name) {
			ref, ok := aggs[x.String()]
			if !ok {
				return nil, fmt.Errorf("bind: aggregate %s not collected", x.String())
			}
			return &lplan.ColRef{ID: ref.col.ID, Name: ref.col.Name, Kind: ref.col.Kind}, nil
		}
		args := make([]lplan.Expr, len(x.Args))
		for i, a := range x.Args {
			bound, err := b.bindPostAgg(a, groups, aggs)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return typed(&lplan.Func{Name: strings.ToUpper(x.Name), Args: args})
	case *sql.Literal:
		return &lplan.Const{Val: x.Val}, nil
	case *sql.BinaryExpr:
		l, err := b.bindPostAgg(x.L, groups, aggs)
		if err != nil {
			return nil, err
		}
		r, err := b.bindPostAgg(x.R, groups, aggs)
		if err != nil {
			return nil, err
		}
		return typed(&lplan.Binary{Op: lplan.BinOp(x.Op), L: l, R: r})
	case *sql.UnaryExpr:
		in, err := b.bindPostAgg(x.X, groups, aggs)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return typed(&lplan.Not{X: in})
		}
		return typed(&lplan.Neg{X: in})
	case *sql.ColumnRef:
		if ci, ok := groups[x.Name]; ok {
			return &lplan.ColRef{ID: ci.ID, Name: ci.Name, Kind: ci.Kind}, nil
		}
		return nil, fmt.Errorf("bind: column %s must appear in GROUP BY or inside an aggregate", x.String())
	case *sql.CaseExpr:
		out := &lplan.Case{}
		for _, w := range x.Whens {
			c, err := b.bindPostAgg(w.Cond, groups, aggs)
			if err != nil {
				return nil, err
			}
			t, err := b.bindPostAgg(w.Then, groups, aggs)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, lplan.When{Cond: c, Then: t})
		}
		if x.Else != nil {
			el, err := b.bindPostAgg(x.Else, groups, aggs)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return typed(out)
	case *sql.IsNullExpr:
		in, err := b.bindPostAgg(x.X, groups, aggs)
		if err != nil {
			return nil, err
		}
		return &lplan.IsNull{X: in, Inv: x.Not}, nil
	case *sql.InExpr:
		in, err := b.bindPostAgg(x.X, groups, aggs)
		if err != nil {
			return nil, err
		}
		return bindIn(x, in)
	}
	return nil, fmt.Errorf("bind: unsupported post-aggregation expression %T (%s)", e, e.String())
}
