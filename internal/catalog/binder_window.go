package catalog

import (
	"fmt"
	"strings"

	"quickr/internal/lplan"
	"quickr/internal/sql"
	"quickr/internal/table"
)

// bindWindowed builds Project(pre) -> Window -> Project(items) for a
// SELECT whose items contain window functions (paper Table 1 "Others":
// windowed aggregates). Window functions cannot be combined with
// GROUP BY or plain aggregates in the same query block.
func (b *Binder) bindWindowed(sel *sql.SelectStmt, node lplan.Node, sc *scope) (lplan.Node, []lplan.ColumnInfo, error) {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, nil, fmt.Errorf("bind: window functions cannot be combined with GROUP BY/HAVING")
	}
	for _, it := range sel.Items {
		if !it.Star && sql.HasAggregate(it.Expr) {
			return nil, nil, fmt.Errorf("bind: window functions cannot be combined with plain aggregates")
		}
	}

	// Pre-projection: every column currently in scope passes through,
	// plus any computed expressions the window specs need.
	var preExprs []lplan.Expr
	var preCols []lplan.ColumnInfo
	preByText := map[string]lplan.ColumnInfo{}
	for _, r := range sc.rels {
		for _, c := range r.cols {
			if _, dup := preByText[c.Name+"#pass"]; dup {
				continue
			}
			preByText[c.Name+"#pass"] = c
			preExprs = append(preExprs, &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind})
			preCols = append(preCols, c)
		}
	}
	addPre := func(e sql.Expr) (lplan.ColumnInfo, error) {
		bound, err := b.bindScalar(e, sc)
		if err != nil {
			return lplan.ColumnInfo{}, err
		}
		if cr, ok := bound.(*lplan.ColRef); ok {
			return lplan.ColumnInfo{ID: cr.ID, Name: cr.Name, Kind: cr.Kind}, nil
		}
		key := e.String()
		if ci, ok := preByText[key]; ok {
			return ci, nil
		}
		ci := b.exprColumn(bound, exprName(e))
		b.recordLineage(ci)
		preByText[key] = ci
		preExprs = append(preExprs, bound)
		preCols = append(preCols, ci)
		return ci, nil
	}

	// Collect the window calls.
	winByText := map[string]lplan.ColumnInfo{}
	var specs []lplan.WinSpec
	var collectErr error
	collect := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) {
			f, ok := x.(*sql.FuncCall)
			if !ok || f.Over == nil || collectErr != nil {
				return
			}
			text := f.String()
			if _, seen := winByText[text]; seen {
				return
			}
			spec, err := b.buildWinSpec(f, addPre)
			if err != nil {
				collectErr = err
				return
			}
			specs = append(specs, spec)
			winByText[text] = spec.Out
		})
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("bind: SELECT * cannot be combined with window functions")
		}
		collect(it.Expr)
	}
	if collectErr != nil {
		return nil, nil, collectErr
	}

	node = &lplan.Project{Input: node, Exprs: preExprs, Cols: preCols}
	win := &lplan.Window{Input: node, Specs: specs}

	// Final projection: window calls become references to the window
	// outputs; everything else binds in the original scope (those
	// columns pass through the Window node).
	var outExprs []lplan.Expr
	var outCols []lplan.ColumnInfo
	for _, it := range sel.Items {
		bound, err := b.bindWithWindows(it.Expr, sc, winByText)
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
	return &lplan.Project{Input: win, Exprs: outExprs, Cols: outCols}, outCols, nil
}

// buildWinSpec converts one windowed FuncCall into a WinSpec.
func (b *Binder) buildWinSpec(f *sql.FuncCall, addPre func(sql.Expr) (lplan.ColumnInfo, error)) (lplan.WinSpec, error) {
	spec := lplan.WinSpec{Arg: lplan.NoColumn}
	outKind := table.KindFloat
	switch f.Name {
	case "ROW_NUMBER":
		spec.Kind = lplan.WinRowNumber
		outKind = table.KindInt
	case "RANK":
		spec.Kind = lplan.WinRank
		outKind = table.KindInt
	case "SUM", "COUNT", "AVG", "MIN", "MAX":
		switch f.Name {
		case "SUM":
			spec.Kind = lplan.WinSum
		case "COUNT":
			spec.Kind = lplan.WinCount
			outKind = table.KindInt
		case "AVG":
			spec.Kind = lplan.WinAvg
		case "MIN":
			spec.Kind = lplan.WinMin
		case "MAX":
			spec.Kind = lplan.WinMax
		}
		if !f.Star {
			if len(f.Args) != 1 {
				return spec, fmt.Errorf("bind: window %s takes one argument", f.Name)
			}
			ci, err := addPre(f.Args[0])
			if err != nil {
				return spec, err
			}
			if spec.Kind == lplan.WinSum || spec.Kind == lplan.WinAvg {
				if err := misfit(f, f.Args[0], ci.Kind, numbers); err != nil {
					return spec, err
				}
			}
			spec.Arg = ci.ID
			if spec.Kind == lplan.WinMin || spec.Kind == lplan.WinMax {
				outKind = ci.Kind
			}
			if spec.Kind == lplan.WinSum && ci.Kind == table.KindInt {
				outKind = table.KindInt
			}
		} else if f.Name != "COUNT" {
			return spec, fmt.Errorf("bind: %s(*) is not a valid window function", f.Name)
		}
	default:
		return spec, fmt.Errorf("bind: %s is not a supported window function", f.Name)
	}
	for _, pe := range f.Over.PartitionBy {
		ci, err := addPre(pe)
		if err != nil {
			return spec, err
		}
		spec.PartitionBy = append(spec.PartitionBy, ci.ID)
	}
	for _, oe := range f.Over.OrderBy {
		ci, err := addPre(oe.Expr)
		if err != nil {
			return spec, err
		}
		spec.OrderBy = append(spec.OrderBy, lplan.SortKey{Col: ci.ID, Desc: oe.Desc})
	}
	spec.Out = lplan.ColumnInfo{ID: b.newID(), Name: strings.ToLower(f.String()), Kind: outKind}
	b.recordLineage(spec.Out)
	return spec, nil
}

// bindWithWindows binds an expression, mapping window function calls to
// their Window-node output columns.
func (b *Binder) bindWithWindows(e sql.Expr, sc *scope, wins map[string]lplan.ColumnInfo) (lplan.Expr, error) {
	if f, ok := e.(*sql.FuncCall); ok && f.Over != nil {
		ci, found := wins[f.String()]
		if !found {
			return nil, fmt.Errorf("bind: window call %s not collected", f.String())
		}
		return &lplan.ColRef{ID: ci.ID, Name: ci.Name, Kind: ci.Kind}, nil
	}
	switch x := e.(type) {
	case *sql.BinaryExpr:
		l, err := b.bindWithWindows(x.L, sc, wins)
		if err != nil {
			return nil, err
		}
		r, err := b.bindWithWindows(x.R, sc, wins)
		if err != nil {
			return nil, err
		}
		return typed(&lplan.Binary{Op: lplan.BinOp(x.Op), L: l, R: r})
	case *sql.UnaryExpr:
		in, err := b.bindWithWindows(x.X, sc, wins)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return typed(&lplan.Not{X: in})
		}
		return typed(&lplan.Neg{X: in})
	case *sql.FuncCall:
		args := make([]lplan.Expr, len(x.Args))
		for i, a := range x.Args {
			bound, err := b.bindWithWindows(a, sc, wins)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return typed(&lplan.Func{Name: strings.ToUpper(x.Name), Args: args})
	default:
		return b.bindScalar(e, sc)
	}
}
