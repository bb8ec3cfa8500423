// Package refimpl is a deliberately naive reference evaluator for bound
// logical plans: nested-loop joins, row-at-a-time maps of selections and
// projections, and straightforward aggregation. It exists purely to
// cross-check the optimized partitioned executor — every workload query
// is executed by both and the answers must match exactly.
package refimpl

import (
	"fmt"
	"sort"
	"strings"

	"quickr/internal/catalog"
	"quickr/internal/lplan"
	"quickr/internal/table"
)

// Run evaluates the plan against the catalog and returns the result
// rows (in the plan's output order where the plan sorts, otherwise in
// deterministic row order).
func Run(cat *catalog.Catalog, plan lplan.Node) ([]table.Row, error) {
	e := &evaluator{cat: cat}
	rel, err := e.eval(plan)
	if err != nil {
		return nil, err
	}
	return rel.rows, nil
}

// relation is an intermediate result: rows positionally aligned with
// cols.
type relation struct {
	cols []lplan.ColumnInfo
	rows []table.Row
}

func (r *relation) colIndex() map[lplan.ColumnID]int {
	m := make(map[lplan.ColumnID]int, len(r.cols))
	for i, c := range r.cols {
		if _, ok := m[c.ID]; !ok {
			m[c.ID] = i
		}
	}
	return m
}

type evaluator struct {
	cat *catalog.Catalog
}

func (e *evaluator) eval(n lplan.Node) (*relation, error) {
	switch x := n.(type) {
	case *lplan.Scan:
		return e.evalScan(x)
	case *lplan.Select:
		return e.evalSelect(x)
	case *lplan.Project:
		return e.evalProject(x)
	case *lplan.Join:
		return e.evalJoin(x)
	case *lplan.Aggregate:
		return e.evalAggregate(x)
	case *lplan.Window:
		return e.evalWindow(x)
	case *lplan.Sort:
		return e.evalSort(x)
	case *lplan.Limit:
		in, err := e.eval(x.Input)
		if err != nil {
			return nil, err
		}
		if int64(len(in.rows)) > x.N {
			in.rows = in.rows[:x.N]
		}
		return in, nil
	case *lplan.Sample:
		// The reference implementation evaluates exact plans only;
		// pass-throughs are transparent.
		if x.Def != nil && x.Def.Type != lplan.SamplerPassThrough {
			return nil, fmt.Errorf("refimpl: cannot evaluate sampled plans")
		}
		return e.eval(x.Input)
	}
	// Union-like nodes (including the binder's wrapper).
	if len(n.Children()) > 1 {
		out := &relation{cols: n.Columns()}
		for _, c := range n.Children() {
			sub, err := e.eval(c)
			if err != nil {
				return nil, err
			}
			out.rows = append(out.rows, sub.rows...)
		}
		return out, nil
	}
	if len(n.Children()) == 1 {
		return e.eval(n.Children()[0])
	}
	return nil, fmt.Errorf("refimpl: unsupported node %T", n)
}

func (e *evaluator) evalScan(s *lplan.Scan) (*relation, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(s.Cols))
	for i, c := range s.Cols {
		pos := tbl.Schema.Index(c.Name)
		if pos < 0 {
			return nil, fmt.Errorf("refimpl: column %s missing from %s", c.Name, s.Table)
		}
		idx[i] = pos
	}
	out := &relation{cols: s.Cols}
	for p := range tbl.Partitions {
		for _, row := range tbl.Rows(p) {
			pr := make(table.Row, len(idx))
			for i, p := range idx {
				pr[i] = row[p]
			}
			out.rows = append(out.rows, pr)
		}
	}
	return out, nil
}

func (e *evaluator) evalSelect(s *lplan.Select) (*relation, error) {
	in, err := e.eval(s.Input)
	if err != nil {
		return nil, err
	}
	cm := in.colIndex()
	out := &relation{cols: in.cols}
	for _, row := range in.rows {
		v, err := EvalExpr(s.Pred, cm, row)
		if err != nil {
			return nil, err
		}
		if v.Kind() == table.KindBool && v.Bool() {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func (e *evaluator) evalProject(p *lplan.Project) (*relation, error) {
	in, err := e.eval(p.Input)
	if err != nil {
		return nil, err
	}
	cm := in.colIndex()
	out := &relation{cols: p.Cols}
	for _, row := range in.rows {
		pr := make(table.Row, len(p.Exprs))
		for i, ex := range p.Exprs {
			v, err := EvalExpr(ex, cm, row)
			if err != nil {
				return nil, err
			}
			pr[i] = v
		}
		out.rows = append(out.rows, pr)
	}
	return out, nil
}

// evalJoin is a nested-loop join (quadratic on purpose — obviously
// correct).
func (e *evaluator) evalJoin(j *lplan.Join) (*relation, error) {
	left, err := e.eval(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(j.Right)
	if err != nil {
		return nil, err
	}
	out := &relation{cols: append(append([]lplan.ColumnInfo{}, left.cols...), right.cols...)}
	lcm := left.colIndex()
	rcm := right.colIndex()
	combined := out.colIndex()

	lIdx := make([]int, len(j.LeftKeys))
	for i, k := range j.LeftKeys {
		lIdx[i] = lcm[k]
	}
	rIdx := make([]int, len(j.RightKeys))
	for i, k := range j.RightKeys {
		rIdx[i] = rcm[k]
	}

	for _, l := range left.rows {
		matched := false
		for _, r := range right.rows {
			ok := true
			for i := range lIdx {
				if !l[lIdx[i]].Equal(r[rIdx[i]]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			row := append(append(table.Row{}, l...), r...)
			if j.Residual != nil {
				v, err := EvalExpr(j.Residual, combined, row)
				if err != nil {
					return nil, err
				}
				if !(v.Kind() == table.KindBool && v.Bool()) {
					continue
				}
			}
			out.rows = append(out.rows, row)
			matched = true
		}
		if !matched && j.Kind == lplan.LeftOuterJoin {
			row := append(append(table.Row{}, l...), make(table.Row, len(right.cols))...)
			for i := len(l); i < len(row); i++ {
				row[i] = table.Null
			}
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

type refAgg struct {
	sum      float64
	count    int64
	avgSum   float64
	avgCnt   int64
	distinct map[string]bool
	min, max table.Value
	seen     bool
}

func (e *evaluator) evalAggregate(a *lplan.Aggregate) (*relation, error) {
	in, err := e.eval(a.Input)
	if err != nil {
		return nil, err
	}
	cm := in.colIndex()
	gIdx := make([]int, len(a.GroupCols))
	for i, g := range a.GroupCols {
		pos, ok := cm[g]
		if !ok {
			return nil, fmt.Errorf("refimpl: group column #%d missing", g)
		}
		gIdx[i] = pos
	}

	type group struct {
		key  table.Row
		aggs []*refAgg
	}
	groups := map[string]*group{}
	var order []string
	for _, row := range in.rows {
		var kb strings.Builder
		for _, i := range gIdx {
			kb.WriteString(row[i].Key())
			kb.WriteByte(0)
		}
		key := kb.String()
		g, ok := groups[key]
		if !ok {
			g = &group{key: make(table.Row, len(gIdx)), aggs: make([]*refAgg, len(a.Aggs))}
			for i, idx := range gIdx {
				g.key[i] = row[idx]
			}
			for i := range g.aggs {
				g.aggs[i] = &refAgg{distinct: map[string]bool{}, min: table.Null, max: table.Null}
			}
			groups[key] = g
			order = append(order, key)
		}
		for i, spec := range a.Aggs {
			acc := g.aggs[i]
			var arg table.Value = table.Null
			if spec.Arg != lplan.NoColumn {
				arg = row[cm[spec.Arg]]
			}
			cond := true
			if spec.Cond != lplan.NoColumn {
				cv := row[cm[spec.Cond]]
				cond = cv.Kind() == table.KindBool && cv.Bool()
			}
			switch spec.Kind {
			case lplan.AggCount:
				if spec.Arg == lplan.NoColumn || !arg.IsNull() {
					acc.count++
				}
			case lplan.AggCountIf:
				if cond {
					acc.count++
				}
			case lplan.AggSum:
				if !arg.IsNull() {
					acc.sum += arg.Float()
					acc.seen = true
				}
			case lplan.AggSumIf:
				if cond && !arg.IsNull() {
					acc.sum += arg.Float()
					acc.seen = true
				}
			case lplan.AggAvg:
				if cond && !arg.IsNull() {
					acc.avgSum += arg.Float()
					acc.avgCnt++
				}
			case lplan.AggCountDistinct:
				if !arg.IsNull() {
					acc.distinct[arg.Key()] = true
				}
			case lplan.AggMin:
				if !arg.IsNull() && (acc.min.IsNull() || arg.Compare(acc.min) < 0) {
					acc.min = arg
				}
			case lplan.AggMax:
				if !arg.IsNull() && (acc.max.IsNull() || arg.Compare(acc.max) > 0) {
					acc.max = arg
				}
			}
		}
	}
	sort.Strings(order)

	out := &relation{cols: a.Columns()}
	for _, key := range order {
		g := groups[key]
		row := append(table.Row{}, g.key...)
		for i, spec := range a.Aggs {
			acc := g.aggs[i]
			switch spec.Kind {
			case lplan.AggCount, lplan.AggCountIf:
				row = append(row, table.NewInt(acc.count))
			case lplan.AggSum, lplan.AggSumIf:
				if spec.Out.Kind == table.KindInt {
					row = append(row, table.NewInt(int64(acc.sum+0.5)))
				} else {
					row = append(row, table.NewFloat(acc.sum))
				}
			case lplan.AggAvg:
				if acc.avgCnt == 0 {
					row = append(row, table.Null)
				} else {
					row = append(row, table.NewFloat(acc.avgSum/float64(acc.avgCnt)))
				}
			case lplan.AggCountDistinct:
				row = append(row, table.NewInt(int64(len(acc.distinct))))
			case lplan.AggMin:
				row = append(row, acc.min)
			case lplan.AggMax:
				row = append(row, acc.max)
			}
		}
		out.rows = append(out.rows, row)
	}
	// Global aggregate over empty input yields one row.
	if len(groups) == 0 && len(a.GroupCols) == 0 {
		row := make(table.Row, len(a.Aggs))
		for i, spec := range a.Aggs {
			switch spec.Kind {
			case lplan.AggCount, lplan.AggCountIf, lplan.AggCountDistinct:
				row[i] = table.NewInt(0)
			default:
				row[i] = table.Null
			}
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

func (e *evaluator) evalSort(s *lplan.Sort) (*relation, error) {
	in, err := e.eval(s.Input)
	if err != nil {
		return nil, err
	}
	cm := in.colIndex()
	idx := make([]int, len(s.Keys))
	for i, k := range s.Keys {
		pos, ok := cm[k.Col]
		if !ok {
			return nil, fmt.Errorf("refimpl: sort key #%d missing", k.Col)
		}
		idx[i] = pos
	}
	sort.SliceStable(in.rows, func(a, b int) bool {
		ra, rb := in.rows[a], in.rows[b]
		for i, k := range s.Keys {
			c := ra[idx[i]].Order(rb[idx[i]])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return table.CompareRows(ra, rb) < 0
	})
	return in, nil
}

// EvalExpr is a tiny tree-walking expression interpreter over one row
// whose column positions cm gives, independent of the executor's
// columnar kernels; the executor's tests hold those kernels to it.
func EvalExpr(ex lplan.Expr, cm map[lplan.ColumnID]int, row table.Row) (table.Value, error) {
	switch x := ex.(type) {
	case *lplan.ColRef:
		i, ok := cm[x.ID]
		if !ok {
			return table.Null, fmt.Errorf("refimpl: column %s#%d missing", x.Name, x.ID)
		}
		return row[i], nil
	case *lplan.Const:
		return x.Val, nil
	case *lplan.Binary:
		l, err := EvalExpr(x.L, cm, row)
		if err != nil {
			return table.Null, err
		}
		// Short-circuiting must match SQL three-valued-ish semantics used
		// by the engine (NULL comparisons are false).
		if x.Op == lplan.OpAnd && l.Kind() == table.KindBool && !l.Bool() {
			return table.NewBool(false), nil
		}
		if x.Op == lplan.OpOr && l.Kind() == table.KindBool && l.Bool() {
			return table.NewBool(true), nil
		}
		r, err := EvalExpr(x.R, cm, row)
		if err != nil {
			return table.Null, err
		}
		switch x.Op {
		case lplan.OpAdd:
			return table.Add(l, r), nil
		case lplan.OpSub:
			return table.Sub(l, r), nil
		case lplan.OpMul:
			return table.Mul(l, r), nil
		case lplan.OpDiv:
			return table.Div(l, r), nil
		case lplan.OpMod:
			return table.Mod(l, r), nil
		case lplan.OpAnd:
			return table.NewBool(l.Kind() == table.KindBool && l.Bool() &&
				r.Kind() == table.KindBool && r.Bool()), nil
		case lplan.OpOr:
			return table.NewBool((l.Kind() == table.KindBool && l.Bool()) ||
				(r.Kind() == table.KindBool && r.Bool())), nil
		default:
			if l.IsNull() || r.IsNull() {
				return table.NewBool(false), nil
			}
			c := l.Compare(r)
			switch x.Op {
			case lplan.OpEq:
				return table.NewBool(l.Equal(r)), nil
			case lplan.OpNe:
				return table.NewBool(!l.Equal(r)), nil
			case lplan.OpLt:
				return table.NewBool(c < 0), nil
			case lplan.OpLe:
				return table.NewBool(c <= 0), nil
			case lplan.OpGt:
				return table.NewBool(c > 0), nil
			case lplan.OpGe:
				return table.NewBool(c >= 0), nil
			}
		}
		return table.Null, fmt.Errorf("refimpl: bad binary op")
	case *lplan.Not:
		v, err := EvalExpr(x.X, cm, row)
		if err != nil {
			return table.Null, err
		}
		// NOT of NULL or of a non-boolean is NULL, which a filter drops:
		// false, like every other predicate over NULL here.
		return table.NewBool(v.Kind() == table.KindBool && !v.Bool()), nil
	case *lplan.Neg:
		v, err := EvalExpr(x.X, cm, row)
		if err != nil {
			return table.Null, err
		}
		switch v.Kind() {
		case table.KindInt:
			return table.NewInt(-v.Int()), nil
		case table.KindFloat:
			return table.NewFloat(-v.Float()), nil
		}
		return table.Null, nil
	case *lplan.Func:
		args := make([]table.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := EvalExpr(a, cm, row)
			if err != nil {
				return table.Null, err
			}
			args[i] = v
		}
		return lplan.CallFunc(x.Name, args), nil
	case *lplan.In:
		v, err := EvalExpr(x.X, cm, row)
		if err != nil {
			return table.Null, err
		}
		if v.IsNull() {
			return table.NewBool(false), nil
		}
		// IN matches by Key() identity, as GROUP BY does: a NaN matches
		// a NaN of the same bits, and an int matches a float only when
		// Key() folds the float onto it (integral, below 1e18 in size).
		found := false
		for _, item := range x.Vals {
			if v.KeyEqual(item) {
				found = true
				break
			}
		}
		return table.NewBool(found != x.Inv), nil
	case *lplan.IsNull:
		v, err := EvalExpr(x.X, cm, row)
		if err != nil {
			return table.Null, err
		}
		return table.NewBool(v.IsNull() != x.Inv), nil
	case *lplan.Like:
		v, err := EvalExpr(x.X, cm, row)
		if err != nil {
			return table.Null, err
		}
		if v.Kind() != table.KindString {
			return table.NewBool(false), nil
		}
		return table.NewBool(likeMatch(v.Str(), x.Pattern) != x.Inv), nil
	case *lplan.Case:
		for _, w := range x.Whens {
			c, err := EvalExpr(w.Cond, cm, row)
			if err != nil {
				return table.Null, err
			}
			if c.Kind() == table.KindBool && c.Bool() {
				return EvalExpr(w.Then, cm, row)
			}
		}
		if x.Else != nil {
			return EvalExpr(x.Else, cm, row)
		}
		return table.Null, nil
	}
	return table.Null, fmt.Errorf("refimpl: unsupported expression %T", ex)
}

// likeMatch is an independent (recursive) LIKE implementation.
func likeMatch(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeMatch(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return len(s) > 0 && likeMatch(s[1:], p[1:])
	default:
		return len(s) > 0 && s[0] == p[0] && likeMatch(s[1:], p[1:])
	}
}
