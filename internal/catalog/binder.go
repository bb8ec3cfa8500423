package catalog

import (
	"fmt"
	"strings"

	"quickr/internal/lplan"
	"quickr/internal/sql"
	"quickr/internal/table"
)

// Binder resolves names in a parsed statement against the catalog and
// produces a bound logical plan with globally unique column IDs.
type Binder struct {
	cat    *Catalog
	nextID lplan.ColumnID
	// lineage maps every allocated ColumnID to its base-column origins;
	// ASALQA and the statistics layer consume it through ColumnInfo.
	lineage map[lplan.ColumnID][]lplan.BaseCol
}

// NewBinder creates a binder for one statement.
func NewBinder(cat *Catalog) *Binder { return &Binder{cat: cat, nextID: 1} }

// Bind converts the SELECT AST into a logical plan.
func (b *Binder) Bind(sel *sql.SelectStmt) (lplan.Node, error) {
	node, _, err := b.bindSelect(sel)
	return node, err
}

func (b *Binder) newID() lplan.ColumnID {
	id := b.nextID
	b.nextID++
	return id
}

// scope maps visible relation aliases to their columns.
type scope struct {
	rels  []scopeRel
	outer *scope
}

type scopeRel struct {
	alias string
	cols  []lplan.ColumnInfo
}

func (s *scope) resolve(tbl, col string) (lplan.ColumnInfo, error) {
	var found []lplan.ColumnInfo
	for _, r := range s.rels {
		if tbl != "" && !strings.EqualFold(r.alias, tbl) {
			continue
		}
		for _, c := range r.cols {
			if strings.EqualFold(c.Name, col) {
				found = append(found, c)
			}
		}
	}
	switch len(found) {
	case 1:
		return found[0], nil
	case 0:
		if s.outer != nil {
			return s.outer.resolve(tbl, col)
		}
		if tbl != "" {
			return lplan.ColumnInfo{}, fmt.Errorf("bind: unknown column %s.%s", tbl, col)
		}
		return lplan.ColumnInfo{}, fmt.Errorf("bind: unknown column %s", col)
	default:
		return lplan.ColumnInfo{}, fmt.Errorf("bind: ambiguous column %s", col)
	}
}

func (b *Binder) bindSelect(sel *sql.SelectStmt) (lplan.Node, []lplan.ColumnInfo, error) {
	head, headCols, err := b.bindSelectCore(sel)
	if err != nil {
		return nil, nil, err
	}
	if len(sel.UnionAll) == 0 {
		return head, headCols, nil
	}
	inputs := []lplan.Node{head}
	kinds := make([][]table.Kind, len(headCols)) // by column, by arm
	for i, c := range headCols {
		kinds[i] = []table.Kind{c.Kind}
	}
	for _, u := range sel.UnionAll {
		n, cols, err := b.bindSelectCore(u)
		if err != nil {
			return nil, nil, err
		}
		if len(cols) != len(headCols) {
			return nil, nil, fmt.Errorf("bind: UNION ALL arms have %d vs %d columns", len(headCols), len(cols))
		}
		for i, c := range cols {
			kinds[i] = append(kinds[i], c.Kind)
		}
		inputs = append(inputs, n)
	}
	// The arms' columns take their kind join, an arm's Int column widened
	// where it is Float.
	want := make([]table.Kind, len(headCols))
	for i := range want {
		k, ok := lplan.JoinKinds(kinds[i]...)
		if !ok {
			return nil, nil, fmt.Errorf("bind: UNION ALL column %s mixes kinds %v", headCols[i].Name, kinds[i])
		}
		want[i] = k
	}
	for a, in := range inputs {
		inputs[a] = b.widenArm(in, want)
	}
	// Union output gets fresh column ids; executor aligns positionally.
	outCols := make([]lplan.ColumnInfo, len(headCols))
	for i, c := range headCols {
		var origins []lplan.BaseCol
		for _, in := range inputs {
			origins = append(origins, in.Columns()[i].Origins...)
		}
		outCols[i] = lplan.ColumnInfo{ID: b.newID(), Name: c.Name, Kind: want[i], Origins: origins}
	}
	return &unionWrap{UnionAll: lplan.UnionAll{Inputs: inputs}, cols: outCols}, outCols, nil
}

// widenArm returns a UNION ALL arm whose columns have the kinds want: the
// arm itself, or a projection over it that widens (widen) its Int
// columns where want is Float.
func (b *Binder) widenArm(arm lplan.Node, want []table.Kind) lplan.Node {
	cols := arm.Columns()
	exprs, out, widened := make([]lplan.Expr, len(cols)), make([]lplan.ColumnInfo, len(cols)), false
	for i, c := range cols {
		exprs[i], out[i] = &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind}, c
		if c.Kind == table.KindInt && want[i] == table.KindFloat {
			exprs[i] = widen(exprs[i], want[i])
			out[i] = b.exprColumn(exprs[i], c.Name)
			b.recordLineage(out[i])
			widened = true
		}
	}
	if !widened {
		return arm
	}
	return &lplan.Project{Input: arm, Exprs: exprs, Cols: out}
}

// unionWrap specializes UnionAll with explicit output columns.
type unionWrap struct {
	lplan.UnionAll
	cols []lplan.ColumnInfo
}

// Columns overrides UnionAll's column passthrough.
func (u *unionWrap) Columns() []lplan.ColumnInfo { return u.cols }

// WithChildren keeps the explicit columns.
func (u *unionWrap) WithChildren(ch []lplan.Node) lplan.Node {
	return &unionWrap{UnionAll: lplan.UnionAll{Inputs: ch}, cols: u.cols}
}

func (b *Binder) bindSelectCore(sel *sql.SelectStmt) (lplan.Node, []lplan.ColumnInfo, error) {
	sc := &scope{}
	var node lplan.Node
	var err error
	if sel.From != nil {
		node, err = b.bindTableExpr(sel.From, sc)
		if err != nil {
			return nil, nil, err
		}
	} else {
		return nil, nil, fmt.Errorf("bind: SELECT without FROM is not supported")
	}

	if sel.Where != nil {
		pred, err := b.bindScalar(sel.Where, sc)
		if err == nil {
			err = misfit("WHERE", pred, lplan.KindOf(pred), booleans)
		}
		if err != nil {
			return nil, nil, err
		}
		node = &lplan.Select{Input: node, Pred: pred}
	}

	hasAgg := len(sel.GroupBy) > 0
	hasWin := false
	for _, it := range sel.Items {
		if !it.Star && sql.HasAggregate(it.Expr) {
			hasAgg = true
		}
		if !it.Star && sql.HasWindow(it.Expr) {
			hasWin = true
		}
	}
	if sel.Having != nil {
		hasAgg = true
	}

	var outCols []lplan.ColumnInfo
	if hasWin {
		node, outCols, err = b.bindWindowed(sel, node, sc)
		if err != nil {
			return nil, nil, err
		}
	} else if hasAgg {
		node, outCols, err = b.bindAggregate(sel, node, sc)
		if err != nil {
			return nil, nil, err
		}
	} else {
		node, outCols, err = b.bindPlainProjection(sel, node, sc)
		if err != nil {
			return nil, nil, err
		}
		if sel.Distinct {
			// SELECT DISTINCT == GROUP BY all output columns.
			gids := make([]lplan.ColumnID, len(outCols))
			for i, c := range outCols {
				gids[i] = c.ID
			}
			node = &lplan.Aggregate{Input: node, GroupCols: gids, GroupInfo: outCols}
		}
	}

	// ORDER BY: resolve against output aliases, ordinals, or re-bindable
	// output expressions.
	if len(sel.OrderBy) > 0 {
		keys := make([]lplan.SortKey, 0, len(sel.OrderBy))
		for _, oi := range sel.OrderBy {
			id, err := b.resolveOrderKey(oi.Expr, sel, outCols)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, lplan.SortKey{Col: id, Desc: oi.Desc})
		}
		node = &lplan.Sort{Input: node, Keys: keys}
	}
	if sel.Limit >= 0 {
		node = &lplan.Limit{Input: node, N: sel.Limit}
	}
	return node, outCols, nil
}

func (b *Binder) resolveOrderKey(e sql.Expr, sel *sql.SelectStmt, outCols []lplan.ColumnInfo) (lplan.ColumnID, error) {
	// Ordinal?
	if lit, ok := e.(*sql.Literal); ok && lit.Val.Kind() == table.KindInt {
		i := lit.Val.Int()
		if i < 1 || int(i) > len(outCols) {
			return 0, fmt.Errorf("bind: ORDER BY ordinal %d out of range", i)
		}
		return outCols[i-1].ID, nil
	}
	// Alias or column-name match against output.
	if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
		for _, c := range outCols {
			if strings.EqualFold(c.Name, cr.Name) {
				return c.ID, nil
			}
		}
	}
	// Textual match against a select item.
	want := e.String()
	for i, it := range sel.Items {
		if !it.Star && it.Expr.String() == want {
			return outCols[i].ID, nil
		}
	}
	return 0, fmt.Errorf("bind: ORDER BY key %s must appear in the select list", e.String())
}

func (b *Binder) bindPlainProjection(sel *sql.SelectStmt, node lplan.Node, sc *scope) (lplan.Node, []lplan.ColumnInfo, error) {
	var exprs []lplan.Expr
	var cols []lplan.ColumnInfo
	for _, it := range sel.Items {
		if it.Star {
			for _, r := range sc.rels {
				for _, c := range r.cols {
					exprs = append(exprs, &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind})
					cols = append(cols, c)
				}
			}
			continue
		}
		e, err := b.bindScalar(it.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		ci := b.exprColumn(e, name)
		exprs = append(exprs, e)
		cols = append(cols, ci)
	}
	return &lplan.Project{Input: node, Exprs: exprs, Cols: cols}, cols, nil
}

// exprColumn derives ColumnInfo for a computed expression: pass-through
// ColRefs keep their ID; anything else gets a fresh ID with merged
// origins.
func (b *Binder) exprColumn(e lplan.Expr, name string) lplan.ColumnInfo {
	if cr, ok := e.(*lplan.ColRef); ok {
		return lplan.ColumnInfo{ID: cr.ID, Name: name, Kind: cr.Kind, Origins: b.originsOf(e)}
	}
	return lplan.ColumnInfo{ID: b.newID(), Name: name, Kind: lplan.KindOf(e), Origins: b.originsOf(e)}
}

// originsOf unions base-column lineage across the expression; the binder
// tracks lineage per ColumnID in boundOrigins.
func (b *Binder) originsOf(e lplan.Expr) []lplan.BaseCol {
	seen := map[lplan.BaseCol]bool{}
	var out []lplan.BaseCol
	lplan.WalkExpr(e, func(x lplan.Expr) {
		if cr, ok := x.(*lplan.ColRef); ok {
			for _, o := range b.lineage[cr.ID] {
				if !seen[o] {
					seen[o] = true
					out = append(out, o)
				}
			}
		}
	})
	return out
}

func exprName(e sql.Expr) string {
	if cr, ok := e.(*sql.ColumnRef); ok {
		return cr.Name
	}
	s := e.String()
	if len(s) > 40 {
		s = s[:40]
	}
	return s
}

func (b *Binder) bindTableExpr(te sql.TableExpr, sc *scope) (lplan.Node, error) {
	switch t := te.(type) {
	case *sql.TableName:
		tbl, err := b.cat.Table(t.Name)
		if err != nil {
			return nil, err
		}
		cols := make([]lplan.ColumnInfo, tbl.Schema.Len())
		for i, c := range tbl.Schema.Cols {
			ci := lplan.ColumnInfo{
				ID:      b.newID(),
				Name:    c.Name,
				Kind:    c.Kind,
				Origins: []lplan.BaseCol{{Table: tbl.Name, Column: c.Name}},
			}
			cols[i] = ci
			b.recordLineage(ci)
		}
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		sc.rels = append(sc.rels, scopeRel{alias: alias, cols: cols})
		// Base-table scans are unweighted; apriori-sample substitution
		// (analysis.substituteScan) is what sets a weight column later.
		return &lplan.Scan{Table: tbl.Name, Cols: cols, WeightColumn: ""}, nil
	case *sql.JoinExpr:
		left, err := b.bindTableExpr(t.Left, sc)
		if err != nil {
			return nil, err
		}
		right, err := b.bindTableExpr(t.Right, sc)
		if err != nil {
			return nil, err
		}
		join := &lplan.Join{Left: left, Right: right}
		switch t.Kind {
		case sql.JoinInner:
			join.Kind = lplan.InnerJoin
		case sql.JoinLeftOuter:
			join.Kind = lplan.LeftOuterJoin
		case sql.JoinRightOuter:
			// Normalize RIGHT OUTER to LEFT OUTER by swapping inputs.
			join.Kind = lplan.LeftOuterJoin
			join.Left, join.Right = right, left
		default:
			return nil, fmt.Errorf("bind: unsupported join kind %v", t.Kind)
		}
		if t.On != nil {
			on, err := b.bindScalar(t.On, sc)
			if err == nil {
				err = misfit("ON", on, lplan.KindOf(on), booleans)
			}
			if err != nil {
				return nil, err
			}
			b.extractJoinKeys(join, on)
		}
		b.markFKJoin(join)
		return join, nil
	case *sql.Subquery:
		sub, cols, err := b.bindSelect(t.Select)
		if err != nil {
			return nil, err
		}
		sc.rels = append(sc.rels, scopeRel{alias: t.Alias, cols: cols})
		return sub, nil
	}
	return nil, fmt.Errorf("bind: unsupported table expression %T", te)
}

// extractJoinKeys splits an ON condition into equi-key pairs and a
// residual predicate.
func (b *Binder) extractJoinKeys(j *lplan.Join, on lplan.Expr) {
	leftIDs := lplan.OutputIDs(j.Left)
	rightIDs := lplan.OutputIDs(j.Right)
	var residuals []lplan.Expr
	var visit func(e lplan.Expr)
	visit = func(e lplan.Expr) {
		if bin, ok := e.(*lplan.Binary); ok {
			if bin.Op == lplan.OpAnd {
				visit(bin.L)
				visit(bin.R)
				return
			}
			if bin.Op == lplan.OpEq {
				lc, lok := bin.L.(*lplan.ColRef)
				rc, rok := bin.R.(*lplan.ColRef)
				if lok && rok {
					switch {
					case leftIDs.Has(lc.ID) && rightIDs.Has(rc.ID):
						j.LeftKeys = append(j.LeftKeys, lc.ID)
						j.RightKeys = append(j.RightKeys, rc.ID)
						return
					case leftIDs.Has(rc.ID) && rightIDs.Has(lc.ID):
						j.LeftKeys = append(j.LeftKeys, rc.ID)
						j.RightKeys = append(j.RightKeys, lc.ID)
						return
					}
				}
			}
		}
		residuals = append(residuals, e)
	}
	visit(on)
	j.Residual = conjoin(residuals)
}

func conjoin(es []lplan.Expr) lplan.Expr {
	var out lplan.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &lplan.Binary{Op: lplan.OpAnd, L: out, R: e}
		}
	}
	return out
}

// markFKJoin marks joins whose right side is a base-table scan joined on
// its full declared primary key.
func (b *Binder) markFKJoin(j *lplan.Join) {
	scan, ok := j.Right.(*lplan.Scan)
	if !ok || len(j.RightKeys) == 0 {
		return
	}
	pk := b.cat.PrimaryKey(scan.Table)
	if len(pk) == 0 || len(pk) != len(j.RightKeys) {
		return
	}
	match := 0
	for _, id := range j.RightKeys {
		if ci, ok := lplan.ColumnByID(scan.Cols, id); ok {
			for _, p := range pk {
				if strings.EqualFold(ci.Name, p) {
					match++
					break
				}
			}
		}
	}
	j.FKJoin = match == len(pk)
}

// lineage maps ColumnID to base columns (populated as columns are
// created).
func (b *Binder) recordLineage(ci lplan.ColumnInfo) {
	if b.lineage == nil {
		b.lineage = map[lplan.ColumnID][]lplan.BaseCol{}
	}
	b.lineage[ci.ID] = ci.Origins
}
