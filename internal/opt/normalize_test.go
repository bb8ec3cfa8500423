package opt

import (
	"strings"
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/plancheck"
	"quickr/internal/table"
)

// mustVerify asserts that a normalized plan satisfies every logical
// plan invariant — each transformation-rule test below checks its
// output shape AND its invariant-cleanliness, so a rewrite can neither
// produce the wrong tree nor a subtly illegal one.
func mustVerify(t *testing.T, plan lplan.Node) {
	t.Helper()
	if err := plancheck.Logical(plan); err != nil {
		t.Fatalf("normalized plan violates invariants: %v\n%s", err, lplan.Format(plan))
	}
}

func findScan(plan lplan.Node, tbl string) *lplan.Scan {
	var out *lplan.Scan
	lplan.Walk(plan, func(n lplan.Node) {
		if s, ok := n.(*lplan.Scan); ok && s.Table == tbl {
			out = s
		}
	})
	return out
}

func countNodes(plan lplan.Node, match func(lplan.Node) bool) int {
	c := 0
	lplan.Walk(plan, func(n lplan.Node) {
		if match(n) {
			c++
		}
	})
	return c
}

func isSelect(n lplan.Node) bool { _, ok := n.(*lplan.Select); return ok }

// TestNormalizeMergesStackedSelects: stacked Select operators collapse
// into conjuncts pushed to the scan — afterwards exactly one Select
// remains, directly over the scan.
func TestNormalizeMergesStackedSelects(t *testing.T) {
	cat, est := fixture(t)
	inner := bindQ(t, cat, "SELECT f_dim, f_val FROM fact WHERE f_val > 10")
	col := inner.Columns()[0]
	stacked := &lplan.Select{
		Input: inner,
		Pred: &lplan.Binary{Op: lplan.OpGt,
			L: &lplan.ColRef{ID: col.ID, Name: col.Name, Kind: col.Kind},
			R: &lplan.Const{Val: table.NewInt(3)}},
	}
	if got := countNodes(stacked, isSelect); got != 2 {
		t.Fatalf("before: %d selects, want 2\n%s", got, lplan.Format(stacked))
	}
	plan := Normalize(stacked, est)
	if got := countNodes(plan, isSelect); got != 1 {
		t.Fatalf("after: %d selects, want 1 merged\n%s", got, lplan.Format(plan))
	}
	sel := &lplan.Select{}
	lplan.Walk(plan, func(n lplan.Node) {
		if s, ok := n.(*lplan.Select); ok {
			sel = s
		}
	})
	if _, ok := sel.Input.(*lplan.Scan); !ok {
		t.Errorf("merged select not directly over the scan:\n%s", lplan.Format(plan))
	}
	mustVerify(t, plan)
}

// TestNormalizePushesThroughPassthroughProject: a predicate over a
// column the projection passes through untouched moves below the
// projection.
func TestNormalizePushesThroughPassthroughProject(t *testing.T) {
	cat, est := fixture(t)
	base := bindQ(t, cat, "SELECT f_dim, f_val FROM fact")
	col := base.Columns()[0] // f_dim, a pass-through ColRef
	sel := &lplan.Select{
		Input: base,
		Pred: &lplan.Binary{Op: lplan.OpGt,
			L: &lplan.ColRef{ID: col.ID, Name: col.Name, Kind: col.Kind},
			R: &lplan.Const{Val: table.NewInt(3)}},
	}
	plan := Normalize(sel, est)
	// The select must now sit under every Project.
	sawSelect := false
	lplan.Walk(plan, func(n lplan.Node) {
		if _, ok := n.(*lplan.Project); ok && sawSelect {
			t.Errorf("a project ended up below the pushed select:\n%s", lplan.Format(plan))
		}
		if isSelect(n) {
			sawSelect = true
		}
	})
	if !sawSelect {
		t.Fatalf("select disappeared:\n%s", lplan.Format(plan))
	}
	mustVerify(t, plan)
}

// TestNormalizeKeepsComputedColumnPredicate: a predicate over a column
// the projection computes cannot move below it.
func TestNormalizeKeepsComputedColumnPredicate(t *testing.T) {
	cat, est := fixture(t)
	base := bindQ(t, cat, "SELECT f_val + 1 AS v FROM fact")
	col := base.Columns()[0]
	sel := &lplan.Select{
		Input: base,
		Pred: &lplan.Binary{Op: lplan.OpGt,
			L: &lplan.ColRef{ID: col.ID, Name: col.Name, Kind: col.Kind},
			R: &lplan.Const{Val: table.NewInt(3)}},
	}
	plan := Normalize(sel, est)
	// Root must still be a select over the computing project.
	root, ok := plan.(*lplan.Select)
	if !ok {
		t.Fatalf("computed-column predicate moved; root is %T:\n%s", plan, lplan.Format(plan))
	}
	if _, ok := root.Input.(*lplan.Project); !ok {
		t.Fatalf("select no longer over the project:\n%s", lplan.Format(plan))
	}
	mustVerify(t, plan)
}

// TestNormalizePrunesProjectExpressions: projection expressions whose
// outputs nothing consumes are dropped.
func TestNormalizePrunesProjectExpressions(t *testing.T) {
	cat, est := fixture(t)
	base := bindQ(t, cat, "SELECT f_dim, f_val + 1 AS v FROM fact")
	keep := base.Columns()[0]
	top := &lplan.Project{
		Input: base,
		Exprs: []lplan.Expr{&lplan.ColRef{ID: keep.ID, Name: keep.Name, Kind: keep.Kind}},
		Cols:  []lplan.ColumnInfo{keep},
	}
	plan := Normalize(top, est)
	text := lplan.Format(plan)
	if strings.Contains(text, "+") {
		t.Errorf("unused computed expression survived pruning:\n%s", text)
	}
	if sc := findScan(plan, "fact"); sc == nil || len(sc.Cols) != 1 {
		t.Errorf("scan not pruned to the single consumed column:\n%s", text)
	}
	mustVerify(t, plan)
}

// TestNormalizePreservesScanWeightColumn is the regression test for
// pruneColumns rebuilding a Scan without its apriori-sample weight
// column: the rebuilt scan silently reset every row weight to 1 and
// biased BlinkDB-baseline estimates by 1/p. This test, plancheck's
// weight-propagation rule and TestSoundnessSweep's weight algebra guard
// this threading now.
func TestNormalizePreservesScanWeightColumn(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, "SELECT f_dim, COUNT(*) FROM fact GROUP BY f_dim")
	// Attach a weight column to the fact scan, as the BlinkDB baseline's
	// substituteScan does, then re-normalize (which prunes f_val/f_tag
	// and therefore rebuilds the scan node).
	var rewrite func(n lplan.Node) lplan.Node
	rewrite = func(n lplan.Node) lplan.Node {
		if s, ok := n.(*lplan.Scan); ok && s.Table == "fact" {
			return &lplan.Scan{Table: s.Table, Cols: s.Cols, WeightColumn: "_w"}
		}
		ch := n.Children()
		if len(ch) == 0 {
			return n
		}
		newCh := make([]lplan.Node, len(ch))
		for i, c := range ch {
			newCh[i] = rewrite(c)
		}
		return n.WithChildren(newCh)
	}
	plan = rewrite(plan)
	plan = Normalize(plan, est)
	sc := findScan(plan, "fact")
	if sc == nil {
		t.Fatalf("fact scan disappeared:\n%s", lplan.Format(plan))
	}
	if len(sc.Cols) >= 4 {
		t.Fatalf("scan not pruned (%d cols), regression setup broken", len(sc.Cols))
	}
	if sc.WeightColumn != "_w" {
		t.Fatalf("pruneColumns dropped the weight column: %+v", sc)
	}
	mustVerify(t, plan)
}

// TestNormalizeOrdersJoinInputsBySize: a non-FK inner join puts the
// estimated-smaller input on the right (the hash-join build side); FK
// joins keep their fact-left/dimension-right orientation.
func TestNormalizeOrdersJoinInputsBySize(t *testing.T) {
	cat, est := fixture(t)
	small := bindQ(t, cat, "SELECT d_key FROM dim")
	big := bindQ(t, cat, "SELECT f_dim, f_val FROM fact")
	join := &lplan.Join{
		Kind:      lplan.InnerJoin,
		Left:      small,
		Right:     big,
		LeftKeys:  []lplan.ColumnID{small.Columns()[0].ID},
		RightKeys: []lplan.ColumnID{big.Columns()[0].ID},
	}
	if est.Props(join.Left).Bytes() >= est.Props(join.Right).Bytes() {
		t.Fatalf("fixture broken: left side not smaller")
	}
	plan := Normalize(join, est)
	j, ok := plan.(*lplan.Join)
	if !ok {
		t.Fatalf("root is %T", plan)
	}
	if findScan(j.Right, "dim") == nil {
		t.Errorf("smaller input not moved to the build side:\n%s", lplan.Format(plan))
	}
	if findScan(j.Left, "fact") == nil {
		t.Errorf("larger input not moved to the probe side:\n%s", lplan.Format(plan))
	}
	mustVerify(t, plan)

	// FK join: same shape query through the binder keeps the dimension
	// on the right and is not reordered (it is already oriented).
	fk := bindQ(t, cat, "SELECT f_val FROM fact JOIN dim ON f_dim = d_key")
	fkPlan := Normalize(fk, est)
	var fkJoin *lplan.Join
	lplan.Walk(fkPlan, func(n lplan.Node) {
		if jn, ok := n.(*lplan.Join); ok {
			fkJoin = jn
		}
	})
	if fkJoin == nil || !fkJoin.FKJoin {
		t.Fatalf("expected an FK join:\n%s", lplan.Format(fkPlan))
	}
	if findScan(fkJoin.Right, "dim") == nil {
		t.Errorf("FK join lost its dimension-right orientation:\n%s", lplan.Format(fkPlan))
	}
	mustVerify(t, fkPlan)
}
