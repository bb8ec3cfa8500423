package catalog

import (
	"strings"
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/sql"
	"quickr/internal/table"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := New()
	fact := table.New("fact", table.NewSchema(
		table.Column{Name: "f_key", Kind: table.KindInt},
		table.Column{Name: "f_dim", Kind: table.KindInt},
		table.Column{Name: "f_val", Kind: table.KindFloat},
	), 2)
	for i := 0; i < 100; i++ {
		fact.Append(i, table.Row{
			table.NewInt(int64(i)), table.NewInt(int64(i % 10)), table.NewFloat(float64(i)),
		})
	}
	dim := table.New("dim", table.NewSchema(
		table.Column{Name: "d_key", Kind: table.KindInt},
		table.Column{Name: "d_name", Kind: table.KindString},
	), 1)
	for i := 0; i < 10; i++ {
		dim.Append(i, table.Row{table.NewInt(int64(i)), table.NewString("n")})
	}
	cat.Register(fact)
	cat.Register(dim)
	cat.SetPrimaryKey("dim", "d_key")
	return cat
}

func bind(t *testing.T, cat *Catalog, src string) lplan.Node {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewBinder(cat).Bind(stmt)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return plan
}

func TestBindResolvesColumns(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, "SELECT f_val FROM fact WHERE f_key > 5")
	var sawSelect bool
	lplan.Walk(plan, func(n lplan.Node) {
		if _, ok := n.(*lplan.Select); ok {
			sawSelect = true
		}
	})
	if !sawSelect {
		t.Error("WHERE must become a Select node")
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT missing FROM fact",
		"SELECT f_val FROM missing_table",
		"SELECT fact.f_val, SUM(f_val) FROM fact",            // mixing without GROUP BY
		"SELECT f_val FROM fact GROUP BY f_dim",              // item not grouped
		"SELECT f_key FROM fact ORDER BY f_nonexistent_name", // bad order key
	}
	for _, src := range bad {
		stmt, err := sql.Parse(src)
		if err != nil {
			continue
		}
		if _, err := NewBinder(cat).Bind(stmt); err == nil {
			t.Errorf("expected bind error for %q", src)
		}
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	cat := New()
	a := table.New("a", table.NewSchema(table.Column{Name: "x", Kind: table.KindInt}), 1)
	b := table.New("b", table.NewSchema(table.Column{Name: "x", Kind: table.KindInt}), 1)
	cat.Register(a)
	cat.Register(b)
	stmt, _ := sql.Parse("SELECT x FROM a JOIN b ON a.x = b.x")
	if _, err := NewBinder(cat).Bind(stmt); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguity not detected: %v", err)
	}
}

func TestBindExtractsEquiJoinKeys(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, "SELECT f_val FROM fact JOIN dim ON f_dim = d_key AND f_val > 1")
	var join *lplan.Join
	lplan.Walk(plan, func(n lplan.Node) {
		if j, ok := n.(*lplan.Join); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatal("no join")
	}
	if len(join.LeftKeys) != 1 || len(join.RightKeys) != 1 {
		t.Fatalf("keys: %v %v", join.LeftKeys, join.RightKeys)
	}
	if join.Residual == nil {
		t.Error("non-equi conjunct must stay as residual")
	}
	if !join.FKJoin {
		t.Error("join on dim primary key must be marked FK")
	}
}

func TestBindAggregateShape(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, `SELECT f_dim, SUM(f_val) AS s, COUNT(*) AS c
		FROM fact GROUP BY f_dim HAVING SUM(f_val) > 10`)
	var agg *lplan.Aggregate
	var selects int
	lplan.Walk(plan, func(n lplan.Node) {
		switch x := n.(type) {
		case *lplan.Aggregate:
			agg = x
		case *lplan.Select:
			selects++
		}
	})
	if agg == nil || len(agg.Aggs) != 2 || len(agg.GroupCols) != 1 {
		t.Fatalf("aggregate shape: %+v", agg)
	}
	if selects != 1 {
		t.Errorf("HAVING must bind to one Select, got %d", selects)
	}
	// The pre-aggregation projection (the precursor) must sit below.
	if _, ok := agg.Input.(*lplan.Project); !ok {
		t.Errorf("precursor project missing: %T", agg.Input)
	}
}

func TestBindDedupesAggregates(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, "SELECT f_dim, SUM(f_val), SUM(f_val) / COUNT(*) FROM fact GROUP BY f_dim")
	var agg *lplan.Aggregate
	lplan.Walk(plan, func(n lplan.Node) {
		if a, ok := n.(*lplan.Aggregate); ok {
			agg = a
		}
	})
	// SUM(f_val) appears twice in the select list but must be computed once.
	if len(agg.Aggs) != 2 {
		t.Errorf("aggs: %d want 2 (SUM deduped + COUNT)", len(agg.Aggs))
	}
}

func TestBindDistinct(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, "SELECT DISTINCT f_dim FROM fact")
	var agg *lplan.Aggregate
	lplan.Walk(plan, func(n lplan.Node) {
		if a, ok := n.(*lplan.Aggregate); ok {
			agg = a
		}
	})
	if agg == nil || len(agg.Aggs) != 0 || len(agg.GroupCols) != 1 {
		t.Errorf("DISTINCT must become group-by-all: %+v", agg)
	}
}

func TestBindUnionAll(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, "SELECT f_key FROM fact UNION ALL SELECT d_key FROM dim")
	if len(plan.Children()) != 2 {
		t.Fatalf("union children: %d", len(plan.Children()))
	}
	if len(plan.Columns()) != 1 {
		t.Fatalf("union columns: %d", len(plan.Columns()))
	}
	stmt, _ := sql.Parse("SELECT f_key, f_val FROM fact UNION ALL SELECT d_key FROM dim")
	if _, err := NewBinder(cat).Bind(stmt); err == nil {
		t.Error("arity mismatch must be a bind error")
	}
}

func TestBindLineage(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, "SELECT f_dim + 1 AS shifted FROM fact")
	cols := plan.Columns()
	if len(cols) != 1 || len(cols[0].Origins) != 1 {
		t.Fatalf("lineage: %+v", cols)
	}
	if cols[0].Origins[0] != (lplan.BaseCol{Table: "fact", Column: "f_dim"}) {
		t.Errorf("origin: %v", cols[0].Origins[0])
	}
}

func TestBindOuterJoinNormalization(t *testing.T) {
	cat := testCatalog(t)
	plan := bind(t, cat, "SELECT f_val FROM dim RIGHT JOIN fact ON f_dim = d_key")
	var join *lplan.Join
	lplan.Walk(plan, func(n lplan.Node) {
		if j, ok := n.(*lplan.Join); ok {
			join = j
		}
	})
	if join == nil || join.Kind != lplan.LeftOuterJoin {
		t.Fatalf("right outer must normalize to left outer: %+v", join)
	}
	// The preserved side (fact) must be on the left after the swap.
	if _, ok := join.Left.(*lplan.Scan); !ok {
		t.Fatalf("left side: %T", join.Left)
	}
	if join.Left.(*lplan.Scan).Table != "fact" {
		t.Errorf("preserved side: %s", join.Left.(*lplan.Scan).Table)
	}
}

// TestBindKindJoin: the binder types CASE branches, IF and COALESCE
// arguments and UNION ALL arms by the kind join — NULL ⊔ k = k,
// Int ⊔ Float = Float, anything else a bind error — widening an Int
// constant to a Float one and any other Int expression through FLOAT.
// Arithmetic and unary minus take numbers only, % integers. The
// operands of a comparison (ON keys included) and an IN operand and its
// list must join, LIKE takes a String, AND, OR, NOT and every condition
// a Bool, and SUM, AVG, SUMIF and AVGIF numbers; each misfit is a bind
// error naming the operand. A comparison is never widened.
func TestBindKindJoin(t *testing.T) {
	cat := testCatalog(t)
	ok := []struct {
		src  string
		kind table.Kind
		text string // the bound output expression, "" to skip
	}{
		{"SELECT CASE WHEN f_key > 1 THEN 1 ELSE 2.5 END FROM fact", table.KindFloat, "CASE WHEN (f_key#1 > 1) THEN 1 ELSE 2.5 END"},
		{"SELECT CASE WHEN f_key > 1 THEN f_key ELSE f_val END FROM fact", table.KindFloat, "CASE WHEN (f_key#1 > 1) THEN FLOAT(f_key#1) ELSE f_val#3 END"},
		{"SELECT CASE WHEN f_key > 1 THEN f_key END FROM fact", table.KindInt, ""},
		{"SELECT CASE WHEN f_key > 1 THEN NULL ELSE 'x' END FROM fact", table.KindString, ""},
		{"SELECT IF(f_key > 1, f_dim, f_val) FROM fact", table.KindFloat, "IF((f_key#1 > 1), FLOAT(f_dim#2), f_val#3)"},
		{"SELECT IF(f_key > 1, f_dim, NULL) FROM fact", table.KindInt, ""},
		{"SELECT COALESCE(f_key, f_val, 0) FROM fact", table.KindFloat, "COALESCE(FLOAT(f_key#1), f_val#3, 0)"},
		{"SELECT f_dim, MAX(CASE WHEN f_key > 1 THEN f_key ELSE 0.5 END) FROM fact GROUP BY f_dim", table.KindFloat, ""},
		{"SELECT -f_val FROM fact", table.KindFloat, ""},
		{"SELECT f_key + NULL FROM fact", table.KindFloat, ""},
		{"SELECT f_key FROM fact UNION ALL SELECT f_val FROM fact", table.KindFloat, ""},
		{"SELECT NULL FROM fact UNION ALL SELECT d_name FROM dim", table.KindString, ""},
		{"SELECT f_key % 3 FROM fact", table.KindInt, ""},
		{"SELECT NULL % f_key FROM fact", table.KindInt, ""},
		{"SELECT f_key FROM fact WHERE f_val > 3", table.KindInt, ""},
		{"SELECT f_key FROM fact WHERE f_key < f_val", table.KindInt, ""},
		{"SELECT f_key FROM fact WHERE NULL = f_key", table.KindInt, ""},
		{"SELECT f_key FROM fact WHERE f_key IN (NULL, 1) AND f_val IN (2, 2.5)", table.KindInt, ""},
		{"SELECT SUM(NULL), AVG(NULL) FROM fact", table.KindFloat, ""},
		{"SELECT SUMIF(NULL, f_key), COUNTIF(f_val > 2) FROM fact", table.KindInt, ""},
		{"SELECT d_name FROM dim WHERE d_name LIKE 'n%' OR NULL", table.KindString, ""},
	}
	for _, c := range ok {
		plan := bind(t, cat, c.src)
		cols := plan.Columns()
		if k := cols[len(cols)-1].Kind; k != c.kind {
			t.Errorf("%s: declared %v, want %v", c.src, k, c.kind)
		}
		if p, isProj := plan.(*lplan.Project); c.text != "" && (!isProj || p.Exprs[len(p.Exprs)-1].String() != c.text) {
			t.Errorf("%s: bound as %v, want %s", c.src, plan, c.text)
		}
	}
	// An Int constant folds to the equal Float.
	plan := bind(t, cat, "SELECT CASE WHEN f_key > 1 THEN 1 ELSE 2.5 END FROM fact")
	if c := plan.(*lplan.Project).Exprs[0].(*lplan.Case).Whens[0].Then.(*lplan.Const); c.Val.Kind() != table.KindFloat || c.Val.Float() != 1 {
		t.Errorf("THEN 1 of a Float CASE bound as %v of kind %v", c.Val, c.Val.Kind())
	}
	// The Int arm of a Float union gets one widening projection.
	plan = bind(t, cat, "SELECT f_key FROM fact UNION ALL SELECT f_val FROM fact")
	if p, isProj := plan.Children()[0].(*lplan.Project); !isProj || p.Exprs[0].String() != "FLOAT(f_key#1)" || plan.Children()[1].Columns()[0].Kind != table.KindFloat {
		t.Errorf("Int arm of a Float union: %T %v", plan.Children()[0], plan.Children()[0])
	}
	// A comparison keeps its operands as they are: a Float column
	// against an Int constant, an Int column against a Float one.
	for src, want := range map[string]string{
		"SELECT f_key FROM fact WHERE f_val > 3":     "(f_val#3 > 3)",
		"SELECT f_key FROM fact WHERE f_key < f_val": "(f_key#1 < f_val#3)",
	} {
		var pred string
		lplan.Walk(bind(t, cat, src), func(n lplan.Node) {
			if s, ok := n.(*lplan.Select); ok {
				pred = s.Pred.String()
			}
		})
		if pred != want {
			t.Errorf("%s: predicate %s, want %s", src, pred, want)
		}
	}
	bad := []string{
		"SELECT CASE WHEN f_key > 1 THEN 'x' ELSE 2.5 END FROM fact",
		"SELECT CASE WHEN f_key > 1 THEN f_key ELSE f_key > 2 END FROM fact",
		"SELECT f_dim, MAX(CASE WHEN f_key > 1 THEN 'x' ELSE 2.5 END) FROM fact GROUP BY f_dim",
		"SELECT IF(f_key > 1, d_name, f_val) FROM fact JOIN dim ON f_dim = d_key",
		"SELECT COALESCE(d_name, 1) FROM dim",
		"SELECT f_key FROM fact UNION ALL SELECT d_name FROM dim",
		"SELECT -d_name FROM dim",
		"SELECT -(f_key > 1) FROM fact",
		"SELECT 'a' + 1 FROM fact",
		"SELECT d_name * 2 FROM dim",
		"SELECT f_dim, SUM(f_val) * 'x' FROM fact GROUP BY f_dim",
	}
	for _, src := range bad {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := NewBinder(cat).Bind(stmt); err == nil {
			t.Errorf("%s: bound, want a kind error", src)
		}
	}
	// Each misfit names its operand and the operand's kind.
	for src, operand := range map[string]string{
		"SELECT d_key FROM dim WHERE d_name > 3":                                    "d_name",
		"SELECT d_key FROM dim WHERE d_key = 'x'":                                   "d_key",
		"SELECT a.d_key FROM dim a JOIN dim b ON a.d_name = b.d_key":                "d_name",
		"SELECT SUM(d_name) FROM dim":                                               "d_name",
		"SELECT AVG(d_name) FROM dim":                                               "d_name",
		"SELECT SUMIF(d_key > 1, d_name) FROM dim":                                  "d_name",
		"SELECT AVGIF(d_key > 1, d_name) FROM dim":                                  "d_name",
		"SELECT SUMIF(d_key, d_key) FROM dim":                                       "d_key",
		"SELECT COUNTIF(d_name) FROM dim":                                           "d_name",
		"SELECT d_key FROM dim WHERE d_key AND d_name":                              "d_key",
		"SELECT d_key FROM dim WHERE NOT d_key":                                     "d_key",
		"SELECT d_key FROM dim WHERE d_key LIKE '1%'":                               "d_key",
		"SELECT d_key FROM dim WHERE d_name IN (1, 2)":                              "d_name",
		"SELECT d_key FROM dim WHERE d_key BETWEEN 'a' AND 'z'":                     "d_key",
		"SELECT f_val % 2 FROM fact":                                                "f_val",
		"SELECT f_key % 2.5 FROM fact":                                              "2.5",
		"SELECT d_key FROM dim WHERE d_key":                                         "d_key",
		"SELECT a.d_key FROM dim a JOIN dim b ON a.d_key":                           "d_key",
		"SELECT f_dim, COUNT(*) FROM fact GROUP BY f_dim HAVING COUNT(*)":           "count",
		"SELECT CASE WHEN f_key THEN 1 END FROM fact":                               "f_key",
		"SELECT IF(f_val, 1, 2) FROM fact":                                          "f_val",
		"SELECT d_key, SUM(d_name) OVER (PARTITION BY d_key) FROM dim":              "d_name",
		"SELECT f_dim, SUM(f_key) FROM fact GROUP BY f_dim HAVING SUM(f_key) > 'x'": "sum",
	} {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		_, err = NewBinder(cat).Bind(stmt)
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), operand) {
			t.Errorf("%s: error %v, want a kind error naming %s", src, err, operand)
		}
	}
}
