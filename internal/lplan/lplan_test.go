package lplan

import (
	"math"
	"testing"
	"testing/quick"

	"quickr/internal/table"
)

func TestCivilRoundTrip(t *testing.T) {
	f := func(d int32) bool {
		days := int64(d % 100000)
		y, m, dd := CivilFromDays(days)
		return DaysFromCivil(y, m, dd) == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Known anchors.
	if y, m, d := CivilFromDays(0); y != 1970 || m != 1 || d != 1 {
		t.Errorf("epoch: %d-%d-%d", y, m, d)
	}
	if days := DaysFromCivil(2000, 3, 1); days != 11017 {
		t.Errorf("2000-03-01 = %d days", days)
	}
}

func TestCallFunc(t *testing.T) {
	i := table.NewInt
	f := table.NewFloat
	s := table.NewString
	cases := []struct {
		name string
		args []table.Value
		want table.Value
	}{
		{"ABS", []table.Value{i(-5)}, i(5)},
		{"ABS", []table.Value{f(-2.5)}, f(2.5)},
		{"FLOOR", []table.Value{f(2.7)}, i(2)},
		{"CEIL", []table.Value{f(2.1)}, i(3)},
		{"CEILDIV", []table.Value{i(250), i(100)}, i(3)},
		{"UPPER", []table.Value{s("abc")}, s("ABC")},
		{"LOWER", []table.Value{s("ABC")}, s("abc")},
		{"LENGTH", []table.Value{s("hello")}, i(5)},
		{"SUBSTR", []table.Value{s("hello"), i(2), i(3)}, s("ell")},
		{"SUBSTR", []table.Value{s("hello"), i(2)}, s("ello")},
		{"SUBSTR", []table.Value{s("hello"), i(2), i(-5)}, s("")},
		{"SUBSTR", []table.Value{s("hello"), i(9), i(2)}, s("")},
		{"SUBSTR", []table.Value{s("hello"), i(4), f(math.NaN())}, s("")},
		{"SUBSTR", []table.Value{s("hello"), i(4), f(math.Inf(1))}, s("lo")},
		{"UPPER", nil, table.Null},
		{"LOWER", nil, table.Null},
		{"LENGTH", nil, table.Null},
		{"UPPER", []table.Value{s("a"), s("b")}, table.Null},
		{"FLOOR", nil, table.Null},
		{"CEIL", nil, table.Null},
		{"SQRT", nil, table.Null},
		{"LN", nil, table.Null},
		{"EXP", nil, table.Null},
		{"FLOOR", []table.Value{f(2.7), i(1)}, table.Null},
		{"CEIL", []table.Value{i(1), i(2)}, table.Null},
		{"SQRT", []table.Value{f(4), f(9)}, table.Null},
		{"LN", []table.Value{f(1), f(1)}, table.Null},
		{"EXP", []table.Value{f(0), f(0)}, table.Null},
		{"SQRT", []table.Value{f(4)}, f(2)},
		{"LN", []table.Value{f(1)}, f(0)},
		{"EXP", []table.Value{f(0)}, f(1)},
		{"CONCAT", []table.Value{s("a"), i(1)}, s("a1")},
		{"IF", []table.Value{table.NewBool(true), i(1), i(2)}, i(1)},
		{"IF", []table.Value{table.NewBool(false), i(1), i(2)}, i(2)},
		{"COALESCE", []table.Value{table.Null, i(7)}, i(7)},
		{"YEAR", []table.Value{i(11017)}, i(2000)},
		{"MONTH", []table.Value{i(11017)}, i(3)},
		{"STARTSWITH", []table.Value{s("promo-x"), s("promo")}, table.NewBool(true)},
		// A non-numeric argument to a numeric function is NULL.
		{"FLOOR", []table.Value{s("abc")}, table.Null},
		{"CEIL", []table.Value{table.NewBool(true)}, table.Null},
		{"SQRT", []table.Value{s("4")}, table.Null},
		{"LN", []table.Value{s("x")}, table.Null},
		{"EXP", []table.Value{s("x")}, table.Null},
		{"CEILDIV", []table.Value{s("250"), i(100)}, table.Null},
		{"CEILDIV", []table.Value{i(250), s("100")}, table.Null},
		{"POW", []table.Value{f(2), s("3")}, table.Null},
		{"POW", []table.Value{table.NewBool(true), f(3)}, table.Null},
		{"POW", []table.Value{i(2), f(3)}, f(8)},
		// A non-string argument to a string function is NULL.
		{"UPPER", []table.Value{i(5)}, table.Null},
		{"LOWER", []table.Value{f(1.5)}, table.Null},
		{"STARTSWITH", []table.Value{i(12), s("1")}, table.Null},
		{"STARTSWITH", []table.Value{s("12"), i(1)}, table.Null},
		// ROUND takes one or two arguments, an int scale, and keeps an
		// int argument an int at any scale.
		{"ROUND", []table.Value{f(2.567), i(1), i(5)}, table.Null},
		{"ROUND", []table.Value{f(2.567), f(1)}, table.Null},
		{"ROUND", []table.Value{f(2.567), i(1)}, f(2.6)},
		{"ROUND", []table.Value{f(2.5)}, f(3)},
		{"ROUND", []table.Value{i(3)}, i(3)},
		{"ROUND", []table.Value{i(3), i(2)}, i(3)},
		{"ROUND", []table.Value{i(1250), i(-2)}, i(1300)},
		{"ROUND", []table.Value{i(-1249), i(-2)}, i(-1200)},
		{"ROUND", []table.Value{i(-1250), i(-2)}, i(-1300)},
		{"ROUND", []table.Value{i(math.MaxInt64), i(-25)}, i(0)},
		{"ROUND", []table.Value{i(math.MaxInt64), i(-1)}, table.Null},
		{"ROUND", []table.Value{i(math.MinInt64), i(-1)}, table.Null},
		{"ROUND", []table.Value{i(math.MinInt64 + 4), i(-1)}, i(math.MinInt64 + 8)},
		// SUBSTR takes two or three arguments.
		{"SUBSTR", []table.Value{s("hello"), i(2), i(2), i(9)}, table.Null},
		{"SUBSTR", []table.Value{s("hello"), s("2")}, table.Null},
	}
	for _, c := range cases {
		got := CallFunc(c.name, c.args)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("%s(%v) = %v want %v", c.name, c.args, got, c.want)
		}
	}
	// NULL propagation.
	if !CallFunc("ABS", []table.Value{table.Null}).IsNull() {
		t.Error("ABS(NULL) must be NULL")
	}
	if !CallFunc("NO_SUCH_FUNC", []table.Value{i(1)}).IsNull() {
		t.Error("unknown function must yield NULL")
	}
	if !CallFunc("CEILDIV", []table.Value{i(5), i(0)}).IsNull() {
		t.Error("CEILDIV by zero must be NULL")
	}
}

// ROUND of a float where x·10^d leaves the finite floats or the scale
// underflows: x itself when no digit of x lies past the scale (or x is
// NaN or infinite), a zero of x's sign when every digit does. Compared
// bit for bit, so the sign of a zero and a NaN count.
func TestRoundFloatEdges(t *testing.T) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	cases := []struct {
		x      float64
		digits int64
		want   float64
	}{
		{2.5, 400, 2.5},
		{2.5, -400, 0},
		{-2.5, -400, negZero},
		{1e10, 300, 1e10},
		{-1e10, 300, -1e10},
		{2.567, 1, 2.6},
		{1250, -2, 1300},
		{0, 3, 0},
		{negZero, 3, negZero},
		{negZero, -400, negZero},
		{nan, 2, nan},
		{nan, -400, nan},
		{inf, 2, inf},
		{-inf, 400, -inf},
		{inf, -400, inf},
	}
	for _, c := range cases {
		got := CallFunc("ROUND", []table.Value{table.NewFloat(c.x), table.NewInt(c.digits)})
		if got.Kind() != table.KindFloat || math.Float64bits(got.Float()) != math.Float64bits(c.want) {
			t.Errorf("ROUND(%v, %d) = %v, want %v", c.x, c.digits, got, c.want)
		}
	}
}

func TestColSetOps(t *testing.T) {
	a := NewColSet(1, 2, 3)
	b := NewColSet(3, 4)
	if got := a.Intersect(b); len(got) != 1 || !got.Has(3) {
		t.Errorf("intersect: %v", got)
	}
	if got := a.Minus(b); len(got) != 2 || got.Has(3) {
		t.Errorf("minus: %v", got)
	}
	if got := a.Union(b); len(got) != 4 {
		t.Errorf("union: %v", got)
	}
	if !NewColSet(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("subset checks broken")
	}
	if s := NewColSet(3, 1, 2).Sorted(); s[0] != 1 || s[2] != 3 {
		t.Errorf("sorted: %v", s)
	}
	if a.String() != "{1,2,3}" {
		t.Errorf("string: %s", a.String())
	}
}

func TestPlanHelpers(t *testing.T) {
	scan := &Scan{Table: "t", Cols: []ColumnInfo{{ID: 1, Name: "a", Kind: table.KindInt}}}
	sel := &Select{Input: scan, Pred: &Const{Val: table.NewBool(true)}}
	agg := &Aggregate{Input: sel, GroupCols: []ColumnID{1},
		GroupInfo: scan.Cols,
		Aggs:      []AggSpec{{Kind: AggCount, Arg: NoColumn, Out: ColumnInfo{ID: 2, Name: "c", Kind: table.KindInt}}}}
	if Depth(agg) != 3 || Count(agg) != 3 {
		t.Errorf("depth %d count %d", Depth(agg), Count(agg))
	}
	cols := agg.Columns()
	if len(cols) != 2 || cols[1].Name != "c" {
		t.Errorf("agg columns: %v", cols)
	}
	if _, ok := ColumnByID(cols, 2); !ok {
		t.Error("ColumnByID failed")
	}
	if _, ok := ColumnByID(cols, 99); ok {
		t.Error("ColumnByID must fail for unknown id")
	}
	ids := OutputIDs(agg)
	if !ids.Has(1) || !ids.Has(2) {
		t.Errorf("output ids: %v", ids)
	}
}

func TestSamplerStateClone(t *testing.T) {
	st := NewSamplerState(NewColSet(1))
	c := st.Clone()
	c.Strat.Add(2)
	if st.Strat.Has(2) {
		t.Error("clone must not alias the stratification set")
	}
	if st.DS != 1 || st.SFM != 1 {
		t.Errorf("initial state: %+v", st)
	}
}

func TestFindSamplers(t *testing.T) {
	scan := &Scan{Table: "t", Cols: []ColumnInfo{{ID: 1, Name: "a"}}}
	s1 := &Sample{Input: scan, State: NewSamplerState(nil)}
	sel := &Select{Input: s1, Pred: &Const{Val: table.NewBool(true)}}
	if got := FindSamplers(sel); len(got) != 1 || got[0] != s1 {
		t.Errorf("find samplers: %v", got)
	}
}

func TestExprColumns(t *testing.T) {
	e := &Binary{Op: OpAdd,
		L: &ColRef{ID: 3, Name: "a"},
		R: &Func{Name: "ABS", Args: []Expr{&ColRef{ID: 7, Name: "b"}}},
	}
	cols := ExprColumns(e)
	if len(cols) != 2 || !cols[3] || !cols[7] {
		t.Errorf("expr columns: %v", cols)
	}
}

func TestSamplerCosts(t *testing.T) {
	// §A: uniform cheapest, universe next (crypto hash), distinct most
	// expensive (sketch + reservoirs); a pass-through costs nothing.
	p, u := SamplerPassThrough.CostPerRow(), SamplerUniform.CostPerRow()
	v, d := SamplerUniverse.CostPerRow(), SamplerDistinct.CostPerRow()
	if !(p == 0 && p < u && u < v && v < d) {
		t.Errorf("cost ordering broken: %v %v %v %v", p, u, v, d)
	}
}
