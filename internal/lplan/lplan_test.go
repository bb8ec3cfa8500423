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
		{"CONCAT", []table.Value{s("a"), i(1)}, s("a1")},
		{"IF", []table.Value{table.NewBool(true), i(1), i(2)}, i(1)},
		{"IF", []table.Value{table.NewBool(false), i(1), i(2)}, i(2)},
		{"COALESCE", []table.Value{table.Null, i(7)}, i(7)},
		{"YEAR", []table.Value{i(11017)}, i(2000)},
		{"MONTH", []table.Value{i(11017)}, i(3)},
		{"STARTSWITH", []table.Value{s("promo-x"), s("promo")}, table.NewBool(true)},
	}
	for _, c := range cases {
		got := CallFunc(c.name, c.args)
		if !got.Equal(c.want) && !(got.IsNull() && c.want.IsNull()) {
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
