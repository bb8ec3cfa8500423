package exec

import (
	"context"
	"testing"
	"testing/quick"

	"quickr/internal/lplan"
	"quickr/internal/refimpl"
	"quickr/internal/table"
)

// evalRow evaluates e's kernel over a one-lane batch holding row, and
// holds the result to refimpl's evaluator on the same row.
func evalRow(t *testing.T, e lplan.Expr, cols []lplan.ColumnInfo, row table.Row) table.Value {
	t.Helper()
	mem := newLedger()
	cm := buildColMap(cols)
	k, err := compileColKernel(e, cm, mem)
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{n: 1}
	for _, v := range row {
		bd := vecBuilder{mem: mem}
		bd.append(v)
		b.cols = append(b.cols, bd.build())
	}
	out := k(&b)
	got := out.Value(0)
	want, err := refimpl.EvalExpr(e, cm, row)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != want.Kind() || got.Key() != want.Key() {
		t.Errorf("%s: kernel %v, refimpl %v", e, got, want)
	}
	return got
}

func TestCompileArithmeticAndComparison(t *testing.T) {
	cols := []lplan.ColumnInfo{
		{ID: 1, Name: "a", Kind: table.KindInt},
		{ID: 2, Name: "b", Kind: table.KindFloat},
	}
	a := &lplan.ColRef{ID: 1, Name: "a", Kind: table.KindInt}
	b := &lplan.ColRef{ID: 2, Name: "b", Kind: table.KindFloat}
	row := table.Row{table.NewInt(7), table.NewFloat(2.5)}

	cases := []struct {
		e    lplan.Expr
		want table.Value
	}{
		{&lplan.Binary{Op: lplan.OpAdd, L: a, R: b}, table.NewFloat(9.5)},
		{&lplan.Binary{Op: lplan.OpMul, L: a, R: a}, table.NewInt(49)},
		{&lplan.Binary{Op: lplan.OpDiv, L: a, R: &lplan.Const{Val: table.NewInt(2)}}, table.NewFloat(3.5)},
		{&lplan.Binary{Op: lplan.OpMod, L: a, R: &lplan.Const{Val: table.NewInt(4)}}, table.NewInt(3)},
		{&lplan.Binary{Op: lplan.OpGt, L: a, R: b}, table.NewBool(true)},
		{&lplan.Binary{Op: lplan.OpEq, L: a, R: &lplan.Const{Val: table.NewFloat(7)}}, table.NewBool(true)},
		{&lplan.Not{X: &lplan.Binary{Op: lplan.OpLt, L: a, R: b}}, table.NewBool(true)},
		{&lplan.Neg{X: a}, table.NewInt(-7)},
		{&lplan.IsNull{X: a}, table.NewBool(false)},
		{&lplan.IsNull{X: a, Inv: true}, table.NewBool(true)},
		{&lplan.In{X: a, Vals: []table.Value{table.NewInt(3), table.NewInt(7)}}, table.NewBool(true)},
		{&lplan.In{X: a, Vals: []table.Value{table.NewInt(3)}, Inv: true}, table.NewBool(true)},
		{&lplan.Case{
			Whens: []lplan.When{{Cond: &lplan.Binary{Op: lplan.OpGt, L: a, R: &lplan.Const{Val: table.NewInt(5)}},
				Then: &lplan.Const{Val: table.NewString("big")}}},
			Else: &lplan.Const{Val: table.NewString("small")},
		}, table.NewString("big")},
		{&lplan.Func{Name: "ABS", Args: []lplan.Expr{&lplan.Neg{X: a}}}, table.NewInt(7)},
	}
	for _, c := range cases {
		got := evalRow(t, c.e, cols, row)
		if !got.Equal(c.want) && got.String() != c.want.String() {
			t.Errorf("%s = %v want %v", c.e, got, c.want)
		}
	}
}

func TestCompileNullSemantics(t *testing.T) {
	cols := []lplan.ColumnInfo{{ID: 1, Name: "a", Kind: table.KindInt}}
	a := &lplan.ColRef{ID: 1, Name: "a", Kind: table.KindInt}
	row := table.Row{table.Null}
	// NULL comparisons are false; NULL arithmetic is NULL; IS NULL true.
	if v := evalRow(t, &lplan.Binary{Op: lplan.OpEq, L: a, R: a}, cols, row); v.Bool() {
		t.Error("NULL = NULL must be false")
	}
	if v := evalRow(t, &lplan.Binary{Op: lplan.OpAdd, L: a, R: a}, cols, row); !v.IsNull() {
		t.Error("NULL + NULL must be NULL")
	}
	if v := evalRow(t, &lplan.IsNull{X: a}, cols, row); !v.Bool() {
		t.Error("IS NULL broken")
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	if _, err := compileColKernel(&lplan.ColRef{ID: 99, Name: "x", Kind: table.KindInt}, colMap{}, newLedger()); err == nil {
		t.Error("unknown column must fail compilation")
	}
}

// Property: the executor's optimized LIKE matcher agrees with a
// straightforward recursive implementation on random inputs.
func TestCompileLikeAgainstNaive(t *testing.T) {
	var naive func(s, p string) bool
	naive = func(s, p string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if naive(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			return len(s) > 0 && naive(s[1:], p[1:])
		default:
			return len(s) > 0 && s[0] == p[0] && naive(s[1:], p[1:])
		}
	}
	alphabet := []byte("ab%_")
	f := func(sRaw, pRaw []byte) bool {
		if len(sRaw) > 12 || len(pRaw) > 8 {
			return true // keep the naive matcher's recursion cheap
		}
		s := make([]byte, len(sRaw))
		for i, c := range sRaw {
			s[i] = "ab"[int(c)%2]
		}
		p := make([]byte, len(pRaw))
		for i, c := range pRaw {
			p[i] = alphabet[int(c)%len(alphabet)]
		}
		return compileLike(string(p))(string(s)) == naive(string(s), string(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParallelPartsErrors(t *testing.T) {
	calls := 0
	if err := fanout(context.Background()).parallel(0, func(int) error { calls++; return nil }); err != nil || calls != 0 {
		t.Error("zero partitions must be a no-op")
	}
	err := fanout(context.Background()).parallel(8, func(i int) error {
		if i == 3 {
			return errColMissing(0)
		}
		return nil
	})
	if err == nil {
		t.Error("worker error must propagate")
	}
}
