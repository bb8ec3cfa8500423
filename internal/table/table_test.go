package table

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "NULL"},
		{NewInt(42), KindInt, "42"},
		{NewInt(-7), KindInt, "-7"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("abc"), KindString, "abc"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind %v want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v: string %q want %q", c.v, c.v.String(), c.str)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	if Null.Equal(Null) {
		t.Error("NULL must not equal NULL")
	}
	if Null.Equal(NewInt(0)) || NewInt(0).Equal(Null) {
		t.Error("NULL must not equal 0")
	}
	if Null.Compare(NewInt(-999)) != -1 {
		t.Error("NULL must sort first")
	}
	if !Add(Null, NewInt(1)).IsNull() {
		t.Error("NULL + 1 must be NULL")
	}
}

func TestCrossKindNumericEquality(t *testing.T) {
	if !NewInt(2).Equal(NewFloat(2.0)) {
		t.Error("2 must equal 2.0")
	}
	if NewInt(2).Compare(NewFloat(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if NewInt(2).Key() != NewFloat(2.0).Key() {
		t.Error("map keys of 2 and 2.0 must collide (Equal consistency)")
	}
	if NewInt(2).Hash64() != NewFloat(2.0).Hash64() {
		t.Error("hashes of 2 and 2.0 must collide (Equal consistency)")
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(NewInt(2), NewInt(3)); got.Kind() != KindInt || got.Int() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := Div(NewInt(7), NewInt(2)); math.Abs(got.Float()-3.5) > 1e-12 {
		t.Errorf("7/2 = %v", got)
	}
	if !Div(NewInt(1), NewInt(0)).IsNull() {
		t.Error("division by zero must be NULL")
	}
	if got := Mod(NewInt(7), NewInt(3)); got.Int() != 1 {
		t.Errorf("7%%3 = %v", got)
	}
	if !Mod(NewFloat(7), NewInt(3)).IsNull() {
		t.Error("float mod must be NULL")
	}
	if got := Mul(NewInt(4), NewFloat(0.5)); got.Kind() != KindFloat || got.Float() != 2 {
		t.Errorf("4*0.5 = %v", got)
	}
}

// Property: Compare is antisymmetric and consistent with Equal for
// non-null numeric values.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		c1, c2 := va.Compare(vb), vb.Compare(va)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal values have equal hashes and keys.
func TestHashKeyConsistency(t *testing.T) {
	f := func(x int64, s string) bool {
		a, b := NewInt(x), NewInt(x)
		if a.Hash64() != b.Hash64() || a.Key() != b.Key() {
			return false
		}
		sa, sb := NewString(s), NewString(s)
		return sa.Hash64() == sb.Hash64() && sa.Key() == sb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// AppendKey must produce exactly Key()'s bytes: the distinct sampler
// builds its stratum keys with it, the statistics with Key().
func TestAppendKeyMatchesKey(t *testing.T) {
	vals := []Value{
		Null, NewInt(0), NewInt(-42), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(2), NewFloat(-0.0), NewFloat(2.5), NewFloat(1e18), NewFloat(-1e19),
		NewFloat(math.Inf(1)), NewFloat(math.NaN()), NewFloat(math.SmallestNonzeroFloat64),
		NewString(""), NewString("s"), NewString("a\x00b"), NewBool(true), NewBool(false),
	}
	for _, v := range vals {
		if got := string(v.AppendKey([]byte("x"))); got != "x"+v.Key() {
			t.Errorf("%v: AppendKey %q, Key %q", v, got[1:], v.Key())
		}
	}
	f := func(i int64, x float64, s string) bool {
		for _, v := range []Value{NewInt(i), NewFloat(x), NewFloat(float64(i)), NewString(s)} {
			if string(v.AppendKey(nil)) != v.Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTablePartitioning(t *testing.T) {
	sc := NewSchema(Column{Name: "a", Kind: KindInt})
	tbl := New("t", sc, 4)
	for i := 0; i < 10; i++ {
		tbl.Append(i, Row{NewInt(int64(i))})
	}
	if tbl.NumRows() != 10 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if len(tbl.Partitions) != 4 {
		t.Fatalf("partitions = %d", len(tbl.Partitions))
	}
	if got := len(tbl.AllRows()); got != 10 {
		t.Fatalf("AllRows = %d", got)
	}
}

func TestCompareRowsLexicographic(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if CompareRows(a, b) != -1 || CompareRows(b, a) != 1 || CompareRows(a, a) != 0 {
		t.Error("lexicographic row comparison broken")
	}
	short := Row{NewInt(1)}
	if CompareRows(short, a) != -1 {
		t.Error("shorter row must sort first on tie")
	}
}

func TestHashRowDependsOnlyOnIndexedCols(t *testing.T) {
	r1 := Row{NewInt(1), NewString("x"), NewFloat(9)}
	r2 := Row{NewInt(1), NewString("y"), NewFloat(8)}
	if HashRow(r1, []int{0}, 3) != HashRow(r2, []int{0}, 3) {
		t.Error("hash over col 0 must ignore other columns")
	}
	if HashRow(r1, []int{0}, 3) == HashRow(r1, []int{0}, 4) {
		t.Error("different seeds should give different hashes (overwhelmingly)")
	}
}

func TestSchemaIndex(t *testing.T) {
	sc := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	if sc.Index("b") != 1 || sc.Index("missing") != -1 {
		t.Error("schema index lookup broken")
	}
	if sc.String() != "(a BIGINT, b VARCHAR)" {
		t.Errorf("schema string: %s", sc.String())
	}
}

// Order is a strict weak order over every kind, NaN included: it is
// antisymmetric, its ties are transitive and its "less" is transitive,
// a NaN sorts after every number and ties only a NaN, and wherever
// Compare does not tie a NaN with a number the two agree.
func TestOrderIsStrictWeak(t *testing.T) {
	nan := NewFloat(math.NaN())
	vals := []Value{Null, nan, NewFloat(math.Float64frombits(0x7ff8000000000001)), NewFloat(math.Inf(-1)),
		NewFloat(-1.5), NewInt(-1), NewFloat(math.Copysign(0, -1)), NewInt(0), NewFloat(0), NewInt(2),
		NewFloat(2.5), NewFloat(math.Inf(1)), NewString(""), NewString("a"), NewBool(false), NewBool(true)}
	isNaN := func(v Value) bool { return v.Kind() == KindFloat && math.IsNaN(v.Float()) }
	for _, a := range vals {
		for _, b := range vals {
			ab := a.Order(b)
			if ab != -b.Order(a) {
				t.Fatalf("Order(%v, %v) = %d, reverse %d", a, b, ab, b.Order(a))
			}
			switch {
			case isNaN(a) && isNaN(b):
				if ab != 0 {
					t.Fatalf("Order(%v, %v) = %d, want 0", a, b, ab)
				}
			case isNaN(a) && b.IsNumeric():
				if ab != 1 {
					t.Fatalf("Order(%v, %v) = %d, want 1", a, b, ab)
				}
			case !isNaN(a) && !isNaN(b) && ab != a.Compare(b):
				t.Fatalf("Order(%v, %v) = %d, Compare %d", a, b, ab, a.Compare(b))
			}
			for _, c := range vals {
				bc, ac := b.Order(c), a.Order(c)
				if ab == 0 && bc == 0 && ac != 0 || ab < 0 && bc < 0 && ac >= 0 {
					t.Fatalf("Order not transitive over %v, %v, %v: %d %d %d", a, b, c, ab, bc, ac)
				}
			}
		}
	}
}

// Append holds every value to its column's kind by Schema.Fit: NULL
// fits anything, an int widens into a Float column in place, and any
// other mismatch panics before the row lands.
func TestTableAppendHoldsSchema(t *testing.T) {
	tbl := New("fit", NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "f", Kind: KindFloat}), 1)
	r := Row{NewInt(1), NewInt(2)}
	tbl.Append(0, r)
	tbl.Append(0, Row{Null, Null})
	if r[1].Kind() != KindFloat || r[1].Float() != 2 {
		t.Fatalf("int into a Float column stored as %v of kind %v", r[1], r[1].Kind())
	}
	if f := tbl.Columnar(0).Cols[1]; f.K != VKFloat || f.Floats[0] != 2 {
		t.Fatalf("Float column sealed as %+v", f)
	}
	for _, bad := range []Row{{NewFloat(1.5)}, {NewString("x")}, {NewInt(1), NewBool(true)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%v) into %v did not panic", bad, tbl.Schema)
				}
			}()
			tbl.Append(0, bad)
		}()
	}
	if n := tbl.NumRows(); n != 2 {
		t.Fatalf("%d rows after the rejected appends, want 2", n)
	}
}
