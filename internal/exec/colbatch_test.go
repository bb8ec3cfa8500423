package exec

import (
	"fmt"
	"math"
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/refimpl"
	"quickr/internal/table"
)

// sameEstimates asserts two results carry bit-identical group estimates.
func sameEstimates(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if len(want.Estimates) != len(got.Estimates) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got.Estimates), len(want.Estimates))
	}
	for i := range want.Estimates {
		w, g := want.Estimates[i], got.Estimates[i]
		if table.CompareRows(w.Key, g.Key) != 0 || g.SampleRows != w.SampleRows {
			t.Fatalf("%s: estimate %d key/rows differ: %+v vs %+v", label, i, g, w)
		}
		if table.CompareRows(w.Values, g.Values) != 0 {
			t.Fatalf("%s: estimate %d values differ: %v vs %v", label, i, g.Values, w.Values)
		}
		for j := range w.StdErr {
			if math.Float64bits(w.StdErr[j]) != math.Float64bits(g.StdErr[j]) {
				t.Fatalf("%s: estimate %d stderr %d differs: %v vs %v", label, i, j, g.StdErr, w.StdErr)
			}
		}
	}
}

// The acceptance bar of the columnar chain: for every sampler type and
// batch size (whole-partition batches included), its results are
// bit-identical to the row-at-a-time reference.
func TestChainMatchesRowReference(t *testing.T) {
	samplers := map[string]*lplan.SamplerDef{
		"nosampler": nil,
		"uniform":   {Type: lplan.SamplerUniform, P: 0.25},
		"universe":  {Type: lplan.SamplerUniverse, P: 0.25, Cols: []lplan.ColumnID{1}, Seed: 99},
		"distinct":  {Type: lplan.SamplerDistinct, P: 0.1, Cols: []lplan.ColumnID{1}, Delta: 4},
		"passthru":  {Type: lplan.SamplerPassThrough},
	}
	for name, def := range samplers {
		t.Run(name, func(t *testing.T) {
			tbl, _ := buildT("ct_"+name, 8, pipelineRows(4000))
			base := refRun(t, chainOf(tbl, def, 7))
			for _, bs := range []int{1, 3, 7, 64, 0, DefaultBatchSize + 1, -1} {
				got := runBatched(t, chainOf(tbl, def, 7), bs)
				sameRows(t, base, got, fmt.Sprintf("batch=%d", bs))
			}
		})
	}
}

// mixedTable builds a table exercising every vector kind: ints, floats,
// strings (with repeats, so dictionaries kick in), bools and NULLs, and
// a float column m appended ints and floats alike (Append widens the
// ints).
func mixedTable(name string, parts, n int) *table.Table {
	sc := table.NewSchema(
		table.Column{Name: "i", Kind: table.KindInt},
		table.Column{Name: "f", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "b", Kind: table.KindBool},
		table.Column{Name: "m", Kind: table.KindFloat}, // ints and floats + nulls
	)
	tbl := table.New(name, sc, parts)
	words := []string{"alpha", "beta", "gamma", "", "delta%x", "epsilon"}
	for i := 0; i < n; i++ {
		iv := table.NewInt(int64(i%97 - 40))
		fv := table.NewFloat(float64(i) / 3)
		sv := table.NewString(words[i%len(words)])
		bv := table.NewBool(i%3 == 0)
		var mv table.Value // cycles through null / int / float / fractional float
		switch i % 4 {
		case 1:
			mv = table.NewInt(int64(i % 13))
		case 2:
			mv = table.NewFloat(float64(i%7) / 2)
		case 3:
			mv = table.NewFloat(float64(i%5) + 0.25)
		}
		if i%11 == 5 {
			iv = table.Value{} // null int lane
		}
		if i%13 == 6 {
			fv = table.Value{}
		}
		if i%17 == 7 {
			sv = table.Value{}
		}
		if i%19 == 8 {
			bv = table.Value{}
		}
		tbl.Append(i, table.Row{iv, fv, sv, bv, mv})
	}
	return tbl
}

// colRefsOf returns one ColRef per scan output column.
func colRefsOf(scan *PScan) []*lplan.ColRef {
	refs := make([]*lplan.ColRef, len(scan.OutCols))
	for i, c := range scan.OutCols {
		refs[i] = &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind}
	}
	return refs
}

// Every kernel class — comparisons, arithmetic, AND/OR, NOT/NEG,
// IS NULL, IN, LIKE, CASE and function calls — must agree bit-for-bit
// with refimpl's row evaluator over NULL-laden input of every kind. Each
// case's expressions run as one projection, as the same projection
// behind a filter (dead lanes in every batch), and each Bool one as a
// filter predicate.
func TestColumnarExpressionKernels(t *testing.T) {
	tbl := mixedTable("cexpr", 6, 3000)
	mk := func(pred lplan.Expr, exprs ...lplan.Expr) PNode {
		scan := scanOf(tbl)
		r := colRefsOf(scan)
		// Re-resolve refs against this scan's fresh IDs.
		reb := func(e lplan.Expr) lplan.Expr { return rebindExpr(e, r) }
		var node PNode = scan
		if pred != nil {
			node = &PFilter{In: node, Pred: reb(pred)}
		}
		if len(exprs) > 0 {
			out := make([]lplan.ColumnInfo, len(exprs))
			rex := make([]lplan.Expr, len(exprs))
			for i, e := range exprs {
				nextID++
				out[i] = lplan.ColumnInfo{ID: nextID, Name: fmt.Sprintf("e%d", i), Kind: table.KindFloat}
				rex[i] = reb(e)
			}
			node = &PProject{In: node, Exprs: rex, OutCols: out}
		}
		return node
	}
	// Templates use placeholder ColRefs with IDs 0..4 (rebound per scan):
	// i int, f float, s string, b bool, m float appended ints and
	// floats, all with NULLs. Every expression is typed as the binder
	// types it: the branches of a CASE and the arguments IF and COALESCE
	// return share one kind, an int one widened by FLOAT, and every
	// condition is a Bool.
	kinds := []table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool, table.KindFloat}
	c := func(i int) lplan.Expr { return &lplan.ColRef{ID: lplan.ColumnID(i), Kind: kinds[i]} }
	lit := func(v table.Value) lplan.Expr { return &lplan.Const{Val: v} }
	fn := func(name string, args ...lplan.Expr) lplan.Expr { return &lplan.Func{Name: name, Args: args} }
	bin := func(op lplan.BinOp, l, r lplan.Expr) lplan.Expr { return &lplan.Binary{Op: op, L: l, R: r} }
	i, f, s := table.NewInt, table.NewFloat, table.NewString
	cases := []struct {
		name  string
		exprs []lplan.Expr
	}{
		{"cmp-int", []lplan.Expr{bin(lplan.OpGt, c(0), lit(i(3)))}},
		{"cmp-float-mix", []lplan.Expr{bin(lplan.OpLe, c(1), c(0))}},
		{"cmp-str-const", []lplan.Expr{bin(lplan.OpGe, c(2), lit(s("beta")))}},
		{"cmp-any", []lplan.Expr{bin(lplan.OpEq, c(4), lit(i(5)))}},
		{"ne-str", []lplan.Expr{bin(lplan.OpNe, c(2), lit(s("gamma")))}},
		{"and-or", []lplan.Expr{bin(lplan.OpOr,
			bin(lplan.OpAnd, c(3), bin(lplan.OpLt, c(0), lit(i(10)))),
			bin(lplan.OpGt, c(1), lit(f(900))))}},
		{"and-null", []lplan.Expr{
			bin(lplan.OpAnd, c(3), lit(table.Null)),
			bin(lplan.OpOr, lit(table.Null), bin(lplan.OpAnd, lit(table.NewBool(true)), c(3))),
		}},
		{"not", []lplan.Expr{&lplan.Not{X: c(3)}}},
		{"isnull", []lplan.Expr{&lplan.IsNull{X: c(4)}}},
		{"isnotnull", []lplan.Expr{&lplan.IsNull{X: c(1), Inv: true}}},
		{"in-int", []lplan.Expr{&lplan.In{X: c(0), Vals: []table.Value{i(1), i(7), f(12)}}}},
		{"in-str-inv", []lplan.Expr{&lplan.In{X: c(2), Vals: []table.Value{s("alpha"), s("")}, Inv: true}}},
		{"in-any", []lplan.Expr{&lplan.In{X: c(4), Vals: []table.Value{i(3), table.Null, f(1.5)}}}},
		// IN matches by Key() identity, as GROUP BY does: NaN matches its
		// own bits, −0 is 0, an int past 2⁵³ is not the float it rounds
		// to, and ±1e18 as floats are not the equal ints. Constants and
		// the CASEs, a float one and an int one, take the kernel's int and
		// float sets.
		{"in-nan", []lplan.Expr{
			&lplan.In{X: lit(f(math.NaN())), Vals: []table.Value{f(math.NaN())}},
			&lplan.In{X: lit(f(math.NaN())), Vals: []table.Value{f(math.NaN()), i(1)}, Inv: true},
			&lplan.In{X: c(1), Vals: []table.Value{f(math.NaN()), f(2)}},
		}},
		{"in-neg-zero", []lplan.Expr{
			&lplan.In{X: lit(f(math.Copysign(0, -1))), Vals: []table.Value{i(0)}},
			&lplan.In{X: lit(i(0)), Vals: []table.Value{f(math.Copysign(0, -1))}},
			&lplan.In{X: lit(f(0)), Vals: []table.Value{f(math.Copysign(0, -1))}, Inv: true},
		}},
		{"in-past-2^53", []lplan.Expr{
			&lplan.In{X: lit(i(1<<53 + 1)), Vals: []table.Value{f(1 << 53)}},
			&lplan.In{X: lit(f(1 << 53)), Vals: []table.Value{i(1<<53 + 1)}},
			&lplan.In{X: lit(i(1 << 53)), Vals: []table.Value{f(1 << 53)}},
			&lplan.In{X: lit(i(1<<53 + 1)), Vals: []table.Value{f(1 << 53)}, Inv: true},
		}},
		{"in-1e18", []lplan.Expr{
			&lplan.In{X: lit(f(1e18)), Vals: []table.Value{i(1e18)}},
			&lplan.In{X: lit(i(-1e18)), Vals: []table.Value{f(-1e18)}},
			&lplan.In{X: lit(f(-1e18)), Vals: []table.Value{f(-1e18)}},
			&lplan.In{X: lit(i(1e18)), Vals: []table.Value{i(1e18)}, Inv: true},
		}},
		{"in-any-edges", []lplan.Expr{
			&lplan.In{
				X: &lplan.Case{
					Whens: []lplan.When{
						{Cond: c(3), Then: lit(f(math.NaN()))},
						{Cond: bin(lplan.OpGt, c(0), lit(i(20))), Then: lit(f(1 << 53))},
						{Cond: bin(lplan.OpGt, c(0), lit(i(0))), Then: lit(f(math.Copysign(0, -1)))},
						{Cond: bin(lplan.OpGt, c(0), lit(i(-20))), Then: lit(f(1e18))},
					},
					Else: lit(f(-1e18)),
				},
				Vals: []table.Value{f(math.NaN()), i(1<<53 + 1), i(0), i(1e18), f(-1e18)},
			},
			&lplan.In{
				X: &lplan.Case{
					Whens: []lplan.When{
						{Cond: bin(lplan.OpGt, c(0), lit(i(20))), Then: lit(i(1<<53 + 1))},
						{Cond: bin(lplan.OpGt, c(0), lit(i(0))), Then: lit(i(0))},
					},
					Else: lit(i(-1e18)),
				},
				Vals: []table.Value{f(math.NaN()), f(1 << 53), f(math.Copysign(0, -1)), i(1e18), f(-1e18)},
			},
		}},
		{"like", []lplan.Expr{&lplan.Like{X: c(2), Pattern: "%a"}}},
		{"like-esc", []lplan.Expr{&lplan.Like{X: c(2), Pattern: "delta\\%_", Inv: true}}},
		{"arith-int", []lplan.Expr{
			bin(lplan.OpAdd, c(0), lit(i(2))),
			bin(lplan.OpMod, c(0), lit(i(5))),
			bin(lplan.OpMod, c(0), lit(i(0))),
		}},
		{"arith-mix", []lplan.Expr{
			bin(lplan.OpMul, c(1), c(0)),
			bin(lplan.OpDiv, c(1), c(0)),
			bin(lplan.OpSub, c(4), lit(f(1))),
			&lplan.Neg{X: c(0)},
			&lplan.Neg{X: c(4)},
		}},
		{"arith-nonnum", []lplan.Expr{ // NULL is the one non-number arithmetic takes
			bin(lplan.OpAdd, c(0), lit(table.Null)),
			bin(lplan.OpDiv, lit(table.Null), c(1)),
			bin(lplan.OpMod, lit(table.Null), c(0)),
			&lplan.Neg{X: lit(table.Null)},
		}},
		{"case-bool-arms", []lplan.Expr{
			&lplan.Case{
				Whens: []lplan.When{{Cond: bin(lplan.OpGt, c(0), lit(i(0))), Then: c(3)}},
				Else:  lit(table.NewBool(false)),
			},
			&lplan.Case{
				Whens: []lplan.When{{Cond: c(3), Then: c(1)}},
				Else:  &lplan.Neg{X: c(1)},
			},
		}},
		{"case-else", []lplan.Expr{&lplan.Case{
			Whens: []lplan.When{
				{Cond: bin(lplan.OpGt, c(0), lit(i(10))), Then: c(2)},
				{Cond: &lplan.Like{X: c(2), Pattern: "%a"}, Then: lit(s("ends-a"))},
			},
			Else: lit(s("other")),
		}}},
		{"case-no-else", []lplan.Expr{
			&lplan.Case{Whens: []lplan.When{{Cond: bin(lplan.OpLt, c(1), lit(f(500))), Then: c(3)}}},
			&lplan.Case{Whens: []lplan.When{{Cond: c(3), Then: c(2)}}},
		}},
		{"case-mixed-kinds", []lplan.Expr{ // int and float branches, the ints widened
			&lplan.Case{
				Whens: []lplan.When{{Cond: bin(lplan.OpGt, c(0), lit(i(0))), Then: fn("FLOAT", c(0))}},
				Else:  c(1),
			},
			&lplan.Case{
				Whens: []lplan.When{{Cond: c(3), Then: lit(f(1))}, {Cond: bin(lplan.OpGt, c(1), lit(f(100))), Then: lit(f(2.5))}},
				Else:  c(4),
			},
		}},
		{"case-null-cond", []lplan.Expr{&lplan.Case{
			Whens: []lplan.When{
				{Cond: lit(table.Null), Then: lit(i(0))},
				{Cond: bin(lplan.OpAnd, c(3), lit(table.Null)), Then: lit(i(1))},
				{Cond: bin(lplan.OpGt, c(4), lit(i(3))), Then: lit(i(2))},
				{Cond: c(3), Then: lit(i(3))},
				{Cond: &lplan.Not{X: c(3)}, Then: lit(i(4))},
			},
			Else: lit(i(5)),
		}}},
		{"case-func-cond", []lplan.Expr{&lplan.Case{
			Whens: []lplan.When{
				{Cond: bin(lplan.OpGt, fn("CEILDIV", c(0), lit(i(10))), lit(i(1))), Then: fn("UPPER", c(2))},
				{Cond: fn("STARTSWITH", c(2), lit(s("be"))), Then: lit(s("b"))},
			},
			Else: fn("SUBSTR", c(2), lit(i(2))),
		}}},
		{"func-case-arg", []lplan.Expr{
			fn("COALESCE", &lplan.Case{Whens: []lplan.When{{Cond: c(3), Then: c(0)}}}, lit(i(-1))),
			fn("COALESCE", &lplan.Case{Whens: []lplan.When{{Cond: bin(lplan.OpGt, c(0), lit(i(0))), Then: c(3)}}}, c(3)),
		}},
		{"funcs", []lplan.Expr{
			fn("IF", c(3), fn("FLOAT", c(0)), c(1)),
			fn("IF", bin(lplan.OpGt, c(1), lit(f(700))), c(3), bin(lplan.OpLt, c(0), lit(i(0)))),
			fn("COALESCE", c(4), c(1), lit(f(0))),
			fn("FLOAT", c(2)),
			fn("CEILDIV", c(0), lit(i(7))),
			fn("CEILDIV", c(1), c(0)),
			fn("SUBSTR", c(2), lit(i(2))),
			fn("SUBSTR", c(2), c(0), lit(i(3))),
			fn("SUBSTR", c(2), lit(i(2)), lit(i(-5))),
		}},
	}
	filter := bin(lplan.OpGt, c(1), lit(f(300)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(label string, pred lplan.Expr, exprs ...lplan.Expr) {
				t.Helper()
				base := refRun(t, mk(pred, exprs...))
				got := runBatched(t, mk(pred, exprs...), 113)
				sameRows(t, base, got, label)
			}
			check("projection", nil, tc.exprs...)
			check("projection behind a filter", filter, tc.exprs...)
			for k, e := range tc.exprs {
				if lplan.KindOf(e) == table.KindBool {
					check(fmt.Sprintf("predicate %d", k), e)
				}
			}
		})
	}
}

// A string constant's kernel hands every batch the same one-entry
// dictionary and, once its code lanes are as wide as the batch,
// allocates nothing.
func TestConstKernelStringDict(t *testing.T) {
	k := constKernel(table.NewString("beta"))
	b := &Batch{n: 256}
	first := k(b)
	if allocs := testing.AllocsPerRun(100, func() { k(b) }); allocs != 0 {
		t.Fatalf("string constant kernel allocates %v times per warm batch, want 0", allocs)
	}
	second := k(b)
	if !sameDict(first.Dict, second.Dict) {
		t.Fatal("two batches of a string constant carry different dictionaries")
	}
	if second.K != table.VKStr || second.N != b.n || second.Value(b.n-1).Str() != "beta" {
		t.Fatalf("constant vector %+v, want %d lanes of \"beta\"", second, b.n)
	}
}

// TestCmpKernelMatchesCmpRow holds the comparison kernels to refimpl's
// row comparison, lane for lane: every operator over int, float, string
// and bool columns, with and without NULLs and as all-NULL batches,
// against each other and against constants on either side, with NaN,
// ±Inf, −0 and ints past 2^53 among the lanes and the constants. Each
// pair whose kinds join compiles to its typed loop (an int operand
// beside a float one converted to float); any other pair does not
// compile.
func TestCmpKernelMatchesCmpRow(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	floats := []float64{1.5, nan, -inf, 42, inf, 0, math.Copysign(0, -1), -7.25, 1.5, 9007199254740992}
	ints := []int64{3, -1, 42, math.MaxInt64, math.MinInt64, 0, 2, 42, 1<<53 + 1, 1 << 53}
	words := []string{"b", "a", "", "beta", "b", "z", "alpha", "a", "beta", "c"}
	n := len(ints)
	lane := func(kind table.Kind, i int) table.Value {
		switch kind {
		case table.KindInt:
			return table.NewInt(ints[i])
		case table.KindFloat:
			return table.NewFloat(floats[i])
		case table.KindString:
			return table.NewString(words[i])
		}
		return table.NewBool(i%3 == 0)
	}
	var cols []table.Vector
	var sides []lplan.Expr
	for _, kind := range []table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool} {
		for _, nulls := range []int{0, 3, 1} { // none, every third lane, every lane
			bd := vecBuilder{mem: newLedger()}
			for i := 0; i < n; i++ {
				if nulls == 1 || nulls == 3 && i%3 == 1 {
					bd.appendNull()
					continue
				}
				bd.append(lane(kind, i))
			}
			name := fmt.Sprintf("%v/%d", kind, nulls)
			sides = append(sides, &lplan.ColRef{ID: lplan.ColumnID(len(cols)), Name: name, Kind: kind})
			cols = append(cols, bd.build())
		}
	}
	for _, c := range []table.Value{table.NewInt(42), table.NewInt(1 << 53), table.NewFloat(1.5),
		table.NewFloat(nan), table.NewFloat(-inf), table.NewFloat(9007199254740992),
		table.NewString("beta"), table.NewBool(true), table.Null} {
		sides = append(sides, &lplan.Const{Val: c})
	}
	cm := colMap{}
	for i := range cols {
		cm[lplan.ColumnID(i)] = i
	}
	b := &Batch{cols: cols, n: n}
	for _, op := range []lplan.BinOp{lplan.OpEq, lplan.OpNe, lplan.OpLt, lplan.OpLe, lplan.OpGt, lplan.OpGe} {
		for _, l := range sides {
			for _, r := range sides {
				e := &lplan.Binary{Op: op, L: l, R: r}
				kern, err := compileColKernel(e, cm, newLedger())
				if _, joins := lplan.JoinKinds(lplan.KindOf(l), lplan.KindOf(r)); !joins {
					if err == nil {
						t.Fatalf("%s compiled over kinds that do not join", e)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				got := kern(b)
				for i := 0; i < n; i++ {
					row := make(table.Row, len(cols))
					for c := range cols {
						row[c] = cols[c].Value(i)
					}
					want, err := refimpl.EvalExpr(e, cm, row)
					if err != nil {
						t.Fatal(err)
					}
					if got.K != table.VKBool || got.IsNull(i) || got.Ints[i] != btoi(want.Bool()) {
						t.Fatalf("%s lane %d (%v): kernel %v, refimpl %v", e, i, row, got.Value(i), want)
					}
				}
			}
		}
	}
}

// TestCmpKernelPanicsOnUndeclaredKind: a kernel reads its operands by
// their declared kinds, so a vector of another kind (an all-NULL one
// aside) panics instead of answering, which fails the task as an
// internal error.
func TestCmpKernelPanicsOnUndeclaredKind(t *testing.T) {
	x := &lplan.ColRef{ID: 0, Name: "x", Kind: table.KindInt}
	bd := vecBuilder{mem: newLedger()}
	bd.append(table.NewFloat(1.5))
	b := &Batch{cols: []table.Vector{bd.build()}, n: 1}
	for _, e := range []lplan.Expr{
		&lplan.Binary{Op: lplan.OpGt, L: x, R: &lplan.Const{Val: table.NewInt(3)}},
		&lplan.Binary{Op: lplan.OpLt, L: x, R: &lplan.Const{Val: table.NewFloat(3)}},
		&lplan.Binary{Op: lplan.OpAdd, L: x, R: x},
		&lplan.Neg{X: x},
		&lplan.In{X: x, Vals: []table.Value{table.NewInt(1)}},
		&lplan.Not{X: &lplan.ColRef{ID: 0, Name: "x", Kind: table.KindBool}},
		&lplan.Like{X: &lplan.ColRef{ID: 0, Name: "x", Kind: table.KindString}, Pattern: "a%"},
	} {
		k, err := compileColKernel(e, colMap{0: 0}, newLedger())
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over a float vector answered", e)
				}
			}()
			k(b)
		}()
	}
}

// rebindExpr rewrites placeholder ColRefs (ID < 100 = positional column
// index) onto the scan's real output IDs.
func rebindExpr(e lplan.Expr, refs []*lplan.ColRef) lplan.Expr {
	switch x := e.(type) {
	case *lplan.ColRef:
		if int(x.ID) < len(refs) {
			return refs[x.ID]
		}
		return x
	case *lplan.Binary:
		return &lplan.Binary{Op: x.Op, L: rebindExpr(x.L, refs), R: rebindExpr(x.R, refs)}
	case *lplan.Not:
		return &lplan.Not{X: rebindExpr(x.X, refs)}
	case *lplan.Neg:
		return &lplan.Neg{X: rebindExpr(x.X, refs)}
	case *lplan.IsNull:
		return &lplan.IsNull{X: rebindExpr(x.X, refs), Inv: x.Inv}
	case *lplan.In:
		return &lplan.In{X: rebindExpr(x.X, refs), Vals: x.Vals, Inv: x.Inv}
	case *lplan.Like:
		return &lplan.Like{X: rebindExpr(x.X, refs), Pattern: x.Pattern, Inv: x.Inv}
	case *lplan.Func:
		out := &lplan.Func{Name: x.Name}
		for _, a := range x.Args {
			out.Args = append(out.Args, rebindExpr(a, refs))
		}
		return out
	case *lplan.Case:
		out := &lplan.Case{}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, lplan.When{Cond: rebindExpr(w.Cond, refs), Then: rebindExpr(w.Then, refs)})
		}
		if x.Else != nil {
			out.Else = rebindExpr(x.Else, refs)
		}
		return out
	default:
		return e
	}
}

// Selection-vector extremes: predicates that keep nothing, exactly one
// row, and everything must all round-trip identically, as must empty
// tables and partitions (zero-length batches).
func TestColumnarSelectionExtremes(t *testing.T) {
	tbl, _ := buildT("csel", 5, pipelineRows(1000))
	mkPred := func(pred lplan.Expr) PNode {
		scan := scanOf(tbl)
		r := colRefsOf(scan)
		return &PFilter{In: scan, Pred: rebindExpr(pred, r)}
	}
	c0 := &lplan.ColRef{ID: 0, Kind: table.KindInt}
	c1 := &lplan.ColRef{ID: 1, Kind: table.KindFloat}
	preds := map[string]lplan.Expr{
		"none": &lplan.Binary{Op: lplan.OpLt, L: c0, R: &lplan.Const{Val: table.NewInt(-1)}},
		"one":  &lplan.Binary{Op: lplan.OpEq, L: c1, R: &lplan.Const{Val: table.NewFloat(500)}},
		"all":  &lplan.Binary{Op: lplan.OpGe, L: c0, R: &lplan.Const{Val: table.NewInt(0)}},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			base := refRun(t, mkPred(pred))
			got := runBatched(t, mkPred(pred), 64)
			sameRows(t, base, got, name)
			switch name {
			case "none":
				if len(got.Rows) != 0 {
					t.Fatalf("kept %d rows", len(got.Rows))
				}
			case "one":
				if len(got.Rows) != 1 {
					t.Fatalf("kept %d rows, want 1", len(got.Rows))
				}
			case "all":
				if len(got.Rows) != 1000 {
					t.Fatalf("kept %d rows, want 1000", len(got.Rows))
				}
			}
		})
	}
	t.Run("empty-table", func(t *testing.T) {
		empty, _ := buildT("cempty", 6, nil)
		def := &lplan.SamplerDef{Type: lplan.SamplerDistinct, P: 0.1, Cols: []lplan.ColumnID{1}, Delta: 2}
		res := runBatched(t, chainOf(empty, def, 3), 0)
		if len(res.Rows) != 0 {
			t.Fatalf("empty table produced %d rows", len(res.Rows))
		}
	})
	t.Run("sparse-partitions", func(t *testing.T) {
		sc := table.NewSchema(
			table.Column{Name: "k", Kind: table.KindInt},
			table.Column{Name: "v", Kind: table.KindFloat},
		)
		sparse := table.New("csparse", sc, 16)
		for i := 0; i < 400; i++ {
			sparse.Append(0, table.Row{table.NewInt(int64(i % 11)), table.NewFloat(float64(i))})
		}
		base := refRun(t, chainOf(sparse, nil, 0))
		got := runBatched(t, chainOf(sparse, nil, 0), 32)
		sameRows(t, base, got, "sparse")
	})
}

// An all-null column must survive the columnar scan→project→breaker trip.
func TestColumnarAllNullColumn(t *testing.T) {
	sc := table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "n", Kind: table.KindFloat},
	)
	tbl := table.New("cnull", sc, 4)
	for i := 0; i < 500; i++ {
		tbl.Append(i, table.Row{table.NewInt(int64(i)), table.Value{}})
	}
	mk := func() PNode {
		scan := scanOf(tbl)
		r := colRefsOf(scan)
		nextID += 2
		return &PProject{In: scan, Exprs: []lplan.Expr{
			r[1],
			&lplan.Binary{Op: lplan.OpAdd, L: r[1], R: r[0]},
		}, OutCols: []lplan.ColumnInfo{
			{ID: nextID - 1, Name: "n2", Kind: table.KindFloat},
			{ID: nextID, Name: "sum", Kind: table.KindFloat},
		}}
	}
	base := refRun(t, mk())
	got := runBatched(t, mk(), 64)
	sameRows(t, base, got, "all-null")
	if !got.Rows[7][0].IsNull() || !got.Rows[7][1].IsNull() {
		t.Fatalf("null column not preserved: %v", got.Rows[7])
	}
}

// Weights must propagate through chained samplers exactly as row at a
// time: two stacked uniform samplers compose their 1/p scalings, which
// the weighted aggregate then surfaces in its estimates.
func TestColumnarChainedSamplerWeights(t *testing.T) {
	tbl, _ := buildT("cchain", 4, pipelineRows(8000))
	mk := func() PNode {
		scan := scanOf(tbl)
		k, v := scan.OutCols[0], scan.OutCols[1]
		s1 := &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.5}, Seed: 11}
		s2 := &PSample{In: s1, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.5}, Seed: 12}
		nextID += 2
		return &PHashAgg{
			In:        s2,
			GroupCols: []lplan.ColumnID{k.ID},
			GroupInfo: []lplan.ColumnInfo{k},
			Aggs: []lplan.AggSpec{
				{Kind: lplan.AggSum, Arg: v.ID, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "s", Kind: table.KindFloat}},
				{Kind: lplan.AggCount, Arg: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "c", Kind: table.KindInt}},
			},
			Top: true,
		}
	}
	base := refRun(t, mk())
	got := runBatched(t, mk(), 97)
	sameRows(t, base, got, "chained-samplers")
	sameEstimates(t, base, got, "chained-samplers")
	// The composed weight 1/(0.5*0.5)=4 must make COUNT estimate ~8000.
	var est float64
	for _, r := range got.Rows {
		est += float64(r[2].Int())
	}
	if est < 4000 || est > 12000 {
		t.Fatalf("composed weights look wrong: total count estimate %v", est)
	}
}

// The fused columnar pre-aggregation must match the row-at-a-time
// reference bit-for-bit, including estimates, for grouped and global
// aggregates.
func TestColumnarFusedAggBitIdentical(t *testing.T) {
	tbl, _ := buildT("cagg", 8, pipelineRows(6000))
	mk := func(global bool) PNode {
		scan := scanOf(tbl)
		k, v := scan.OutCols[0], scan.OutCols[1]
		smp := &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.25}, Seed: 5}
		nextID += 2
		agg := &PHashAgg{
			In: smp,
			Aggs: []lplan.AggSpec{
				{Kind: lplan.AggSum, Arg: v.ID, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "s", Kind: table.KindFloat}},
				{Kind: lplan.AggCount, Arg: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "c", Kind: table.KindInt}},
			},
			Top: true,
		}
		if !global {
			agg.GroupCols = []lplan.ColumnID{k.ID}
			agg.GroupInfo = []lplan.ColumnInfo{k}
		}
		return agg
	}
	for _, global := range []bool{false, true} {
		name := map[bool]string{false: "grouped", true: "global"}[global]
		t.Run(name, func(t *testing.T) {
			base := refRun(t, mk(global))
			got := runBatched(t, mk(global), 73)
			sameRows(t, base, got, name)
			sameEstimates(t, base, got, name)
		})
	}
}

// Every run reports kernel telemetry: physical lanes through the
// vectorized kernels, and none on a row-at-a-time path, for a chain of
// typed comparisons and arithmetic and for one that filters on a CASE
// and projects a CEILDIV.
func TestColumnarKernelTelemetry(t *testing.T) {
	tbl, _ := buildT("ctel", 4, pipelineRows(2000))
	scan := scanOf(tbl)
	r := colRefsOf(scan)
	nextID++
	caseChain := &PProject{
		In: &PFilter{In: scan, Pred: &lplan.Case{
			Whens: []lplan.When{{Cond: &lplan.Binary{Op: lplan.OpGt, L: r[0], R: &lplan.Const{Val: table.NewInt(10)}}, Then: &lplan.Const{Val: table.NewBool(true)}}},
			Else:  &lplan.Binary{Op: lplan.OpLt, L: r[1], R: &lplan.Const{Val: table.NewFloat(100)}},
		}},
		Exprs:   []lplan.Expr{&lplan.Func{Name: "CEILDIV", Args: []lplan.Expr{r[1], &lplan.Const{Val: table.NewInt(100)}}}},
		OutCols: []lplan.ColumnInfo{{ID: nextID, Name: "bucket", Kind: table.KindInt}},
	}
	for name, plan := range map[string]PNode{"typed": chainOf(tbl, nil, 0), "case-ceildiv": caseChain} {
		res := runBatched(t, plan, 100)
		var lanes, fallback int64
		for _, op := range res.Stats.Ops() {
			lanes += op.Total().KernelLanes
			fallback += op.Total().FallbackRows
		}
		if lanes == 0 {
			t.Fatalf("%s chain reported no kernel lanes", name)
		}
		if fallback != 0 {
			t.Fatalf("%s chain routed %d rows around the kernels", name, fallback)
		}
	}
}

// Dictionary builders must survive growth far past their initial
// capacity: a high-cardinality string column pushed through a columnar
// project (a CASE keeps the builder path busy) stays exact.
func TestColumnarDictionaryGrowth(t *testing.T) {
	sc := table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "s", Kind: table.KindString},
	)
	tbl := table.New("cdict", sc, 3)
	for i := 0; i < 4000; i++ {
		v := table.NewString(fmt.Sprintf("tag-%04d", i%2500)) // > initial dict caps
		if i%29 == 3 {
			v = table.Value{}
		}
		tbl.Append(i, table.Row{table.NewInt(int64(i)), v})
	}
	mk := func() PNode {
		scan := scanOf(tbl)
		r := colRefsOf(scan)
		nextID += 2
		return &PProject{In: scan, Exprs: []lplan.Expr{
			&lplan.Case{ // the CASE kernel rebuilds the dict lane by lane
				Whens: []lplan.When{{Cond: &lplan.IsNull{X: r[1], Inv: true}, Then: r[1]}},
				Else:  &lplan.Const{Val: table.NewString("missing")},
			},
			&lplan.Binary{Op: lplan.OpGt, L: r[1], R: &lplan.Const{Val: table.NewString("tag-1000")}},
		}, OutCols: []lplan.ColumnInfo{
			{ID: nextID - 1, Name: "s2", Kind: table.KindString},
			{ID: nextID, Name: "gt", Kind: table.KindBool},
		}}
	}
	base := refRun(t, mk())
	got := runBatched(t, mk(), 512)
	sameRows(t, base, got, "dict-growth")
}
