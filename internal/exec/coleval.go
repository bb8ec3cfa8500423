package exec

import (
	"fmt"
	"math"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

// This file compiles bound expressions to columnar kernels: closures
// that evaluate one expression over a whole Batch and return a Vector.
// They are the executor's only expression evaluator.
//
// A kernel's contract is its live lanes: Value(lane) is the expression's
// value on that lane, which the tests hold to refimpl.EvalExpr over the
// materialized row. The binder has checked every operand's kind, so each
// kernel picks its loop once, when compiled, from the declared kinds
// (lplan.KindOf): an Int operand beside a Float one is converted to
// Float, a constant here and a column once per batch (floatKernel), and
// an operand of kind NULL compiles to the constant answer. The one case
// left to a batch is an all-NULL (VKNull) operand; a vector of any other
// kind than the declared one panics (nullVec), which fails the task as
// an internal error. Typed kernels compute densely over all physical
// lanes (dead lanes may hold garbage, which is fine — they are never
// read as live results). Function calls and CASE run their operands as
// kernels, then box only those operands' values, one live lane at a
// time; their dead lanes come out NULL.
//
// Kernels are compiled per partition and own their output buffers, so
// parallel partitions never share mutable state. A kernel's output is
// valid until its next invocation.

// colKernel evaluates an expression over a batch.
type colKernel func(b *Batch) table.Vector

// growTo returns buf with length n, reallocated if it is too short.
func growTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growBits returns a zeroed null bitmap covering n lanes.
func growBits(buf []uint64, n int) []uint64 {
	w := (n + 63) / 64
	if cap(buf) < w {
		return make([]uint64, w)
	}
	buf = buf[:w]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func setBit(bits []uint64, i int) { bits[i>>6] |= 1 << (uint(i) & 63) }

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// allNull returns an n-lane all-NULL vector.
func allNull(n int) table.Vector { return table.Vector{K: table.VKNull, N: n} }

// nullVec reports whether v, an operand of declared kind k, is an
// all-NULL batch. A vector of any other kind panics.
func nullVec(v *table.Vector, k table.Kind) bool {
	switch v.K {
	case table.VKNull:
		return true
	case table.VecKind(k):
		return false
	}
	panic(fmt.Sprintf("exec: a %v vector for an operand of kind %v", table.Kind(v.K), k))
}

func intsOf(v *table.Vector) []int64     { return v.Ints }
func floatsOf(v *table.Vector) []float64 { return v.Floats }

// compileColKernel compiles e into a columnar kernel over the column
// layout described by cm, whose builders draw on the run's ledger mem.
// An error means a referenced column is missing or an operand's kind
// leaves no loop to run, which the binder rules out.
func compileColKernel(e lplan.Expr, cm colMap, mem *ledger) (colKernel, error) {
	switch x := e.(type) {
	case *lplan.ColRef:
		i, ok := cm[x.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column %s#%d not available", x.Name, x.ID)
		}
		return func(b *Batch) table.Vector { return b.cols[i] }, nil
	case *lplan.Const:
		return constKernel(x.Val), nil
	case *lplan.Binary:
		return compileBinary(x, cm, mem)
	case *lplan.Func:
		args, err := compileColKernels(x.Args, cm, mem)
		if err != nil {
			return nil, err
		}
		return funcKernel(x.Name, args, mem), nil
	case *lplan.Case:
		arms := make([]lplan.Expr, 0, 2*len(x.Whens)+1)
		for _, w := range x.Whens {
			arms = append(arms, w.Cond, w.Then)
		}
		els := x.Else
		if els == nil {
			els = &lplan.Const{Val: table.Null}
		}
		ks, err := compileColKernels(append(arms, els), cm, mem)
		if err != nil {
			return nil, err
		}
		return caseKernel(ks, mem), nil
	}
	var x lplan.Expr
	switch u := e.(type) {
	case *lplan.Not:
		x = u.X
	case *lplan.Neg:
		x = u.X
	case *lplan.IsNull:
		x = u.X
	case *lplan.In:
		x = u.X
	case *lplan.Like:
		x = u.X
	default:
		return nil, fmt.Errorf("exec: cannot compile expression %T", e)
	}
	in, err := compileColKernel(x, cm, mem)
	if err != nil {
		return nil, err
	}
	k := lplan.KindOf(x)
	switch u := e.(type) {
	case *lplan.Not:
		return notKernel(in), nil
	case *lplan.IsNull:
		return isNullKernel(in, u.Inv), nil
	case *lplan.In:
		return inKernel(k, in, u.Vals, u.Inv), nil
	case *lplan.Neg:
		switch k {
		case table.KindInt, table.KindFloat:
			return negKernel(k, in), nil
		case table.KindNull:
			return constKernel(table.Null), nil
		}
	case *lplan.Like:
		switch k {
		case table.KindString:
			match := compileLike(u.Pattern)
			return strKernel(in, func(s string) bool { return match(s) != u.Inv }), nil
		case table.KindNull:
			return constKernel(table.NewBool(false)), nil
		}
	}
	return nil, fmt.Errorf("exec: %s over an operand of kind %v", e, k)
}

// compileColKernels compiles each of es.
func compileColKernels(es []lplan.Expr, cm colMap, mem *ledger) ([]colKernel, error) {
	ks := make([]colKernel, len(es))
	for i, e := range es {
		k, err := compileColKernel(e, cm, mem)
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	return ks, nil
}

// compileBinary compiles AND, OR, a comparison or arithmetic. The
// operands of the last two run in their kind join k, which the binder
// has checked: an Int one beside a Float one (and both of /) converted
// to Float. A comparison takes its constant on the right.
func compileBinary(x *lplan.Binary, cm colMap, mem *ledger) (colKernel, error) {
	if x.Op == lplan.OpAnd || x.Op == lplan.OpOr {
		ks, err := compileColKernels([]lplan.Expr{x.L, x.R}, cm, mem)
		if err != nil {
			return nil, err
		}
		return logicKernel(x.Op, ks[0], ks[1]), nil
	}
	op, lhs, rhs, cmp := x.Op, x.L, x.R, x.Op.IsComparison()
	_, lc := lhs.(*lplan.Const)
	_, rc := rhs.(*lplan.Const)
	if cmp && lc && !rc {
		op, lhs, rhs, rc = flipCmp(op), rhs, lhs, true
	}
	lk, rk := lplan.KindOf(lhs), lplan.KindOf(rhs)
	k, ok := lplan.JoinKinds(lk, rk)
	if op == lplan.OpDiv {
		k = table.KindFloat
	}
	switch {
	case (lk == table.KindNull || rk == table.KindNull) && cmp:
		return constKernel(table.NewBool(false)), nil // NULL compares false
	case lk == table.KindNull || rk == table.KindNull:
		return constKernel(table.Null), nil
	case !ok, !cmp && k != table.KindInt && k != table.KindFloat, op == lplan.OpMod && k != table.KindInt:
		return nil, fmt.Errorf("exec: %s over kinds %v and %v", x, lk, rk)
	}
	l, err := compileAs(lhs, lk, k, cm, mem)
	if err != nil {
		return nil, err
	}
	if c, ok := rhs.(*lplan.Const); ok && cmp && k == table.KindString {
		// One comparison per dictionary entry of the left operand.
		return strKernel(l, func(s string) bool { return cmpStr(op, s, c.Val.Str()) }), nil
	}
	r, err := compileAs(rhs, rk, k, cm, mem)
	if err != nil {
		return nil, err
	}
	if cmp {
		return cmpKernel(op, k, l, r, rc), nil
	}
	return arithKernel(op, k, l, r), nil
}

// compileAs compiles e, of kind from, to a kernel of kind to: an Int
// constant becomes the equal Float here, and any other Int expression
// is converted once per batch where to is Float.
func compileAs(e lplan.Expr, from, to table.Kind, cm colMap, mem *ledger) (colKernel, error) {
	if from != table.KindInt || to != table.KindFloat {
		return compileColKernel(e, cm, mem)
	}
	if c, ok := e.(*lplan.Const); ok {
		return constKernel(table.NewFloat(c.Val.Float())), nil
	}
	in, err := compileColKernel(e, cm, mem)
	if err != nil {
		return nil, err
	}
	return floatKernel(in), nil
}

// floatKernel converts the Int lanes of in to Float, NULL lanes kept.
func floatKernel(in colKernel) colKernel {
	var floats []float64
	return func(b *Batch) table.Vector {
		v := in(b)
		if nullVec(&v, table.KindInt) {
			return v
		}
		floats = growTo(floats, b.n)
		for i, x := range v.Ints[:b.n] {
			floats[i] = float64(x)
		}
		return table.Vector{K: table.VKFloat, N: b.n, Floats: floats[:b.n], Nulls: v.Nulls, NullOff: v.NullOff}
	}
}

// funcKernel runs the argument kernels, then calls lplan.CallFunc once
// per live lane on that lane's boxed arguments.
func funcKernel(name string, args []colKernel, mem *ledger) colKernel {
	vecs := make([]table.Vector, len(args))
	vals := make([]table.Value, len(args))
	bld := vecBuilder{mem: mem}
	return func(b *Batch) table.Vector {
		for j, k := range args {
			vecs[j] = k(b)
		}
		return boxLanes(&bld, b, func(i int) table.Value {
			for j := range vecs {
				vals[j] = vecs[j].Value(i)
			}
			return lplan.CallFunc(name, vals)
		})
	}
}

// caseKernel runs the kernels ks — each WHEN's condition and branch in
// turn, then the ELSE — and takes, for each live lane, the branch of the
// first condition that is true there, or the ELSE. A condition is a
// Bool, whose NULL lanes carry payload 0, or an all-NULL batch, which
// reads as false lanes.
func caseKernel(ks []colKernel, mem *ledger) colKernel {
	vecs := make([]table.Vector, len(ks))
	bld := vecBuilder{mem: mem}
	var zeros []int64
	return func(b *Batch) table.Vector {
		for j, k := range ks {
			vecs[j] = k(b)
			if j%2 == 0 && j+1 < len(ks) {
				vecs[j] = bools(vecs[j], &zeros)
			}
		}
		return boxLanes(&bld, b, func(i int) table.Value {
			j := 0
			for ; j+1 < len(vecs); j += 2 {
				if vecs[j].Ints[i] != 0 {
					return vecs[j+1].Value(i)
				}
			}
			return vecs[j].Value(i)
		})
	}
}

// bools returns v, a Bool operand, with an all-NULL batch read as false
// lanes over *zeros, so that a lane is true exactly when its payload is
// nonzero (a NULL Bool lane carries payload 0).
func bools(v table.Vector, zeros *[]int64) table.Vector {
	if !nullVec(&v, table.KindBool) {
		return v
	}
	if len(*zeros) < v.N {
		*zeros = make([]int64, v.N)
	}
	return table.Vector{K: table.VKBool, N: v.N, Ints: (*zeros)[:v.N]}
}

// boxLanes builds a vector one boxed value at a time: value(i) for each
// live lane i of b, NULL for each dead one.
func boxLanes(bld *vecBuilder, b *Batch, value func(i int) table.Value) table.Vector {
	bld.reset()
	si, sel := 0, b.sel
	for i := 0; i < b.n; i++ {
		if sel != nil {
			if si == len(sel) || int(sel[si]) != i {
				bld.appendNull()
				continue
			}
			si++
		}
		bld.append(value(i))
	}
	return bld.build()
}

// constKernel materializes a constant as an n-lane vector, rebuilt only
// when a batch is wider than any before. A string constant's one-entry
// dictionary is built once, so every batch carries the same dictionary
// (sameDict) and none allocates.
func constKernel(v table.Value) colKernel {
	wide := table.Vector{K: table.VecKind(v.Kind())}
	if v.Kind() == table.KindString {
		wide.Dict = []string{v.Str()}
	}
	return func(b *Batch) table.Vector {
		if wide.N < b.n {
			wide.N = b.n
			switch wide.K {
			case table.VKNull:
			case table.VKFloat:
				wide.Floats = make([]float64, b.n)
				for i := range wide.Floats {
					wide.Floats[i] = v.Float()
				}
			default: // a string's payload is its code, 0
				wide.Ints = make([]int64, b.n)
				for i := range wide.Ints {
					wide.Ints[i] = v.Int()
				}
			}
		}
		return wide.Slice(0, b.n)
	}
}

// logicKernel vectorizes AND and OR over Bool operands, where a NULL
// lane acts as false on either side.
func logicKernel(op lplan.BinOp, l, r colKernel) colKernel {
	var out, zeros []int64
	return func(b *Batch) table.Vector {
		lv, rv := bools(l(b), &zeros), bools(r(b), &zeros)
		n := b.n
		out = growTo(out, n)
		o, li, ri := out[:n], lv.Ints[:n], rv.Ints[:n]
		if op == lplan.OpAnd {
			for i := range o {
				o[i] = btoi(li[i] != 0) & btoi(ri[i] != 0)
			}
		} else {
			for i := range o {
				o[i] = btoi(li[i] != 0) | btoi(ri[i] != 0)
			}
		}
		return table.Vector{K: table.VKBool, N: n, Ints: o}
	}
}

// notKernel negates a Bool operand; NOT of a NULL lane is false.
func notKernel(in colKernel) colKernel {
	var out []int64
	return func(b *Batch) table.Vector {
		v := in(b)
		out = growTo(out, b.n)
		o := out[:b.n]
		if nullVec(&v, table.KindBool) {
			clear(o)
		} else {
			for i, x := range v.Ints[:b.n] {
				o[i] = btoi(x == 0)
			}
			markNulls(nil, o, &v)
		}
		return table.Vector{K: table.VKBool, N: b.n, Ints: o}
	}
}

// markNulls zeroes the lanes of out where v is NULL and, given a
// bitmap, marks them NULL there.
func markNulls[T int64 | float64](nulls []uint64, out []T, v *table.Vector) {
	if v.Nulls != nil {
		for i := range out {
			if v.IsNull(i) {
				out[i] = 0
				if nulls != nil {
					setBit(nulls, i)
				}
			}
		}
	}
}

// arithKernel vectorizes +, -, *, / and % over two operands of kind k
// with the exact table.Add/Sub/Mul/Div/Mod semantics: an Int result
// for Int operands (the binder makes / Float and % Int), NULL where an
// operand is NULL or a divisor zero.
func arithKernel(op lplan.BinOp, k table.Kind, l, r colKernel) colKernel {
	if k == table.KindInt {
		return arithLanes(op, k, l, r, intsOf, intVec, func(a, c int64) int64 { return a % c })
	}
	return arithLanes(op, k, l, r, floatsOf, floatVec, func(a, c float64) float64 { return a / c })
}

func intVec(n int, x []int64, nulls []uint64) table.Vector {
	return table.Vector{K: table.VKInt, N: n, Ints: x, Nulls: nulls}
}

func floatVec(n int, x []float64, nulls []uint64) table.Vector {
	return table.Vector{K: table.VKFloat, N: n, Floats: x, Nulls: nulls}
}

// arithLanes computes op over operands whose payloads are []T, switched
// on once per batch; div is / or %.
func arithLanes[T int64 | float64](op lplan.BinOp, k table.Kind, l, r colKernel, payload func(*table.Vector) []T,
	vec func(int, []T, []uint64) table.Vector, div func(a, c T) T) colKernel {
	var out []T
	var nulls []uint64
	return func(b *Batch) table.Vector {
		lv, rv := l(b), r(b)
		n := b.n
		if nullVec(&lv, k) || nullVec(&rv, k) {
			return allNull(n)
		}
		out, nulls = growTo(out, n), growBits(nulls, n)
		o, a, c := out[:n], payload(&lv)[:n], payload(&rv)[:n]
		switch op {
		case lplan.OpAdd:
			for i := range o {
				o[i] = a[i] + c[i]
			}
		case lplan.OpSub:
			for i := range o {
				o[i] = a[i] - c[i]
			}
		case lplan.OpMul:
			for i := range o {
				o[i] = a[i] * c[i]
			}
		default:
			for i := range o {
				if c[i] == 0 {
					setBit(nulls, i)
					o[i] = 0
					continue
				}
				o[i] = div(a[i], c[i])
			}
		}
		markNulls(nulls, o, &lv)
		markNulls(nulls, o, &rv)
		return vec(n, o, nulls)
	}
}

// negKernel vectorizes unary minus over an operand of kind k, Int or
// Float.
func negKernel(k table.Kind, in colKernel) colKernel {
	if k == table.KindInt {
		return negLanes(k, in, intsOf, intVec)
	}
	return negLanes(k, in, floatsOf, floatVec)
}

func negLanes[T int64 | float64](k table.Kind, in colKernel, payload func(*table.Vector) []T, vec func(int, []T, []uint64) table.Vector) colKernel {
	var out []T
	var nulls []uint64
	return func(b *Batch) table.Vector {
		v := in(b)
		if nullVec(&v, k) {
			return allNull(b.n)
		}
		out, nulls = growTo(out, b.n), growBits(nulls, b.n)
		o := out[:b.n]
		for i, x := range payload(&v)[:b.n] {
			o[i] = -x
		}
		markNulls(nulls, o, &v)
		return vec(b.n, o, nulls)
	}
}

// cmpKernel vectorizes a comparison of two operands of kind k. A NULL
// operand compares false (never NULL), as in refimpl, so the output is
// a bitmap-free VKBool vector. rc says the right operand is a constant
// (constKernel: the same value in every lane).
func cmpKernel(op lplan.BinOp, k table.Kind, l, r colKernel, rc bool) colKernel {
	switch k {
	case table.KindFloat:
		return cmpLanes(op, k, l, r, rc, floatsOf)
	case table.KindString:
		return cmpStrs(op, l, r)
	}
	return cmpLanes(op, k, l, r, rc, intsOf) // Int, Bool
}

// cmpLanes compares operands whose payloads are []T, with the operator
// switched on once per batch, not per lane: each lane against the
// constant, or lane against lane. Lanes where either side is NULL are
// cleared after. Results are Value.Compare's, NaN included.
func cmpLanes[T int64 | float64](op lplan.BinOp, k table.Kind, l, r colKernel, rc bool, payload func(*table.Vector) []T) colKernel {
	var out []int64
	return func(b *Batch) table.Vector {
		lv, rv := l(b), r(b)
		n := b.n
		out = growTo(out, n)
		o := out[:n]
		switch {
		case n == 0:
		case nullVec(&lv, k) || nullVec(&rv, k):
			clear(o)
		case rc:
			cmpConst(op, o, payload(&lv)[:n], payload(&rv)[0])
		default:
			cmpCols(op, o, payload(&lv)[:n], payload(&rv)[:n])
		}
		markNulls(nil, o, &lv)
		markNulls(nil, o, &rv)
		return table.Vector{K: table.VKBool, N: n, Ints: o}
	}
}

// cmpStrs compares two String operands lane by lane.
func cmpStrs(op lplan.BinOp, l, r colKernel) colKernel {
	var out []int64
	return func(b *Batch) table.Vector {
		lv, rv := l(b), r(b)
		out = growTo(out, b.n)
		o := out[:b.n]
		lnul, rnul := lv.HasNulls(), rv.HasNulls()
		if nullVec(&lv, table.KindString) || nullVec(&rv, table.KindString) {
			clear(o)
		} else {
			for i := range o {
				o[i] = btoi(!(lnul && lv.IsNull(i)) && !(rnul && rv.IsNull(i)) &&
					cmpStr(op, lv.Dict[lv.Ints[i]], rv.Dict[rv.Ints[i]]))
			}
		}
		return table.Vector{K: table.VKBool, N: b.n, Ints: o}
	}
}

// flipCmp returns the operator that compares b with a as op compares a
// with b, NaN semantics included (a <= b is !(a > b), b >= a is
// !(b < a)).
func flipCmp(op lplan.BinOp) lplan.BinOp {
	switch op {
	case lplan.OpLt:
		return lplan.OpGt
	case lplan.OpLe:
		return lplan.OpGe
	case lplan.OpGt:
		return lplan.OpLt
	case lplan.OpGe:
		return lplan.OpLe
	}
	return op
}

// cmpConst writes op(a[i], c) to out[i], with Value.Compare's
// semantics: over floats a NaN compares 0 with anything, so Le and Ge
// hold and Lt, Gt and Eq do not.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkCmpFloatConst, BenchmarkCmpIntCols, BenchmarkCmpFloatCols).
func cmpConst[T int64 | float64](op lplan.BinOp, out []int64, a []T, c T) {
	out = out[:len(a)]
	switch op {
	case lplan.OpEq:
		for i, x := range a {
			out[i] = btoi(x == c)
		}
	case lplan.OpNe:
		for i, x := range a {
			out[i] = btoi(x != c)
		}
	case lplan.OpLt:
		for i, x := range a {
			out[i] = btoi(x < c)
		}
	case lplan.OpLe:
		for i, x := range a {
			out[i] = btoi(!(x > c))
		}
	case lplan.OpGt:
		for i, x := range a {
			out[i] = btoi(x > c)
		}
	case lplan.OpGe:
		for i, x := range a {
			out[i] = btoi(!(x < c))
		}
	default:
		clear(out)
	}
}

// cmpCols writes op(a[i], b[i]) to out[i], with cmpConst's semantics.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkCmpIntCols, BenchmarkCmpFloatCols).
func cmpCols[T int64 | float64](op lplan.BinOp, out []int64, a, b []T) {
	out, b = out[:len(a)], b[:len(a)]
	switch op {
	case lplan.OpEq:
		for i, x := range a {
			out[i] = btoi(x == b[i])
		}
	case lplan.OpNe:
		for i, x := range a {
			out[i] = btoi(x != b[i])
		}
	case lplan.OpLt:
		for i, x := range a {
			out[i] = btoi(x < b[i])
		}
	case lplan.OpLe:
		for i, x := range a {
			out[i] = btoi(!(x > b[i]))
		}
	case lplan.OpGt:
		for i, x := range a {
			out[i] = btoi(x > b[i])
		}
	case lplan.OpGe:
		for i, x := range a {
			out[i] = btoi(!(x < b[i]))
		}
	default:
		clear(out)
	}
}

func cmpStr(op lplan.BinOp, a, b string) bool {
	switch op {
	case lplan.OpEq:
		return a == b
	case lplan.OpNe:
		return a != b
	case lplan.OpLt:
		return a < b
	case lplan.OpLe:
		return a <= b
	case lplan.OpGt:
		return a > b
	case lplan.OpGe:
		return a >= b
	}
	return false
}

func isNullKernel(in colKernel, inv bool) colKernel {
	var out []int64
	return func(b *Batch) table.Vector {
		v := in(b)
		n := b.n
		out = growTo(out, n)
		if !v.HasNulls() {
			fill := btoi(inv) // non-NULL lane: IsNull()==false, false != inv == inv
			for i := 0; i < n; i++ {
				out[i] = fill
			}
		} else {
			for i := 0; i < n; i++ {
				out[i] = btoi(v.IsNull(i) != inv)
			}
		}
		return table.Vector{K: table.VKBool, N: n, Ints: out[:n]}
	}
}

// inKernel tests X, of kind k, for membership in vals by Key()
// identity, as refimpl and GROUP BY do: integers and integral floats
// below 1e18 in size match as integers, other floats by their bits,
// strings by content and booleans by truth value. Only X's kind's set
// is built.
func inKernel(k table.Kind, in colKernel, vals []table.Value, inv bool) colKernel {
	switch k {
	case table.KindInt, table.KindFloat:
		ints, bits := map[int64]bool{}, map[uint64]bool{}
		for _, v := range vals {
			switch f := v.Float(); {
			case v.Kind() == table.KindInt:
				ints[v.Int()] = true
			case v.Kind() != table.KindFloat:
			case keyIntegral(f):
				ints[int64(f)] = true
			default:
				bits[math.Float64bits(f)] = true
			}
		}
		if k == table.KindInt {
			return inLanes(k, in, intsOf, func(x int64) bool { return ints[x] != inv })
		}
		return inLanes(k, in, floatsOf, func(f float64) bool {
			if keyIntegral(f) {
				return ints[int64(f)] != inv
			}
			return bits[math.Float64bits(f)] != inv
		})
	case table.KindBool:
		var has [2]bool
		for _, v := range vals {
			if v.Kind() == table.KindBool {
				has[v.Int()&1] = true
			}
		}
		return inLanes(k, in, intsOf, func(x int64) bool { return has[x&1] != inv })
	case table.KindString:
		strs := map[string]bool{}
		for _, v := range vals {
			if v.Kind() == table.KindString {
				strs[v.Str()] = true
			}
		}
		return strKernel(in, func(s string) bool { return strs[s] != inv })
	}
	return constKernel(table.NewBool(false)) // NULL is in no list
}

// keyIntegral reports whether Value.Key() folds the float f onto an
// integer.
func keyIntegral(f float64) bool {
	return f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e18
}

// inLanes is test of each lane of an operand of kind k whose payloads
// are []T; a NULL lane is false.
func inLanes[T int64 | float64](k table.Kind, in colKernel, payload func(*table.Vector) []T, test func(T) bool) colKernel {
	var out []int64
	return func(b *Batch) table.Vector {
		v := in(b)
		out = growTo(out, b.n)
		o := out[:b.n]
		if nullVec(&v, k) {
			clear(o)
		} else {
			for i, x := range payload(&v)[:b.n] {
				o[i] = btoi(test(x))
			}
			markNulls(nil, o, &v)
		}
		return table.Vector{K: table.VKBool, N: b.n, Ints: o}
	}
}

// strKernel is test of each lane of a String operand, run once per
// dictionary entry with the codes mapped through the results while the
// dictionary is no wider than the batch; a NULL lane is false.
func strKernel(in colKernel, test func(string) bool) colKernel {
	var out []int64
	var dictRes []bool
	return func(b *Batch) table.Vector {
		v := in(b)
		n := b.n
		out = growTo(out, n)
		o := out[:n]
		nul := v.HasNulls()
		switch {
		case nullVec(&v, table.KindString):
			clear(o)
		case len(v.Dict) <= n:
			dictRes = growTo(dictRes, len(v.Dict))
			for code, s := range v.Dict {
				dictRes[code] = test(s)
			}
			for i := range o {
				o[i] = btoi(!(nul && v.IsNull(i)) && dictRes[v.Ints[i]])
			}
		default:
			for i := range o {
				o[i] = btoi(!(nul && v.IsNull(i)) && test(v.Dict[v.Ints[i]]))
			}
		}
		return table.Vector{K: table.VKBool, N: n, Ints: o}
	}
}
