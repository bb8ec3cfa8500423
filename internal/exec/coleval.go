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
// materialized row. Typed kernels compute densely over all physical
// lanes (dead lanes may hold garbage, which is fine — they are never
// read as live results). Function calls and CASE run their operands as
// kernels, then box only those operands' values, one live lane at a
// time; their dead lanes come out NULL.
//
// Kernels are compiled per partition and own their output buffers, so
// parallel partitions never share mutable state. A kernel's output is
// valid until its next invocation.

// colKernel evaluates an expression over a batch.
type colKernel func(b *Batch) Vector

func growInts(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
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

func isNumericVK(k VecKind) bool { return k == VKInt || k == VKFloat }

// allNull returns an n-lane all-NULL vector.
func allNull(n int) Vector { return Vector{K: VKNull, N: n} }

// compileColKernel compiles e into a columnar kernel over the column
// layout described by cm, whose builders draw on the run's ledger mem.
// An error is only possible when a referenced column is missing.
func compileColKernel(e lplan.Expr, cm colMap, mem *ledger) (colKernel, error) {
	switch x := e.(type) {
	case *lplan.ColRef:
		i, ok := cm[x.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column %s#%d not available", x.Name, x.ID)
		}
		return func(b *Batch) Vector { return b.cols[i] }, nil
	case *lplan.Const:
		return constKernel(x.Val), nil
	case *lplan.Binary:
		l, err := compileColKernel(x.L, cm, mem)
		if err != nil {
			return nil, err
		}
		r, err := compileColKernel(x.R, cm, mem)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case lplan.OpAnd:
			return andKernel(l, r), nil
		case lplan.OpOr:
			return orKernel(l, r), nil
		case lplan.OpAdd, lplan.OpSub, lplan.OpMul, lplan.OpDiv, lplan.OpMod:
			return arithKernel(x.Op, l, r, mem), nil
		default:
			return cmpKernel(x.Op, l, r), nil
		}
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
	case *lplan.Not:
		in, err := compileColKernel(x.X, cm, mem)
		if err != nil {
			return nil, err
		}
		return notKernel(in), nil
	case *lplan.Neg:
		in, err := compileColKernel(x.X, cm, mem)
		if err != nil {
			return nil, err
		}
		return negKernel(in, mem), nil
	case *lplan.IsNull:
		in, err := compileColKernel(x.X, cm, mem)
		if err != nil {
			return nil, err
		}
		return isNullKernel(in, x.Inv), nil
	case *lplan.In:
		in, err := compileColKernel(x.X, cm, mem)
		if err != nil {
			return nil, err
		}
		return inKernel(in, x.Vals, x.Inv), nil
	case *lplan.Like:
		in, err := compileColKernel(x.X, cm, mem)
		if err != nil {
			return nil, err
		}
		return likeKernel(in, x.Pattern, x.Inv), nil
	}
	return nil, fmt.Errorf("exec: cannot compile expression %T", e)
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

// funcKernel runs the argument kernels, then calls lplan.CallFunc once
// per live lane on that lane's boxed arguments.
func funcKernel(name string, args []colKernel, mem *ledger) colKernel {
	vecs := make([]Vector, len(args))
	vals := make([]table.Value, len(args))
	bld := vecBuilder{mem: mem}
	return func(b *Batch) Vector {
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
// first condition that is boolean true there, or the ELSE.
func caseKernel(ks []colKernel, mem *ledger) colKernel {
	vecs := make([]Vector, len(ks))
	bld := vecBuilder{mem: mem}
	return func(b *Batch) Vector {
		for j, k := range ks {
			vecs[j] = k(b)
		}
		return boxLanes(&bld, b, func(i int) table.Value {
			j := 0
			for ; j+1 < len(vecs); j += 2 {
				if laneTrue(&vecs[j], i) {
					return vecs[j+1].Value(i)
				}
			}
			return vecs[j].Value(i)
		})
	}
}

// boxLanes builds a vector one boxed value at a time: value(i) for each
// live lane i of b, NULL for each dead one.
func boxLanes(bld *vecBuilder, b *Batch, value func(i int) table.Value) Vector {
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

// laneTrue reports whether lane i of v is boolean true. VKBool lanes
// that are NULL carry payload 0.
func laneTrue(v *Vector, i int) bool {
	switch v.K {
	case VKBool:
		return v.Ints[i] != 0
	case VKAny:
		return truthy(v.Vals[i])
	}
	return false
}

// constKernel materializes a constant as an n-lane vector, refilled
// only when the batch grows past the cached width.
func constKernel(v table.Value) colKernel {
	var ints []int64
	var floats []float64
	return func(b *Batch) Vector {
		n := b.n
		switch v.Kind() {
		case table.KindNull:
			return allNull(n)
		case table.KindFloat:
			if len(floats) < n {
				floats = growFloats(floats, n)
				for i := range floats {
					floats[i] = v.Float()
				}
			}
			return Vector{K: VKFloat, N: n, Floats: floats[:n], constVal: true}
		case table.KindString:
			if len(ints) < n {
				ints = growInts(ints, n) // codes all 0
				for i := range ints {
					ints[i] = 0
				}
			}
			return Vector{K: VKStr, N: n, Ints: ints[:n], Dict: []string{v.Str()}, constVal: true}
		default: // int, bool
			k := VKInt
			if v.Kind() == table.KindBool {
				k = VKBool
			}
			if len(ints) < n {
				ints = growInts(ints, n)
				for i := range ints {
					ints[i] = v.Int()
				}
			}
			return Vector{K: k, N: n, Ints: ints[:n], constVal: true}
		}
	}
}

// andKernel / orKernel: boolean combination, where NULL and
// non-boolean lanes act as false on either side. For VKBool inputs NULL
// lanes carry payload 0, which makes that a plain payload test.
func andKernel(l, r colKernel) colKernel {
	var out []int64
	return func(b *Batch) Vector {
		lv, rv := l(b), r(b)
		n := b.n
		out = growInts(out, n)
		if lv.K == VKBool && rv.K == VKBool {
			o, li, ri := out[:n], lv.Ints[:n], rv.Ints[:n]
			for i := range o {
				o[i] = btoi(li[i] != 0) & btoi(ri[i] != 0)
			}
			return Vector{K: VKBool, N: n, Ints: out[:n]}
		}
		for i := 0; i < n; i++ {
			out[i] = btoi(laneTrue(&lv, i) && laneTrue(&rv, i))
		}
		return Vector{K: VKBool, N: n, Ints: out[:n]}
	}
}

func orKernel(l, r colKernel) colKernel {
	var out []int64
	return func(b *Batch) Vector {
		lv, rv := l(b), r(b)
		n := b.n
		out = growInts(out, n)
		if lv.K == VKBool && rv.K == VKBool {
			o, li, ri := out[:n], lv.Ints[:n], rv.Ints[:n]
			for i := range o {
				o[i] = btoi(li[i] != 0) | btoi(ri[i] != 0)
			}
			return Vector{K: VKBool, N: n, Ints: out[:n]}
		}
		for i := 0; i < n; i++ {
			out[i] = btoi(laneTrue(&lv, i) || laneTrue(&rv, i))
		}
		return Vector{K: VKBool, N: n, Ints: out[:n]}
	}
}

// arithKernel vectorizes +,-,*,/,% with the exact table.Add/Sub/Mul/
// Div/Mod semantics: int⊕int stays int except /, NULL or non-numeric
// operands yield NULL, division (or modulo) by zero yields NULL.
func arithKernel(op lplan.BinOp, l, r colKernel, mem *ledger) colKernel {
	var ints []int64
	var floats []float64
	var nulls []uint64
	bld := vecBuilder{mem: mem}
	return func(b *Batch) Vector {
		lv, rv := l(b), r(b)
		n := b.n
		switch {
		case lv.K == VKAny || rv.K == VKAny:
			bld.reset()
			for i := 0; i < n; i++ {
				bld.append(rowArith(op, lv.Value(i), rv.Value(i)))
			}
			return bld.build()
		case op == lplan.OpMod:
			if lv.K != VKInt || rv.K != VKInt {
				return allNull(n)
			}
			ints = growInts(ints, n)
			nulls = growBits(nulls, n)
			lnul, rnul := lv.hasNulls(), rv.hasNulls()
			for i := 0; i < n; i++ {
				if (lnul && lv.IsNull(i)) || (rnul && rv.IsNull(i)) || rv.Ints[i] == 0 {
					setBit(nulls, i)
					ints[i] = 0
					continue
				}
				ints[i] = lv.Ints[i] % rv.Ints[i]
			}
			return Vector{K: VKInt, N: n, Ints: ints[:n], nulls: nulls}
		case lv.K == VKInt && rv.K == VKInt && op != lplan.OpDiv:
			ints = growInts(ints, n)
			nulls = growBits(nulls, n)
			lnul, rnul := lv.hasNulls(), rv.hasNulls()
			li, ri := lv.Ints, rv.Ints
			switch op {
			case lplan.OpAdd:
				for i := 0; i < n; i++ {
					ints[i] = li[i] + ri[i]
				}
			case lplan.OpSub:
				for i := 0; i < n; i++ {
					ints[i] = li[i] - ri[i]
				}
			case lplan.OpMul:
				for i := 0; i < n; i++ {
					ints[i] = li[i] * ri[i]
				}
			}
			if lnul || rnul {
				for i := 0; i < n; i++ {
					if (lnul && lv.IsNull(i)) || (rnul && rv.IsNull(i)) {
						setBit(nulls, i)
					}
				}
			}
			return Vector{K: VKInt, N: n, Ints: ints[:n], nulls: nulls}
		case isNumericVK(lv.K) && isNumericVK(rv.K):
			floats = growFloats(floats, n)
			nulls = growBits(nulls, n)
			lnul, rnul := lv.hasNulls(), rv.hasNulls()
			for i := 0; i < n; i++ {
				if (lnul && lv.IsNull(i)) || (rnul && rv.IsNull(i)) {
					setBit(nulls, i)
					floats[i] = 0
					continue
				}
				a, c := lv.laneFloat(i), rv.laneFloat(i)
				switch op {
				case lplan.OpAdd:
					floats[i] = a + c
				case lplan.OpSub:
					floats[i] = a - c
				case lplan.OpMul:
					floats[i] = a * c
				case lplan.OpDiv:
					if c == 0 {
						setBit(nulls, i)
						floats[i] = 0
						continue
					}
					floats[i] = a / c
				}
			}
			return Vector{K: VKFloat, N: n, Floats: floats[:n], nulls: nulls}
		default:
			// A non-numeric side: every lane is NULL.
			return allNull(n)
		}
	}
}

func rowArith(op lplan.BinOp, lv, rv table.Value) table.Value {
	switch op {
	case lplan.OpAdd:
		return table.Add(lv, rv)
	case lplan.OpSub:
		return table.Sub(lv, rv)
	case lplan.OpMul:
		return table.Mul(lv, rv)
	case lplan.OpDiv:
		return table.Div(lv, rv)
	case lplan.OpMod:
		return table.Mod(lv, rv)
	}
	return table.Null
}

// cmpKernel vectorizes the six comparisons. NULL operands compare
// false (never NULL), as in refimpl, so the output is a
// bitmap-free VKBool vector.
func cmpKernel(op lplan.BinOp, l, r colKernel) colKernel {
	var out []int64
	var dictRes []bool
	return func(b *Batch) Vector {
		lv, rv := l(b), r(b)
		n := b.n
		out = growInts(out, n)
		if cmpDense(op, out[:n], &lv, &rv) {
			return Vector{K: VKBool, N: n, Ints: out[:n]}
		}
		switch {
		case lv.K == VKInt && rv.K == VKInt:
			lnul, rnul := lv.hasNulls(), rv.hasNulls()
			li, ri := lv.Ints, rv.Ints
			for i := 0; i < n; i++ {
				if (lnul && lv.IsNull(i)) || (rnul && rv.IsNull(i)) {
					out[i] = 0
					continue
				}
				out[i] = btoi(cmpInt(op, li[i], ri[i]))
			}
		case isNumericVK(lv.K) && isNumericVK(rv.K):
			lnul, rnul := lv.hasNulls(), rv.hasNulls()
			for i := 0; i < n; i++ {
				if (lnul && lv.IsNull(i)) || (rnul && rv.IsNull(i)) {
					out[i] = 0
					continue
				}
				out[i] = btoi(cmpFloat(op, lv.laneFloat(i), rv.laneFloat(i)))
			}
		case lv.K == VKStr && rv.K == VKStr && rv.constVal:
			// Compare each dictionary entry against the constant once,
			// then map codes through the result table.
			rs := rv.Dict[0]
			dictRes = growBools(dictRes, len(lv.Dict))
			for code, s := range lv.Dict {
				dictRes[code] = cmpStr(op, s, rs)
			}
			lnul := lv.hasNulls()
			for i := 0; i < n; i++ {
				if lnul && lv.IsNull(i) {
					out[i] = 0
					continue
				}
				out[i] = btoi(dictRes[lv.Ints[i]])
			}
		case lv.K == VKStr && rv.K == VKStr:
			lnul, rnul := lv.hasNulls(), rv.hasNulls()
			for i := 0; i < n; i++ {
				if (lnul && lv.IsNull(i)) || (rnul && rv.IsNull(i)) {
					out[i] = 0
					continue
				}
				out[i] = btoi(cmpStr(op, lv.Dict[lv.Ints[i]], rv.Dict[rv.Ints[i]]))
			}
		case lv.K == VKBool && rv.K == VKBool:
			lnul, rnul := lv.hasNulls(), rv.hasNulls()
			for i := 0; i < n; i++ {
				if (lnul && lv.IsNull(i)) || (rnul && rv.IsNull(i)) {
					out[i] = 0
					continue
				}
				out[i] = btoi(cmpInt(op, lv.Ints[i], rv.Ints[i]))
			}
		default:
			for i := 0; i < n; i++ {
				out[i] = btoi(cmpRow(op, lv.Value(i), rv.Value(i)))
			}
		}
		return Vector{K: VKBool, N: n, Ints: out[:n]}
	}
}

// cmpDense compares NULL-free numeric lanes with the operator switched
// on once per batch, not per lane, and reports whether it could: a
// column against a constant (read once, as a float unless both sides
// are integers) or two columns of one kind. Results are cmpInt's and
// cmpFloat's.
func cmpDense(op lplan.BinOp, out []int64, lv, rv *Vector) bool {
	if len(out) == 0 || lv.hasNulls() || rv.hasNulls() || !isNumericVK(lv.K) || !isNumericVK(rv.K) {
		return false
	}
	if lv.constVal && !rv.constVal {
		lv, rv, op = rv, lv, flipCmp(op)
	}
	n := len(out)
	switch {
	case rv.constVal && lv.K == VKInt && rv.K == VKInt:
		cmpConst(op, out, lv.Ints[:n], rv.Ints[0])
	case rv.constVal && lv.K == VKInt:
		cmpConst(op, out, lv.Ints[:n], rv.Floats[0])
	case rv.constVal:
		cmpConst(op, out, lv.Floats[:n], rv.laneFloat(0))
	case lv.K == VKInt && rv.K == VKInt:
		cmpCols(op, out, lv.Ints[:n], rv.Ints[:n])
	case lv.K == VKFloat && rv.K == VKFloat:
		cmpCols(op, out, lv.Floats[:n], rv.Floats[:n])
	default:
		return false
	}
	return true
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

// cmpConst writes op(C(a[i]), c) to out[i]: cmpFloat's semantics, which
// are cmpInt's over integers.
//
//hot:numeric compare against a constant, operator hoisted out of the lane loop
func cmpConst[T, C int64 | float64](op lplan.BinOp, out []int64, a []T, c C) {
	out = out[:len(a)]
	switch op {
	case lplan.OpEq:
		for i, x := range a {
			out[i] = btoi(C(x) == c)
		}
	case lplan.OpNe:
		for i, x := range a {
			out[i] = btoi(C(x) != c)
		}
	case lplan.OpLt:
		for i, x := range a {
			out[i] = btoi(C(x) < c)
		}
	case lplan.OpLe:
		for i, x := range a {
			out[i] = btoi(!(C(x) > c))
		}
	case lplan.OpGt:
		for i, x := range a {
			out[i] = btoi(C(x) > c)
		}
	case lplan.OpGe:
		for i, x := range a {
			out[i] = btoi(!(C(x) < c))
		}
	default:
		clear(out)
	}
}

// cmpCols writes op(a[i], b[i]) to out[i], with cmpConst's semantics.
//
//hot:numeric compare of two columns, operator hoisted out of the lane loop
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

func cmpInt(op lplan.BinOp, a, b int64) bool {
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

// cmpFloat matches Value.Compare/Equal over floats, including NaN:
// Compare reports 0 for NaN vs anything, so Le/Ge hold and Lt/Gt/Eq do
// not.
func cmpFloat(op lplan.BinOp, a, b float64) bool {
	switch op {
	case lplan.OpEq:
		return a == b
	case lplan.OpNe:
		return a != b
	case lplan.OpLt:
		return a < b
	case lplan.OpLe:
		return !(a > b)
	case lplan.OpGt:
		return a > b
	case lplan.OpGe:
		return !(a < b)
	}
	return false
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

// cmpRow compares two arbitrary lanes; a NULL compares false.
func cmpRow(op lplan.BinOp, lv, rv table.Value) bool {
	if lv.IsNull() || rv.IsNull() {
		return false
	}
	c := lv.Compare(rv)
	switch op {
	case lplan.OpEq:
		return lv.Equal(rv)
	case lplan.OpNe:
		return !lv.Equal(rv)
	case lplan.OpLt:
		return c < 0
	case lplan.OpLe:
		return c <= 0
	case lplan.OpGt:
		return c > 0
	case lplan.OpGe:
		return c >= 0
	}
	return false
}

func notKernel(in colKernel) colKernel {
	var out []int64
	return func(b *Batch) Vector {
		v := in(b)
		n := b.n
		out = growInts(out, n)
		if v.K == VKBool {
			nul := v.hasNulls()
			for i := 0; i < n; i++ {
				out[i] = btoi(!(nul && v.IsNull(i)) && v.Ints[i] == 0)
			}
		} else {
			for i := 0; i < n; i++ {
				lv := v.Value(i)
				out[i] = btoi(lv.Kind() == table.KindBool && !lv.Bool())
			}
		}
		return Vector{K: VKBool, N: n, Ints: out[:n]}
	}
}

func negKernel(in colKernel, mem *ledger) colKernel {
	var ints []int64
	var floats []float64
	var nulls []uint64
	bld := vecBuilder{mem: mem}
	return func(b *Batch) Vector {
		v := in(b)
		n := b.n
		switch v.K {
		case VKInt:
			ints = growInts(ints, n)
			nulls = growBits(nulls, n)
			nul := v.hasNulls()
			for i := 0; i < n; i++ {
				if nul && v.IsNull(i) {
					setBit(nulls, i)
					ints[i] = 0
					continue
				}
				ints[i] = -v.Ints[i]
			}
			return Vector{K: VKInt, N: n, Ints: ints[:n], nulls: nulls}
		case VKFloat:
			floats = growFloats(floats, n)
			nulls = growBits(nulls, n)
			nul := v.hasNulls()
			for i := 0; i < n; i++ {
				if nul && v.IsNull(i) {
					setBit(nulls, i)
					floats[i] = 0
					continue
				}
				floats[i] = -v.Floats[i]
			}
			return Vector{K: VKFloat, N: n, Floats: floats[:n], nulls: nulls}
		case VKAny:
			bld.reset()
			for i := 0; i < n; i++ {
				lv := v.Vals[i]
				switch lv.Kind() {
				case table.KindInt:
					bld.append(table.NewInt(-lv.Int()))
				case table.KindFloat:
					bld.append(table.NewFloat(-lv.Float()))
				default:
					bld.appendNull()
				}
			}
			return bld.build()
		default:
			// Strings, bools, all-NULL: NULL everywhere.
			return allNull(n)
		}
	}
}

func isNullKernel(in colKernel, inv bool) colKernel {
	var out []int64
	return func(b *Batch) Vector {
		v := in(b)
		n := b.n
		out = growInts(out, n)
		if !v.hasNulls() {
			fill := btoi(inv) // non-NULL lane: IsNull()==false, false != inv == inv
			for i := 0; i < n; i++ {
				out[i] = fill
			}
		} else {
			for i := 0; i < n; i++ {
				out[i] = btoi(v.IsNull(i) != inv)
			}
		}
		return Vector{K: VKBool, N: n, Ints: out[:n]}
	}
}

// inSets canonicalizes an IN list exactly like Value.Key(): integers
// and integral floats below 1e18 share the int set, remaining floats
// match by IEEE bits, strings by content, booleans by truth value.
type inSets struct {
	key   map[string]bool // row-identical Key() set, for VKAny lanes
	ints  map[int64]bool
	bits  map[uint64]bool
	boolv [2]bool
	strs  map[string]bool
}

func buildInSets(vals []table.Value) *inSets {
	s := &inSets{
		key:  make(map[string]bool, len(vals)),
		ints: make(map[int64]bool),
		bits: make(map[uint64]bool),
		strs: make(map[string]bool),
	}
	for _, v := range vals {
		s.key[v.Key()] = true
		switch v.Kind() {
		case table.KindInt:
			s.ints[v.Int()] = true
		case table.KindFloat:
			f := v.Float()
			if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e18 {
				s.ints[int64(f)] = true
			} else {
				s.bits[math.Float64bits(f)] = true
			}
		case table.KindString:
			s.strs[v.Str()] = true
		case table.KindBool:
			s.boolv[v.Int()&1] = true
		}
	}
	return s
}

func (s *inSets) hasFloat(f float64) bool {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e18 {
		return s.ints[int64(f)]
	}
	return s.bits[math.Float64bits(f)]
}

func inKernel(in colKernel, vals []table.Value, inv bool) colKernel {
	sets := buildInSets(vals)
	var out []int64
	var dictRes []bool
	return func(b *Batch) Vector {
		v := in(b)
		n := b.n
		out = growInts(out, n)
		switch v.K {
		case VKNull:
			for i := 0; i < n; i++ {
				out[i] = 0
			}
		case VKInt:
			nul := v.hasNulls()
			for i := 0; i < n; i++ {
				if nul && v.IsNull(i) {
					out[i] = 0
					continue
				}
				out[i] = btoi(sets.ints[v.Ints[i]] != inv)
			}
		case VKFloat:
			nul := v.hasNulls()
			for i := 0; i < n; i++ {
				if nul && v.IsNull(i) {
					out[i] = 0
					continue
				}
				out[i] = btoi(sets.hasFloat(v.Floats[i]) != inv)
			}
		case VKStr:
			dictRes = growBools(dictRes, len(v.Dict))
			for code, s := range v.Dict {
				dictRes[code] = sets.strs[s] != inv
			}
			nul := v.hasNulls()
			for i := 0; i < n; i++ {
				if nul && v.IsNull(i) {
					out[i] = 0
					continue
				}
				out[i] = btoi(dictRes[v.Ints[i]])
			}
		case VKBool:
			nul := v.hasNulls()
			for i := 0; i < n; i++ {
				if nul && v.IsNull(i) {
					out[i] = 0
					continue
				}
				out[i] = btoi(sets.boolv[v.Ints[i]&1] != inv)
			}
		default: // VKAny: exact row path, set[v.Key()]
			for i := 0; i < n; i++ {
				lv := v.Vals[i]
				if lv.IsNull() {
					out[i] = 0
					continue
				}
				out[i] = btoi(sets.key[lv.Key()] != inv)
			}
		}
		return Vector{K: VKBool, N: n, Ints: out[:n]}
	}
}

func likeKernel(in colKernel, pattern string, inv bool) colKernel {
	match := compileLike(pattern)
	var out []int64
	var dictRes []bool
	return func(b *Batch) Vector {
		v := in(b)
		n := b.n
		out = growInts(out, n)
		switch v.K {
		case VKStr:
			if len(v.Dict) <= n {
				// Match each dictionary entry once, map codes through.
				dictRes = growBools(dictRes, len(v.Dict))
				for code, s := range v.Dict {
					dictRes[code] = match(s) != inv
				}
				nul := v.hasNulls()
				for i := 0; i < n; i++ {
					if nul && v.IsNull(i) {
						out[i] = 0
						continue
					}
					out[i] = btoi(dictRes[v.Ints[i]])
				}
			} else {
				nul := v.hasNulls()
				for i := 0; i < n; i++ {
					if nul && v.IsNull(i) {
						out[i] = 0
						continue
					}
					out[i] = btoi(match(v.Dict[v.Ints[i]]) != inv)
				}
			}
		case VKAny:
			for i := 0; i < n; i++ {
				lv := v.Vals[i]
				if lv.Kind() != table.KindString {
					out[i] = 0
					continue
				}
				out[i] = btoi(match(lv.Str()) != inv)
			}
		default:
			// Non-string input: row semantics yield false everywhere.
			for i := 0; i < n; i++ {
				out[i] = 0
			}
		}
		return Vector{K: VKBool, N: n, Ints: out[:n]}
	}
}
