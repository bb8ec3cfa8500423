package lplan

import (
	"math"
	"testing"

	"quickr/internal/table"
)

// funcNames lists every scalar function CallFunc knows, and one it does
// not.
var funcNames = []string{
	"ABS", "ROUND", "FLOOR", "CEIL", "CEILDIV", "SQRT", "LN", "EXP", "POW",
	"YEAR", "MONTH", "DAY", "LENGTH", "UPPER", "LOWER", "SUBSTR", "CONCAT",
	"STARTSWITH", "HASHMOD", "BUCKET", "IF", "COALESCE", "NO_SUCH_FUNC",
}

// The argument kinds a fuzz input picks from, one base-5 digit per
// argument, the first argument in the lowest digit.
const (
	argNull uint16 = iota
	argInt
	argFloat
	argString
	argBool
)

func argKinds(ks ...uint16) uint16 {
	var c uint16
	for i := len(ks) - 1; i >= 0; i-- {
		c = 5*c + ks[i]
	}
	return c
}

// fuzzArgs builds arity%5 arguments of the kinds kinds encodes; integer
// and float arguments alternate between the two values given.
func fuzzArgs(arity uint8, kinds uint16, n, m int64, x, y float64, s string, b bool) []table.Value {
	args := make([]table.Value, arity%5)
	for j := range args {
		switch kinds % 5 {
		case argInt:
			args[j] = table.NewInt([]int64{n, m}[j%2])
		case argFloat:
			args[j] = table.NewFloat([]float64{x, y}[j%2])
		case argString:
			args[j] = table.NewString(s)
		case argBool:
			args[j] = table.NewBool(b)
		}
		kinds /= 5
	}
	return args
}

// FuzzCallFunc checks that no scalar function panics on any argument
// list the binder lets through: every function name, arity 0 to 4, and
// arguments of every kind. The executor's kernels evaluate every CASE
// branch and both AND/OR operands on every live lane, so a function
// must be total, not only on the lanes a row-at-a-time evaluator would
// have reached.
func FuzzCallFunc(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for fn := range funcNames {
		for arity := uint8(0); arity <= 4; arity++ {
			f.Add(uint8(fn), arity, argKinds(), int64(0), int64(0), 0.0, 0.0, "", false)
			f.Add(uint8(fn), arity, argKinds(argString, argInt, argInt), int64(-5), int64(2), 0.0, 0.0, "abc", false)
			f.Add(uint8(fn), arity, argKinds(argString, argInt, argFloat), int64(math.MinInt64), int64(math.MaxInt64), nan, negZero, "", true)
			f.Add(uint8(fn), arity, argKinds(argInt, argFloat, argFloat, argInt), int64(math.MinInt64), int64(-1), inf, -inf, "x", true)
			f.Add(uint8(fn), arity, argKinds(argString, argBool, argFloat, argInt), int64(1), int64(0), -inf, nan, "héllo", false)
			f.Add(uint8(fn), arity, argKinds(argBool, argBool, argBool, argBool), int64(-1), int64(math.MinInt64), negZero, inf, "", true)
		}
	}
	f.Fuzz(func(t *testing.T, fn, arity uint8, kinds uint16, n, m int64, x, y float64, s string, b bool) {
		CallFunc(funcNames[int(fn)%len(funcNames)], fuzzArgs(arity, kinds, n, m, x, y, s, b))
	})
}
