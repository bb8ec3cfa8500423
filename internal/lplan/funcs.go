package lplan

import (
	"math"
	"strings"

	"quickr/internal/table"
)

// Scalar (row-local) functions — the paper's UDFs. Dates are integers
// counting days since 1970-01-01; YEAR/MONTH/DAY use the civil-calendar
// conversion so generated date dimensions stay consistent.

// JoinKinds is the kind join under which the binder types CASE
// branches, IF and COALESCE arguments and UNION ALL arms: NULL ⊔ k = k,
// k ⊔ k = k and Int ⊔ Float = Float. Any other pair has no join
// (false). The join of no kinds is NULL.
func JoinKinds(ks ...table.Kind) (table.Kind, bool) {
	j := table.KindNull
	for _, k := range ks {
		switch {
		case k == j || k == table.KindNull:
		case j == table.KindNull:
			j = k
		case j == table.KindInt && k == table.KindFloat, j == table.KindFloat && k == table.KindInt:
			j = table.KindFloat
		default:
			return table.KindNull, false
		}
	}
	return j, true
}

// KindOf types a bound expression from its operands' declared kinds:
// a comparison, AND, OR, NOT, IN, IS NULL and LIKE are Bool, % is Int,
// / is Float, other arithmetic is Int over two Ints and Float
// otherwise, a CASE is the join of its branches, and a function returns
// FuncReturnKind's kind. The binder types every column by it, and the
// executor compiles every kernel from it.
func KindOf(e Expr) table.Kind {
	switch x := e.(type) {
	case *ColRef:
		return x.Kind
	case *Const:
		return x.Val.Kind()
	case *Binary:
		switch {
		case x.Op.IsComparison() || x.Op == OpAnd || x.Op == OpOr:
			return table.KindBool
		case x.Op == OpMod:
			return table.KindInt
		case x.Op == OpDiv:
			return table.KindFloat
		case KindOf(x.L) == table.KindInt && KindOf(x.R) == table.KindInt:
			return table.KindInt
		}
		return table.KindFloat
	case *Not, *In, *IsNull, *Like:
		return table.KindBool
	case *Neg:
		return KindOf(x.X)
	case *Func:
		kinds := make([]table.Kind, len(x.Args))
		for i, a := range x.Args {
			kinds[i] = KindOf(a)
		}
		return FuncReturnKind(x.Name, kinds)
	case *Case:
		k := KindOf(x.Else) // NULL when there is none
		for _, w := range x.Whens {
			k, _ = JoinKinds(k, KindOf(w.Then))
		}
		return k
	}
	return table.KindNull
}

// FuncReturnKind reports the result kind of a scalar function given its
// argument kinds; KindNull if the function is unknown. IF and COALESCE
// return the join of the arguments they may return (KindNull when they
// do not join): the binder widens those arguments to it, so every value
// they return has it.
func FuncReturnKind(name string, args []table.Kind) table.Kind {
	switch strings.ToUpper(name) {
	case "ABS", "ROUND":
		if len(args) > 0 && args[0] == table.KindInt {
			return table.KindInt
		}
		return table.KindFloat
	case "FLOOR", "CEIL", "CEILDIV", "YEAR", "MONTH", "DAY", "LENGTH", "HASHMOD", "BUCKET":
		return table.KindInt
	case "SQRT", "LN", "EXP", "POW", "FLOAT":
		return table.KindFloat
	case "UPPER", "LOWER", "SUBSTR", "CONCAT":
		return table.KindString
	case "IF":
		if len(args) == 3 {
			k, _ := JoinKinds(args[1:]...)
			return k
		}
		return table.KindNull
	case "COALESCE":
		k, _ := JoinKinds(args...)
		return k
	case "STARTSWITH":
		return table.KindBool
	}
	return table.KindNull
}

// KnownFunc reports whether name is a registered scalar function.
func KnownFunc(name string) bool {
	return FuncReturnKind(name, []table.Kind{table.KindFloat, table.KindFloat, table.KindFloat}) != table.KindNull ||
		strings.EqualFold(name, "IF") || strings.EqualFold(name, "COALESCE")
}

// CallFunc evaluates a scalar function. Unknown functions, NULL
// arguments (except for IF/COALESCE), a wrong argument count and an
// argument of the wrong kind yield NULL; a non-NULL result has the kind
// FuncReturnKind declares (IF and COALESCE return an argument, of the
// declared kind once the binder has widened them). FLOAT is the binder's
// widening call: an int or float argument as a float.
func CallFunc(name string, args []table.Value) table.Value {
	up := strings.ToUpper(name)
	switch up {
	case "IF":
		if len(args) != 3 {
			return table.Null
		}
		if args[0].Kind() == table.KindBool && args[0].Bool() {
			return args[1]
		}
		return args[2]
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a
			}
		}
		return table.Null
	}
	for _, a := range args {
		if a.IsNull() {
			return table.Null
		}
	}
	switch up {
	case "ABS":
		if len(args) != 1 || !args[0].IsNumeric() {
			return table.Null
		}
		if args[0].Kind() == table.KindInt {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return table.NewInt(v)
		}
		return table.NewFloat(math.Abs(args[0].Float()))
	case "ROUND":
		if len(args) < 1 || len(args) > 2 || !args[0].IsNumeric() {
			return table.Null
		}
		var digits int64
		if len(args) == 2 {
			if args[1].Kind() != table.KindInt {
				return table.Null
			}
			digits = args[1].Int()
		}
		if args[0].Kind() == table.KindInt {
			if digits >= 0 {
				return args[0]
			}
			if r, ok := roundInt(args[0].Int(), -digits); ok {
				return table.NewInt(r)
			}
			return table.Null
		}
		x := args[0].Float()
		scale := math.Pow(10, float64(digits))
		switch scaled := x * scale; {
		case math.IsNaN(scaled) || math.IsInf(scaled, 0):
			return args[0] // NaN, ±Inf, or no digit of x lies past the scale
		case scale == 0:
			return table.NewFloat(math.Copysign(0, x))
		case scaled == math.Trunc(scaled):
			return args[0]
		default:
			return table.NewFloat(math.Round(scaled) / scale)
		}
	case "FLOOR", "CEIL", "SQRT", "LN", "EXP", "FLOAT":
		if len(args) != 1 || !args[0].IsNumeric() {
			return table.Null
		}
		x := args[0].Float()
		switch up {
		case "FLOAT":
			return table.NewFloat(x)
		case "FLOOR":
			return table.NewInt(int64(math.Floor(x)))
		case "CEIL":
			return table.NewInt(int64(math.Ceil(x)))
		case "SQRT":
			return table.NewFloat(math.Sqrt(x))
		case "LN":
			return table.NewFloat(math.Log(x))
		default:
			return table.NewFloat(math.Exp(x))
		}
	case "CEILDIV":
		// CEILDIV(x, n) = ⌈x/n⌉ — the paper's example of stratifying on a
		// function of a column (§4.1.2, ⌈Y/100⌉).
		if len(args) != 2 || !args[0].IsNumeric() || !args[1].IsNumeric() {
			return table.Null
		}
		n := args[1].Float()
		if n == 0 {
			return table.Null
		}
		return table.NewInt(int64(math.Ceil(args[0].Float() / n)))
	case "POW":
		if len(args) != 2 || !args[0].IsNumeric() || !args[1].IsNumeric() {
			return table.Null
		}
		return table.NewFloat(math.Pow(args[0].Float(), args[1].Float()))
	case "YEAR", "MONTH", "DAY":
		if len(args) != 1 || args[0].Kind() != table.KindInt {
			return table.Null
		}
		y, m, d := CivilFromDays(args[0].Int())
		switch up {
		case "YEAR":
			return table.NewInt(int64(y))
		case "MONTH":
			return table.NewInt(int64(m))
		default:
			return table.NewInt(int64(d))
		}
	case "LENGTH":
		if len(args) != 1 || args[0].Kind() != table.KindString {
			return table.Null
		}
		return table.NewInt(int64(len(args[0].Str())))
	case "UPPER", "LOWER":
		if len(args) != 1 || args[0].Kind() != table.KindString {
			return table.Null
		}
		if up == "UPPER" {
			return table.NewString(strings.ToUpper(args[0].Str()))
		}
		return table.NewString(strings.ToLower(args[0].Str()))
	case "SUBSTR":
		if len(args) < 2 || len(args) > 3 || args[0].Kind() != table.KindString || !args[1].IsNumeric() ||
			(len(args) == 3 && !args[2].IsNumeric()) {
			return table.Null
		}
		s := args[0].Str()
		start := int(args[1].Float()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return table.NewString("")
		}
		end := len(s)
		if len(args) == 3 {
			n := args[2].Float()
			if !(n > 0) { // a negative, zero or NaN length
				return table.NewString("")
			}
			if n < float64(end-start) {
				end = start + int(n)
			}
		}
		return table.NewString(s[start:end])
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.String())
		}
		return table.NewString(b.String())
	case "STARTSWITH":
		if len(args) != 2 || args[0].Kind() != table.KindString || args[1].Kind() != table.KindString {
			return table.Null
		}
		return table.NewBool(strings.HasPrefix(args[0].Str(), args[1].Str()))
	case "HASHMOD", "BUCKET":
		// HASHMOD(x, n): deterministic bucketing of any value.
		if len(args) != 2 || args[1].Kind() != table.KindInt || args[1].Int() <= 0 {
			return table.Null
		}
		return table.NewInt(int64(args[0].Hash64() % uint64(args[1].Int())))
	}
	return table.Null
}

// roundInt rounds x half away from zero to a multiple of 10^k (k > 0);
// false when the result does not fit an int64.
func roundInt(x, k int64) (int64, bool) {
	if k >= 20 { // 10^k/2 exceeds every int64's magnitude
		return 0, true
	}
	p := uint64(1)
	for ; k > 0; k-- {
		p *= 10
	}
	mag := uint64(x)
	if x < 0 {
		mag = -mag
	}
	q, rem := mag/p, mag%p
	if rem >= p-rem {
		q++
	}
	r := q * p
	switch {
	case x >= 0 && r > math.MaxInt64, x < 0 && r > 1<<63:
		return 0, false
	case x < 0:
		return int64(-r), true
	}
	return int64(r), true
}

// CivilFromDays converts days since 1970-01-01 to (year, month, day)
// using Howard Hinnant's civil-from-days algorithm.
func CivilFromDays(z int64) (year int, month int, day int) {
	z += 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400                                     //
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365]
	mp := (5*doy + 2) / 153                                // [0, 11]
	d := doy - (153*mp+2)/5 + 1                            // [1, 31]
	m := mp + 3                                            //
	if m > 12 {
		m -= 12
	}
	if m <= 2 {
		y++
	}
	return int(y), int(m), int(d)
}

// DaysFromCivil converts (year, month, day) to days since 1970-01-01.
func DaysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	era := yy / 400
	if yy < 0 {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400
	mm := int64(m)
	var mp int64
	if mm > 2 {
		mp = mm - 3
	} else {
		mp = mm + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}
