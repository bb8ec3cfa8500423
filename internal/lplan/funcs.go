package lplan

import (
	"math"
	"strings"

	"quickr/internal/table"
)

// Scalar (row-local) functions — the paper's UDFs. Dates are integers
// counting days since 1970-01-01; YEAR/MONTH/DAY use the civil-calendar
// conversion so generated date dimensions stay consistent.

// FuncReturnKind reports the result kind of a scalar function given its
// argument kinds; KindNull if the function is unknown.
func FuncReturnKind(name string, args []table.Kind) table.Kind {
	switch strings.ToUpper(name) {
	case "ABS", "ROUND":
		if len(args) > 0 && args[0] == table.KindInt {
			return table.KindInt
		}
		return table.KindFloat
	case "FLOOR", "CEIL", "CEILDIV", "YEAR", "MONTH", "DAY", "LENGTH", "HASHMOD", "BUCKET":
		return table.KindInt
	case "SQRT", "LN", "EXP", "POW":
		return table.KindFloat
	case "UPPER", "LOWER", "SUBSTR", "CONCAT":
		return table.KindString
	case "IF":
		if len(args) == 3 {
			return args[1]
		}
		return table.KindNull
	case "COALESCE":
		if len(args) > 0 {
			return args[0]
		}
		return table.KindNull
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

// CallFunc evaluates a scalar function. Unknown functions and NULL
// arguments (except for IF/COALESCE) yield NULL.
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
		if len(args) < 1 || !args[0].IsNumeric() {
			return table.Null
		}
		if len(args) == 2 && args[1].Kind() == table.KindInt {
			scale := math.Pow(10, float64(args[1].Int()))
			return table.NewFloat(math.Round(args[0].Float()*scale) / scale)
		}
		return table.NewFloat(math.Round(args[0].Float()))
	case "FLOOR":
		return table.NewInt(int64(math.Floor(numArg(args, 0))))
	case "CEIL":
		return table.NewInt(int64(math.Ceil(numArg(args, 0))))
	case "CEILDIV":
		// CEILDIV(x, n) = ⌈x/n⌉ — the paper's example of stratifying on a
		// function of a column (§4.1.2, ⌈Y/100⌉).
		if len(args) != 2 {
			return table.Null
		}
		n := numArg(args, 1)
		if n == 0 {
			return table.Null
		}
		return table.NewInt(int64(math.Ceil(numArg(args, 0) / n)))
	case "SQRT":
		return table.NewFloat(math.Sqrt(numArg(args, 0)))
	case "LN":
		return table.NewFloat(math.Log(numArg(args, 0)))
	case "EXP":
		return table.NewFloat(math.Exp(numArg(args, 0)))
	case "POW":
		if len(args) != 2 {
			return table.Null
		}
		return table.NewFloat(math.Pow(numArg(args, 0), numArg(args, 1)))
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
		if len(args) != 1 {
			return table.Null
		}
		if up == "UPPER" {
			return table.NewString(strings.ToUpper(args[0].Str()))
		}
		return table.NewString(strings.ToLower(args[0].Str()))
	case "SUBSTR":
		if len(args) < 2 || args[0].Kind() != table.KindString {
			return table.Null
		}
		s := args[0].Str()
		start := int(numArg(args, 1)) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return table.NewString("")
		}
		end := len(s)
		if len(args) == 3 {
			n := numArg(args, 2)
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
		if len(args) != 2 {
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

func numArg(args []table.Value, i int) float64 {
	if i >= len(args) {
		return 0
	}
	return args[i].Float()
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
