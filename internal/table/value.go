// Package table provides the typed value model, row and schema types, and
// in-memory partitioned tables that the rest of the engine operates on.
//
// Values are a compact tagged union rather than interface{} so that hot
// operator loops (filters, hash joins, samplers) avoid per-row allocation.
package table

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

const (
	// KindNull is the SQL NULL of any type.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer. Dates are stored as KindInt
	// counting days since an arbitrary epoch.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding one SQL value.
// The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It is valid only when Kind()==KindInt or
// KindBool.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload when KindFloat, or the integer payload
// widened to float when KindInt.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Str returns the string payload. Valid only when Kind()==KindString.
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload. Valid only when Kind()==KindBool.
func (v Value) Bool() bool { return v.i != 0 }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal reports SQL equality; NULL equals nothing, including NULL.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i
		}
		return v.Float() == o.Float()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.i == o.i
	}
	return false
}

// Order is Compare made a strict weak order for sorting: a NaN sorts
// after every other number and equals only a NaN, where Compare finds it
// equal to every number. ORDER BY, window ORDER BY and CompareRows sort
// by Order; predicates, MIN/MAX and statistics keep Compare.
func (v Value) Order(o Value) int {
	// Compare ties a NaN only with a number; nothing else differs.
	if c := v.Compare(o); c != 0 || v.kind != KindFloat && o.kind != KindFloat {
		return c
	}
	switch a, b := v.kind == KindFloat && math.IsNaN(v.f), o.kind == KindFloat && math.IsNaN(o.f); {
	case a && !b:
		return 1
	case b && !a:
		return -1
	}
	return 0
}

// Compare returns -1, 0 or +1 ordering v relative to o. NULL sorts first.
// Cross-kind numeric comparisons are performed in float space.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == KindNull && o.kind == KindNull:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
			return 0
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.kind != o.kind {
		// Deterministic but arbitrary cross-kind ordering.
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
	}
	return 0
}

// FNV-1a constants, inlined so hot hashing loops never allocate a
// hash.Hash (fnv.New64a escapes to the heap on every call).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h uint64, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Hash64 hashes the value with FNV-1a. Numeric values hash by canonical
// form so NewInt(2) and NewFloat(2.0) collide, matching Equal. The
// digest is bit-identical to feeding the tagged encoding through
// hash/fnv, but allocation-free. It dispatches to the typed Hash*
// functions below, which columnar code calls on raw payloads.
func (v Value) Hash64() uint64 {
	switch v.kind {
	case KindNull:
		return HashNull
	case KindInt:
		return HashInt(v.i)
	case KindFloat:
		return HashFloat(v.f)
	case KindString:
		return HashString(v.s)
	case KindBool:
		return HashBool(v.i != 0)
	}
	return fnvOffset64
}

// HashNull is NULL's Hash64.
var HashNull = fnvByte(fnvOffset64, 0)

// HashInt is NewInt(i).Hash64().
func HashInt(i int64) uint64 { return fnvUint64(fnvByte(fnvOffset64, 1), uint64(i)) }

// HashFloat is NewFloat(f).Hash64(): integral floats hash as their
// int64 conversion so they collide with the equal integer.
func HashFloat(f float64) uint64 {
	if f == math.Trunc(f) && !math.IsInf(f, 0) {
		return fnvUint64(fnvByte(fnvOffset64, 1), uint64(int64(f)))
	}
	return fnvUint64(fnvByte(fnvOffset64, 2), math.Float64bits(f))
}

// HashString is NewString(s).Hash64().
func HashString(s string) uint64 { return fnvString(fnvByte(fnvOffset64, 3), s) }

// HashBool is NewBool(b).Hash64().
func HashBool(b bool) uint64 {
	if b {
		return fnvByte(fnvByte(fnvOffset64, 4), 1)
	}
	return fnvByte(fnvByte(fnvOffset64, 4), 0)
}

// keyClass canonicalizes the value exactly like Key() does: class 1
// covers ints and integral floats below 1e18 (payload: the int64),
// class 2 the remaining floats (payload: IEEE bits), strings compare by
// content (class 3), booleans and NULL by tag. Two values have equal
// Key() strings iff their classes, payloads and string contents match.
func (v Value) keyClass() (uint8, uint64) {
	switch v.kind {
	case KindNull:
		return 0, 0
	case KindInt:
		return 1, uint64(v.i)
	case KindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && math.Abs(v.f) < 1e18 {
			return 1, uint64(int64(v.f))
		}
		return 2, math.Float64bits(v.f)
	case KindString:
		return 3, 0
	case KindBool:
		return 4, uint64(v.i)
	}
	return 255, 0
}

// Ident is a non-NULL value's key identity: comparable, and equal for
// two values exactly when their Key() strings are, without the string.
type Ident struct {
	class uint8
	p     uint64
	s     string
}

// Ident returns the value's key identity.
func (v Value) Ident() Ident {
	c, p := v.keyClass()
	return Ident{class: c, p: p, s: v.s}
}

// Value returns a value with the identity: NewInt for an integral float.
func (id Ident) Value() Value {
	switch id.class {
	case 1:
		return NewInt(int64(id.p))
	case 2:
		return NewFloat(math.Float64frombits(id.p))
	case 3:
		return NewString(id.s)
	case 4:
		return NewBool(id.p != 0)
	}
	return Null
}

// KeyEqual reports whether v.Key() == o.Key() without materializing
// either canonical key string; grouping by KeyEqual partitions values
// exactly like grouping by Key().
func (v Value) KeyEqual(o Value) bool {
	vc, vp := v.keyClass()
	oc, op := o.keyClass()
	if vc != oc {
		return false
	}
	if vc == 3 {
		return v.s == o.s
	}
	return vp == op
}

// AppendKey appends the value's canonical key (the exact bytes Key()
// returns) to b, avoiding the per-call string allocation of Key().
func (v Value) AppendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, 0)
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && math.Abs(v.f) < 1e18 {
			return strconv.AppendInt(append(b, 'i'), int64(v.f), 10)
		}
		return strconv.AppendUint(append(b, 'f'), math.Float64bits(v.f), 16)
	case KindString:
		return append(append(b, 's'), v.s...)
	case KindBool:
		if v.i != 0 {
			return append(b, 'b', 't')
		}
		return append(b, 'b', 'f')
	}
	return append(b, '?')
}

// Key returns a canonical string key of the value, usable as a map key
// with the same collision semantics as Equal.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && math.Abs(v.f) < 1e18 {
			return "i" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f" + strconv.FormatUint(math.Float64bits(v.f), 16)
	case KindString:
		return "s" + v.s
	case KindBool:
		if v.i != 0 {
			return "bt"
		}
		return "bf"
	}
	return "?"
}

// ByteSize approximates the in-flight size of the value in bytes; used by
// the cluster simulator to account for shuffled and intermediate data.
func (v Value) ByteSize() int {
	switch v.kind {
	case KindString:
		return 8 + len(v.s)
	case KindNull:
		return 1
	default:
		return 8
	}
}

// laneBytes is ByteSize of lane i of v.
func (v *Vector) laneBytes(i int) int {
	switch v.K {
	case VKNull:
		return 1
	case VKStr:
		if v.IsNull(i) {
			return 1
		}
		return 8 + len(v.Dict[v.Ints[i]])
	}
	if v.IsNull(i) {
		return 1
	}
	return 8
}

// BytesAll sums ByteSize over every lane of v (dense window accounting).
//
// internal/exec's TestHotPathAllocCeilings holds its allocations per
// run (every plan scans through it).
func (v *Vector) BytesAll() float64 {
	switch v.K {
	case VKNull:
		return float64(v.N)
	case VKStr:
		n := 0
		if v.Nulls == nil {
			n = 8 * v.N
			for _, code := range v.Ints[:v.N] {
				n += len(v.Dict[code])
			}
		} else {
			for i := 0; i < v.N; i++ {
				n += v.laneBytes(i)
			}
		}
		return float64(n)
	}
	// Fixed width: 8 bytes a lane, 1 for a NULL.
	return float64(8*v.N - 7*countNulls(v.Nulls, v.NullOff, v.N))
}

// BytesSel sums ByteSize over the selected lanes of v.
func (v *Vector) BytesSel(sel []int32) float64 {
	switch v.K {
	case VKNull:
		return float64(len(sel))
	case VKInt, VKFloat, VKBool:
		if v.Nulls == nil {
			return float64(8 * len(sel))
		}
	case VKStr:
		if v.Nulls == nil {
			n := 8 * len(sel)
			for _, i := range sel {
				n += len(v.Dict[v.Ints[i]])
			}
			return float64(n)
		}
	}
	n := 0
	for _, i := range sel {
		n += v.laneBytes(int(i))
	}
	return float64(n)
}

// countNulls counts the set bits among lanes [off, off+n) of a NULL
// bitmap (nil = none), a word at a time.
func countNulls(nulls []uint64, off, n int) int {
	if nulls == nil {
		return 0
	}
	cnt := 0
	for lo, hi := off, off+n; lo < hi; {
		word, span := nulls[lo>>6]>>(uint(lo)&63), 64-lo&63
		if span > hi-lo {
			span = hi - lo
			word &= 1<<uint(span) - 1
		}
		cnt += bits.OnesCount64(word)
		lo += span
	}
	return cnt
}

// Arithmetic helpers. Operations involving NULL yield NULL. Integer
// arithmetic stays integral; mixed int/float widens to float.

// Add returns v + o.
func Add(v, o Value) Value { return arith(v, o, '+') }

// Sub returns v - o.
func Sub(v, o Value) Value { return arith(v, o, '-') }

// Mul returns v * o.
func Mul(v, o Value) Value { return arith(v, o, '*') }

// Div returns v / o; division by zero yields NULL.
func Div(v, o Value) Value { return arith(v, o, '/') }

// Mod returns v % o for integers; NULL otherwise or on zero divisor.
func Mod(v, o Value) Value {
	if v.kind != KindInt || o.kind != KindInt || o.i == 0 {
		return Null
	}
	return NewInt(v.i % o.i)
}

func arith(v, o Value, op byte) Value {
	if !v.IsNumeric() || !o.IsNumeric() {
		return Null
	}
	if v.kind == KindInt && o.kind == KindInt && op != '/' {
		switch op {
		case '+':
			return NewInt(v.i + o.i)
		case '-':
			return NewInt(v.i - o.i)
		case '*':
			return NewInt(v.i * o.i)
		}
	}
	a, b := v.Float(), o.Float()
	switch op {
	case '+':
		return NewFloat(a + b)
	case '-':
		return NewFloat(a - b)
	case '*':
		return NewFloat(a * b)
	case '/':
		if b == 0 {
			return Null
		}
		return NewFloat(a / b)
	}
	return Null
}
