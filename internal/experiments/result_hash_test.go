package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"quickr"
	"quickr/internal/table"
)

// appendExact appends a kind-tagged, bit-precise encoding of v:
// unlike Value.Key, floats never collapse onto integers, so any
// difference in kind or bits changes the hash.
func appendExact(b []byte, v table.Value) []byte {
	switch v.Kind() {
	case table.KindNull:
		return append(b, 'n')
	case table.KindInt:
		return binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(v.Int()))
	case table.KindFloat:
		return binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(v.Float()))
	case table.KindString:
		s := v.Str()
		b = binary.LittleEndian.AppendUint64(append(b, 's'), uint64(len(s)))
		return append(b, s...)
	case table.KindBool:
		if v.Bool() {
			return append(b, 'b', 1)
		}
		return append(b, 'b', 0)
	}
	return append(b, '?')
}

// resultHash fingerprints a query result: every row value (exact bits,
// in order), then every group estimate's key, values, standard errors
// and sample support.
func resultHash(res *quickr.Result) string {
	h := sha256.New()
	var buf []byte
	for _, row := range res.InternalRows {
		buf = buf[:0]
		for _, v := range row {
			buf = appendExact(buf, v)
		}
		h.Write(append(buf, 0xff))
	}
	for _, g := range res.Estimates {
		buf = append(buf[:0], 0xfe)
		for _, k := range g.Key {
			buf = appendAnyExact(buf, k)
		}
		for _, v := range g.Values {
			buf = appendAnyExact(buf, v)
		}
		for _, se := range g.StdErr {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(se))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.SampleRows))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendAnyExact encodes the result API's any-typed values (the
// valsToAny image of a table.Value) with the same exactness.
func appendAnyExact(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, 'n')
	case int64:
		return binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(x))
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(x))
	case string:
		b = binary.LittleEndian.AppendUint64(append(b, 's'), uint64(len(x)))
		return append(b, x...)
	case bool:
		if x {
			return append(b, 'b', 1)
		}
		return append(b, 'b', 0)
	default:
		return append(b, fmt.Sprintf("?%v", x)...)
	}
}
