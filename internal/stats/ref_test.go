package stats

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"quickr/internal/data"
	"quickr/internal/sketch"
	"quickr/internal/table"
)

// The row-wise statistics pass, as Collect and NDVSet ran it over
// boxed rows: partition by partition, row by row, every column of a row
// before the next row, Value.Key rendered per lane. Collect over the
// column vectors must equal it bit for bit — the sketches see each
// column's values in the same order, the float sums add in the same
// order — or plans, samples and every golden move.

func refCollect(name string, schema *table.Schema, parts [][]table.Row) *TableStats {
	ts := &TableStats{Table: name, Columns: map[string]*ColumnStats{}}
	n := schema.Len()
	type colAcc struct {
		cs    *ColumnStats
		kmv   *sketch.KMV
		lossy *sketch.LossyCounter[string]
		sum   float64
		sumsq float64
		cnt   int64
	}
	accs := make([]*colAcc, n)
	for i, c := range schema.Cols {
		accs[i] = &colAcc{
			cs:    &ColumnStats{Name: c.Name, Kind: c.Kind, Min: table.Null, Max: table.Null},
			kmv:   sketch.NewKMV(1024),
			lossy: sketch.NewLossyCounter[string](lossyEps),
		}
	}
	for _, part := range parts {
		for _, row := range part {
			ts.RowCount++
			ts.Bytes += int64(row.ByteSize())
			for i := 0; i < n; i++ {
				v := table.Null
				if i < len(row) {
					v = row[i]
				}
				a := accs[i]
				if v.IsNull() {
					a.cs.NullCount++
					continue
				}
				key := v.Key()
				a.kmv.Add(key)
				a.lossy.Add(key)
				if v.IsNumeric() {
					f := v.Float()
					a.sum += f
					a.sumsq += f * f
					a.cnt++
				}
				if a.cs.Min.IsNull() || v.Compare(a.cs.Min) < 0 {
					a.cs.Min = v
				}
				if a.cs.Max.IsNull() || v.Compare(a.cs.Max) > 0 {
					a.cs.Max = v
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		a := accs[i]
		a.cs.NDV = a.kmv.Estimate()
		if a.cnt > 0 {
			a.cs.Avg = a.sum / float64(a.cnt)
			a.cs.Var = math.Max(0, a.sumsq/float64(a.cnt)-a.cs.Avg*a.cs.Avg)
		}
		for _, hh := range a.lossy.HeavyHitters(heavyFraction) {
			a.cs.Heavy = append(a.cs.Heavy, HeavyValue{Value: keyToValue(hh.Key), Freq: hh.Freq})
		}
		ts.Columns[a.cs.Name] = a.cs
	}
	return ts
}

func refSetNDV(schema *table.Schema, parts [][]table.Row, cols []string) float64 {
	sorted := append([]string{}, cols...)
	sort.Strings(sorted)
	kmv := sketch.NewKMV(1024)
	var sb strings.Builder
	for _, part := range parts {
		for _, row := range part {
			sb.Reset()
			for _, c := range sorted {
				v := table.Null
				if i := schema.Index(c); i < len(row) {
					v = row[i]
				}
				sb.WriteString(v.Key())
				sb.WriteByte(0)
			}
			kmv.Add(sb.String())
		}
	}
	return kmv.Estimate()
}

// handBuilt has what the generators never produce: NULLs in every typed
// column, a column that is NULL throughout, a Float column appended ints
// and floats alike (Append widens the ints), and a short row.
func handBuilt() *table.Table {
	sc := table.NewSchema(
		table.Column{Name: "i", Kind: table.KindInt},
		table.Column{Name: "f", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "b", Kind: table.KindBool},
		table.Column{Name: "nul", Kind: table.KindInt},
		table.Column{Name: "mix", Kind: table.KindFloat},
	)
	t := table.New("hand", sc, 3)
	for i := 0; i < 3000; i++ {
		t.Append(i, handRow(i))
	}
	t.Append(1, table.Row{table.NewInt(-1), table.NewFloat(0.25)})
	return t
}

func handRow(i int) table.Row {
	r := table.Row{
		table.NewInt(int64(i % 700)),
		table.NewFloat(float64(i) / 8),
		table.NewString(fmt.Sprintf("s%d", i%13)),
		table.NewBool(i%3 == 0),
		table.Null,
		table.NewInt(int64(i % 5)),
	}
	if i%4 == 1 {
		r[5] = table.NewFloat(2.5)
	}
	for c := 0; c < 4; c++ {
		if (i+c)%11 == 0 {
			r[c] = table.Null
		}
	}
	return r
}

// sameColumn is reflect.DeepEqual, except that floats are compared by
// their bits: a NaN equals itself.
func sameColumn(a, b *ColumnStats) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	bits := func(cs *ColumnStats) string {
		val := func(v table.Value) string {
			return fmt.Sprintf("%v/%x/%d/%q", v.Kind(), math.Float64bits(v.Float()), v.Int(), v.Str())
		}
		out := fmt.Sprintf("%s %v %d %x %x %x %s %s %v", cs.Name, cs.Kind, cs.NullCount, math.Float64bits(cs.NDV),
			math.Float64bits(cs.Avg), math.Float64bits(cs.Var), val(cs.Min), val(cs.Max), cs.Heavy == nil)
		for _, h := range cs.Heavy {
			out += fmt.Sprintf(" %s:%d", val(h.Value), h.Freq)
		}
		return out
	}
	return bits(a) == bits(b)
}

// kernelTables have the shapes the fold kernels branch on. Each builds
// its rows with row(i) and appends row i to partition i%parts.
func kernelTables() []*table.Table {
	build := func(name string, parts, rows int, row func(i int) table.Row, cols ...table.Column) *table.Table {
		t := table.New(name, table.NewSchema(cols...), parts)
		for i := 0; i < rows; i++ {
			t.Append(i, row(i))
		}
		return t
	}
	col := func(name string, k table.Kind) table.Column { return table.Column{Name: name, Kind: k} }
	nan, inf := math.NaN(), math.Inf(1)
	floats := []float64{2.5, nan, 0, math.Copysign(0, -1), inf, -inf, 1e18, -1e18, 1e18 - 128, 1e19, 3, -7}
	return []*table.Table{
		// More distinct values than the KMV counts exactly (4×1024), in
		// a column and in both column sets.
		build("wide", 2, 12000, func(i int) table.Row {
			return table.Row{table.NewInt(int64(i * 7919 % 10007)), table.NewString(fmt.Sprintf("t%d", i%50)), table.NewFloat(float64(i%3000) / 4)}
		}, col("id", table.KindInt), col("tag", table.KindString), col("x", table.KindFloat)),
		// One 26 000-lane partition, so a fold spans three prune windows
		// of 10 001 adds: "hot" occurs once in the first window and then
		// not before the third, "run" straddles the first prune, and the
		// NULLs of b and n move where each column's windows end.
		build("long", 1, 26000, func(i int) table.Row {
			s, v := fmt.Sprintf("u%d", i%3000), int64(i%3000)
			switch {
			case i == 5 || i >= 20500 && i < 21000:
				s, v = "hot", -1
			case i >= 9800 && i < 10300:
				s, v = "run", -2
			}
			r := table.Row{table.NewString(s), table.NewInt(v), table.NewBool(i%3 == 0), table.NewString(fmt.Sprintf("n%d", i%40))}
			if i%11 == 0 {
				r[2] = table.Null
			}
			if i%7 == 0 {
				r[3] = table.Null
			}
			return r
		}, col("s", table.KindString), col("i", table.KindInt), col("b", table.KindBool), col("n", table.KindString)),
		// NaN, ±0, ±Inf and integral floats at and above 1e18: f starts
		// partition 0 with 2.5 and partition 1 with NaN, g starts with
		// NaN; ig is appended ints in partition 0 (Append widens them)
		// and floats in partition 1, gi the reverse.
		build("floats", 2, 4000, func(i int) table.Row {
			f := floats[i%len(floats)]
			ig, gi := table.NewInt(int64(i%90-45)), table.NewFloat(floats[i%len(floats)])
			if i%2 == 1 {
				ig, gi = table.NewFloat(floats[(i/2)%len(floats)]), table.NewInt(int64(i%90-45))
			}
			return table.Row{table.NewFloat(f), table.NewFloat(floats[(i+1)%len(floats)]), ig, gi}
		}, col("f", table.KindFloat), col("g", table.KindFloat), col("ig", table.KindFloat), col("gi", table.KindFloat)),
		// a is NULL-free in partition 0 and holds NULLs in partition 1;
		// b is a float column appended ints and, in partition 0, 0.5; d
		// has a dictionary longer than the tails that extend it.
		build("anyint", 2, 6000, func(i int) table.Row {
			a, b := table.NewInt(int64(i%50)), table.NewInt(int64(i%70))
			if i%10 == 1 {
				a = table.Null
			}
			if i%10 == 4 {
				b = table.NewFloat(0.5)
			}
			return table.Row{a, b, table.NewString(fmt.Sprintf("d%d", i%3000))}
		}, col("a", table.KindInt), col("b", table.KindFloat), col("d", table.KindString)),
	}
}

// Collect and NDVSet equal the row-wise reference bit for bit on
// generated and hand-built tables, freshly loaded and after three
// insert-then-read rounds (statistics read sealed columns; the rounds
// make them columns that grew in place). Each Collect is a first touch:
// this is the reference for tables never appended to after theirs. A
// store read at the same points folds each round's tails after the
// lanes it folded before, so it equals the reference over the rows in
// that order: per partition, the lanes new since the previous read.
func TestCollectMatchesRowReference(t *testing.T) {
	tables := append([]*table.Table{handBuilt(), data.Logs(20000, 7, 8)}, kernelTables()...)
	h := data.GenerateTPCH(data.TPCHConfig{ScaleFactor: 0.1, Seed: 3})
	for _, tbl := range h.Tables {
		tables = append(tables, tbl)
	}
	for _, tbl := range tables {
		names := tbl.Schema.Names()
		sets := [][]string{{names[0], names[len(names)-1]}, names[:min(3, len(names))]}
		// Never read so far: Rows returns the appended rows themselves.
		want := make([][]table.Row, len(tbl.Partitions))
		for p := range want {
			want[p] = tbl.Rows(p)
		}
		store, folded := NewStore(), make([]int, len(want))
		var segs [][]table.Row // the rows in the order store folded them
		check := func(when string) {
			t.Helper()
			for p := range want {
				segs = append(segs, want[p][folded[p]:])
				folded[p] = len(want[p])
			}
			for _, c := range []struct {
				how  string
				got  *TableStats
				rows [][]table.Row
			}{{"Collect", Collect(tbl), want}, {"Store.Get", store.Get(tbl), segs}} {
				got, ref := c.got, refCollect(tbl.Name, tbl.Schema, c.rows)
				if got.RowCount != ref.RowCount || got.Bytes != ref.Bytes {
					t.Fatalf("%s %s %s: %d rows, %d bytes, want %d and %d", c.how, tbl.Name, when, got.RowCount, got.Bytes, ref.RowCount, ref.Bytes)
				}
				for _, col := range names {
					if !sameColumn(got.Columns[col], ref.Columns[col]) {
						t.Fatalf("%s %s %s: column %s\n got %+v\nwant %+v", c.how, tbl.Name, when, col, got.Columns[col], ref.Columns[col])
					}
				}
				for _, set := range sets {
					if g, w := got.NDVSet(set), refSetNDV(tbl.Schema, c.rows, set); g != w {
						t.Fatalf("%s %s %s: NDVSet(%v) = %v, want %v", c.how, tbl.Name, when, set, g, w)
					}
				}
			}
		}
		check("freshly loaded")
		for round := 1; round <= 3; round++ {
			// Re-insert a stride of the table's own rows: new lanes, known
			// dictionary entries and, for the hand-built table, new ones.
			for i, n := round, len(want[0]); i < n; i += 97 {
				r := want[0][i]
				if tbl.Name == "hand" {
					r = handRow(3000 + 31*round + i)
				}
				tbl.Append(i, r)
				want[i%len(want)] = append(want[i%len(want)], r)
			}
			check(fmt.Sprintf("after insert round %d", round))
		}
	}
}

// keyToValue reconstructs the value behind a Value.Key encoding: the
// sketch reports heavy hitters by key, HeavyFreq matches them by value.
func keyToValue(key string) table.Value {
	if key == "" {
		return table.Null
	}
	switch key[0] {
	case 'i':
		var n int64
		neg := false
		s := key[1:]
		if strings.HasPrefix(s, "-") {
			neg = true
			s = s[1:]
		}
		for _, c := range s {
			if c < '0' || c > '9' {
				return table.NewString(key)
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return table.NewInt(n)
	case 'f':
		bits, err := strconv.ParseUint(key[1:], 16, 64)
		if err != nil {
			return table.NewString(key)
		}
		return table.NewFloat(math.Float64frombits(bits))
	case 's':
		return table.NewString(key[1:])
	case 'b':
		return table.NewBool(key == "bt")
	default:
		return table.NewString(key)
	}
}
