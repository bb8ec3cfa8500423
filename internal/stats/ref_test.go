package stats

import (
	"fmt"
	"math"
	"reflect"
	"sort"
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
// column, a column that is NULL throughout, one that mixes kinds, and a
// short row.
func handBuilt() *table.Table {
	sc := table.NewSchema(
		table.Column{Name: "i", Kind: table.KindInt},
		table.Column{Name: "f", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "b", Kind: table.KindBool},
		table.Column{Name: "nul", Kind: table.KindInt},
		table.Column{Name: "mix", Kind: table.KindString},
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
		r[5] = table.NewString("m")
	}
	for c := 0; c < 4; c++ {
		if (i+c)%11 == 0 {
			r[c] = table.Null
		}
	}
	return r
}

// Collect and NDVSet equal the row-wise reference bit for bit on
// generated and hand-built tables, freshly loaded and after three
// insert-then-read rounds (statistics read sealed columns; the rounds
// make them columns that grew in place). Each Collect is a first touch:
// this is the reference for tables never appended to after theirs.
func TestCollectMatchesRowReference(t *testing.T) {
	tables := []*table.Table{handBuilt(), data.Logs(20000, 7, 8)}
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
		check := func(when string) {
			t.Helper()
			got, ref := Collect(tbl), refCollect(tbl.Name, tbl.Schema, want)
			if got.RowCount != ref.RowCount || got.Bytes != ref.Bytes {
				t.Fatalf("%s %s: %d rows, %d bytes, want %d and %d", tbl.Name, when, got.RowCount, got.Bytes, ref.RowCount, ref.Bytes)
			}
			for _, c := range names {
				if !reflect.DeepEqual(got.Columns[c], ref.Columns[c]) {
					t.Fatalf("%s %s: column %s\n got %+v\nwant %+v", tbl.Name, when, c, got.Columns[c], ref.Columns[c])
				}
			}
			for _, set := range sets {
				if g, w := got.NDVSet(set), refSetNDV(tbl.Schema, want, set); g != w {
					t.Fatalf("%s %s: NDVSet(%v) = %v, want %v", tbl.Name, when, set, g, w)
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
