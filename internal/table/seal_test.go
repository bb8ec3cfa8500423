package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// sealColumn is one column of the seal property test: its kind and a
// generator of its values. Lane ordinals drive the phase changes, so
// where a seal falls relative to a change of representation varies with
// the interleaving.
type sealColumn struct {
	kind Kind
	gen  func(rng *rand.Rand, lane int) Value
}

func sealColumns(rng *rand.Rand) []sealColumn {
	turn := rng.Intn(150) // lane at which the phased columns change
	return []sealColumn{
		{KindInt, func(rng *rand.Rand, _ int) Value { // int, some NULLs
			if rng.Intn(10) == 0 {
				return Null
			}
			return NewInt(rng.Int63n(1000) - 500)
		}},
		{KindFloat, func(rng *rand.Rand, _ int) Value { return NewFloat(rng.Float64()) }}, // float, never NULL
		{KindString, func(rng *rand.Rand, lane int) Value { // string whose dictionary keeps growing
			if rng.Intn(7) == 0 {
				return Null
			}
			return NewString(fmt.Sprintf("s%d", rng.Intn(2+lane/3)))
		}},
		{KindBool, func(rng *rand.Rand, _ int) Value { return NewBool(rng.Intn(2) == 0) }},
		{KindInt, func(*rand.Rand, int) Value { return Null }}, // all NULL for good
		{KindFloat, func(rng *rand.Rand, lane int) Value { // all NULL, then a late first non-NULL
			if lane < turn || rng.Intn(4) == 0 {
				return Null
			}
			return NewFloat(float64(lane) / 3)
		}},
		{KindInt, func(rng *rand.Rand, lane int) Value { // NULL-free ints, then late NULLs: a bitmap mid-life
			if lane >= turn && rng.Intn(5) == 0 {
				return Null
			}
			return NewInt(int64(lane))
		}},
	}
}

func padRow(r Row, width int) Row {
	out := make(Row, width)
	copy(out, r)
	return out
}

// checkPartition holds one partition to the storage contract: its
// snapshot is what Columnarize builds from every row ever appended, the
// tail is empty after the read, Rows returns the appended rows, and every
// published slice is clipped.
func checkPartition(t *testing.T, tbl *Table, p int, want []Row) {
	t.Helper()
	width := tbl.Schema.Len()
	cp := tbl.Columnar(p)
	ref := Columnarize(want, width)
	for c := range ref.Cols {
		if !reflect.DeepEqual(cp.Cols[c], ref.Cols[c]) {
			t.Fatalf("partition %d (%d rows) column %d differs from Columnarize over the appended rows\n got %+v\nwant %+v", p, len(want), c, cp.Cols[c], ref.Cols[c])
		}
	}
	if !reflect.DeepEqual(cp, ref) {
		t.Fatalf("partition %d: snapshot header {%d rows, %d bytes}, want {%d, %d}", p, cp.NumRows, cp.Bytes, ref.NumRows, ref.Bytes)
	}
	if n := len(tbl.Partitions[p]); n != 0 {
		t.Fatalf("partition %d: %d rows left in the tail after a read", p, n)
	}
	got := tbl.Rows(p)
	if len(got) != len(want) {
		t.Fatalf("partition %d: Rows returns %d rows, want %d", p, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], padRow(want[i], width)) {
			t.Fatalf("partition %d row %d: got %v, want %v", p, i, got[i], want[i])
		}
	}
	checkClipped(t, cp)
}

func checkClipped(t *testing.T, cp *ColPartition) {
	t.Helper()
	for c := range cp.Cols {
		cv := &cp.Cols[c]
		if cap(cv.Ints) != len(cv.Ints) || cap(cv.Floats) != len(cv.Floats) || cap(cv.Dict) != len(cv.Dict) ||
			cap(cv.Nulls) != len(cv.Nulls) {
			t.Fatalf("column %d: a published slice has spare capacity: a reader could append into the table's array", c)
		}
	}
}

func checkSize(t *testing.T, tbl *Table, want [][]Row) {
	t.Helper()
	rows, bytes := 0, int64(0)
	for _, part := range want {
		rows += len(part)
		bytes += rowsBytes(part)
	}
	if tbl.NumRows() != rows || tbl.ByteSize() != bytes {
		t.Fatalf("NumRows=%d ByteSize=%d, want %d and %d", tbl.NumRows(), tbl.ByteSize(), rows, bytes)
	}
}

// After any interleaving of Append and Columnar a partition's snapshot
// equals Columnarize over every row ever appended to it: NULLs, a late
// first non-NULL, late NULLs in a NULL-free column, an all-NULL column
// that later gets a value, dictionary growth across seals, short rows,
// empty and one-row partitions.
func TestTableSealMatchesColumnarize(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cols := sealColumns(rng)
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		cols = cols[:1+rng.Intn(len(cols))]
		schema := &Schema{}
		for c, col := range cols {
			schema.Cols = append(schema.Cols, Column{Name: fmt.Sprintf("c%d", c), Kind: col.kind})
		}
		parts := 1 + rng.Intn(3)
		tbl := New("seal", schema, parts)
		want := make([][]Row, parts)
		for step, steps := 0, rng.Intn(30); step < steps; step++ {
			p := rng.Intn(parts)
			if rng.Intn(3) == 0 {
				checkPartition(t, tbl, p, want[p])
				continue
			}
			for k := rng.Intn(90); k > 0; k-- { // 0..89 rows: empty batches, and batches across bitmap words
				row := make(Row, len(cols))
				for c, col := range cols {
					row[c] = col.gen(rng, len(want[p]))
				}
				if rng.Intn(40) == 0 {
					row = row[:rng.Intn(len(row))]
				}
				tbl.Append(p, row)
				want[p] = append(want[p], row)
			}
			checkSize(t, tbl, want)
		}
		for p := range want {
			checkPartition(t, tbl, p, want[p])
		}
		checkSize(t, tbl, want)
	}
}

// A held snapshot reads the same after the partition grew and was
// sealed ten more times, through every change of representation the
// sealer can make beside it.
func TestTableSnapshotStable(t *testing.T) {
	const width = 6
	schema := &Schema{Cols: make([]Column, width)}
	for c, k := range colKinds {
		schema.Cols[c].Kind = k
	}
	tbl := New("held", schema, 1)
	// colRows(n): int and string columns with NULLs, float, bool, an
	// all-NULL column and a mostly-NULL one. 70 lanes end inside a
	// bitmap word.
	var want []Row
	for _, r := range colRows(71)[:70] {
		tbl.Append(0, r)
		want = append(want, r)
	}
	held := tbl.Columnar(0)
	lens := make([]int, width)
	lanes := make([][]Value, width)
	for c := range held.Cols {
		lens[c] = held.Cols[c].N
		for i := 0; i < held.NumRows; i++ {
			lanes[c] = append(lanes[c], held.Cols[c].Value(i))
		}
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 37; i++ {
			r := Row{NewInt(int64(i)), Null, NewString(fmt.Sprintf("new%d-%d", round, i)), NewBool(true), Null, NewInt(1)}
			switch {
			case round >= 3 && i == 0:
				r[4] = NewInt(7) // the all-NULL column gets its first value
			case round >= 6:
				r[3] = Null // the NULL-free bool column grows a bitmap
			}
			tbl.Append(0, r)
			want = append(want, r)
		}
		checkPartition(t, tbl, 0, want)
	}
	if held.NumRows != 70 {
		t.Fatalf("held NumRows=%d", held.NumRows)
	}
	for c := range held.Cols {
		if got := held.Cols[c].N; got != lens[c] {
			t.Fatalf("column %d: held Len went %d -> %d", c, lens[c], got)
		}
		for i, v := range lanes[c] {
			if got := held.Cols[c].Value(i); got != v {
				t.Fatalf("column %d lane %d: held snapshot went %v -> %v", c, i, v, got)
			}
		}
	}
	if !reflect.DeepEqual(held, Columnarize(want[:70], width)) {
		t.Fatal("held snapshot no longer equals Columnarize over its rows")
	}
}

// Appenders, sealers and size readers together (run with -race):
// NumRows, ByteSize and AllRows are served under the table's lock, never
// go backwards, and end at the row-wise sums.
func TestTableSizeConcurrentAppend(t *testing.T) {
	const appenders, perAppender, parts = 3, 2000, 4
	sc := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "s", Kind: KindString})
	tbl := New("size", sc, parts)
	row := func(i int) Row {
		if i%9 == 0 {
			return Row{NewInt(int64(i)), Null}
		}
		return Row{NewInt(int64(i)), NewString(fmt.Sprintf("v%d", i%40))}
	}
	var wantBytes int64
	for i := 0; i < appenders*perAppender; i++ {
		wantBytes += int64(row(i).ByteSize())
	}

	var writers, others sync.WaitGroup
	done := make(chan struct{})
	for a := 0; a < appenders; a++ {
		writers.Add(1)
		go func(a int) {
			defer writers.Done()
			for i := a * perAppender; i < (a+1)*perAppender; i++ {
				tbl.Append(i, row(i))
			}
		}(a)
	}
	running := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	for g := 0; g < 2; g++ {
		others.Add(2)
		go func() { // sealer
			defer others.Done()
			for running() {
				for p := 0; p < parts; p++ {
					if cp := tbl.Columnar(p); cp.Cols[0].N != cp.NumRows || cp.Cols[1].N != cp.NumRows {
						t.Errorf("partition %d: ragged snapshot", p)
						return
					}
				}
			}
		}()
		go func() { // size reader
			defer others.Done()
			rows, bytes := 0, int64(0)
			for running() {
				n, b := tbl.NumRows(), tbl.ByteSize()
				if n < rows || b < bytes {
					t.Errorf("size went backwards: rows %d -> %d, bytes %d -> %d", rows, n, bytes, b)
					return
				}
				rows, bytes = n, b
				if all := len(tbl.AllRows()); all < rows {
					t.Errorf("AllRows returns %d rows after NumRows said %d", all, rows)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	others.Wait()

	if n, b := tbl.NumRows(), tbl.ByteSize(); n != appenders*perAppender || b != wantBytes {
		t.Fatalf("NumRows=%d ByteSize=%d, want %d and %d", n, b, appenders*perAppender, wantBytes)
	}
	all := tbl.AllRows()
	if len(all) != appenders*perAppender || rowsBytes(all) != wantBytes {
		t.Fatalf("AllRows: %d rows, %d bytes, want %d and %d", len(all), rowsBytes(all), appenders*perAppender, wantBytes)
	}
	tbl.EnsureColumnar()
	if n, b := tbl.NumRows(), tbl.ByteSize(); n != appenders*perAppender || b != wantBytes {
		t.Fatalf("after the last seal: NumRows=%d ByteSize=%d, want %d and %d", n, b, appenders*perAppender, wantBytes)
	}
}

// TestTableVectorAcrossSeals follows one column through its
// representations across seals — all NULL, then typed with NULLs, then
// typed with no NULLs arriving — and holds each published snapshot to
// Columnarize over the same rows, lane counts included, and every slice
// of it, at offsets inside and across bitmap words and nested, to the
// whole column's lanes.
func TestTableVectorAcrossSeals(t *testing.T) {
	tbl := New("phases", NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "f", Kind: KindFloat}), 1)
	var want []Row
	add := func(n int, col func(i int) Value) *ColPartition {
		for i := 0; i < n; i++ {
			r := Row{col(len(want)), NewFloat(float64(len(want)) / 4)}
			tbl.Append(0, r)
			want = append(want, r)
		}
		return tbl.Columnar(0)
	}
	phases := []struct {
		kind VecKind
		cp   *ColPartition
	}{
		{VKNull, add(70, func(int) Value { return Null })},
		{VKInt, add(90, func(i int) Value {
			if i%11 == 0 {
				return Null
			}
			return NewInt(int64(i))
		})},
		{VKInt, add(40, func(i int) Value { return NewInt(int64(i % 3)) })},
	}
	for _, ph := range phases {
		cp := ph.cp
		ref := Columnarize(want[:cp.NumRows], 2)
		if !reflect.DeepEqual(cp, ref) {
			t.Fatalf("%d rows: snapshot differs from Columnarize\n got %+v\nwant %+v", cp.NumRows, cp.Cols[0], ref.Cols[0])
		}
		if v := cp.Cols[0]; v.K != ph.kind || v.N != cp.NumRows || cp.Cols[1].N != cp.NumRows {
			t.Fatalf("%d rows: column is kind %v with %d lanes, want kind %v, %d lanes", cp.NumRows, v.K, v.N, ph.kind, cp.NumRows)
		}
		if ph.kind == VKNull && (cp.Cols[0].Ints != nil || cp.Cols[0].Nulls != nil) {
			t.Fatalf("all-NULL column carries a payload: %+v", cp.Cols[0])
		}
		for c := range cp.Cols {
			whole := &cp.Cols[c]
			for _, win := range [][2]int{{1, 62}, {63, 2}, {64, 5}, {65, cp.NumRows - 65}, {cp.NumRows - 1, 1}} {
				s := whole.Slice(win[0], win[1])
				inner := s.Slice(1, s.N-1)
				for i := 0; i < s.N; i++ {
					j := win[0] + i
					if s.IsNull(i) != whole.IsNull(j) || !reflect.DeepEqual(s.Value(i), whole.Value(j)) {
						t.Fatalf("%d rows column %d slice %v lane %d reads %v, the column %v", cp.NumRows, c, win, i, s.Value(i), whole.Value(j))
					}
					if i > 0 && (inner.IsNull(i-1) != whole.IsNull(j) || !reflect.DeepEqual(inner.Value(i-1), whole.Value(j))) {
						t.Fatalf("%d rows column %d nested slice of %v lane %d reads %v, the column %v", cp.NumRows, c, win, i-1, inner.Value(i-1), whole.Value(j))
					}
				}
			}
		}
	}
}
