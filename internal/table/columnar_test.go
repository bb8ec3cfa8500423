package table

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// colRows builds a row set exercising every columnar representation:
// typed int/float/string/bool columns with and without NULLs, an
// all-NULL column, a mostly-NULL int column, and a short row. colKinds
// is its schema.
func colRows(n int) []Row {
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		iv := NewInt(int64(i - n/2))
		fv := NewFloat(float64(i) / 7)
		sv := NewString(fmt.Sprintf("s%03d", i%200))
		bv := NewBool(i%2 == 0)
		var mv Value
		if i%3 == 1 {
			mv = NewInt(int64(i))
		}
		if i%5 == 0 {
			iv = Value{}
		}
		if i%7 == 0 {
			sv = Value{}
		}
		row := Row{iv, fv, sv, bv, Value{}, mv}
		if i == n-1 {
			row = row[:3] // short row: trailing columns read as NULL
		}
		rows = append(rows, row)
	}
	return rows
}

var colKinds = []Kind{KindInt, KindFloat, KindString, KindBool, KindInt, KindInt}

// Columnarize must reconstruct every lane bit-identically to the rows,
// including NULLs, the all-NULL column and padded short rows.
func TestColumnarizeRoundTrip(t *testing.T) {
	const width = 6
	rows := colRows(300)
	cp := Columnarize(rows, width)
	if cp.NumRows != len(rows) {
		t.Fatalf("NumRows=%d, want %d", cp.NumRows, len(rows))
	}
	for c := 0; c < width; c++ {
		cv := &cp.Cols[c]
		if cv.N != len(rows) {
			t.Fatalf("col %d Len=%d, want %d", c, cv.N, len(rows))
		}
		for i, r := range rows {
			want := Null
			if c < len(r) {
				want = r[c]
			}
			got := cv.Value(i)
			if want.IsNull() != got.IsNull() || want.IsNull() != cv.IsNull(i) ||
				(!want.IsNull() && CompareRows(Row{want}, Row{got}) != 0) {
				t.Fatalf("col %d lane %d: got %v, want %v", c, i, got, want)
			}
		}
	}
	// Representation spot checks: the typed columns must actually be
	// typed, the empty one VKNull.
	if cp.Cols[0].K != VKInt || cp.Cols[0].Nulls == nil {
		t.Fatalf("int column repr: %+v", cp.Cols[0].K)
	}
	if cp.Cols[1].K != VKFloat || cp.Cols[1].Nulls != nil {
		t.Fatal("float column should have no null bitmap")
	}
	distinct := map[string]bool{}
	for _, r := range rows {
		if len(r) > 2 && !r[2].IsNull() {
			distinct[r[2].Str()] = true
		}
	}
	if cp.Cols[2].K != VKStr || len(cp.Cols[2].Dict) != len(distinct) {
		t.Fatalf("string dict size %d, want %d", len(cp.Cols[2].Dict), len(distinct))
	}
	if cp.Cols[4].K != VKNull {
		t.Fatal("all-null column should use VKNull repr")
	}
	if cp.Cols[5].K != VKInt || cp.Cols[5].Nulls == nil {
		t.Fatal("mostly-NULL int column repr")
	}
}

// A column whose non-NULL values mix kinds is no column: Columnarize
// panics on it (Table.Append admits no such row).
func TestColumnarizeRejectsMixedKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Columnarize built a column of an int and a string")
		}
	}()
	Columnarize([]Row{{NewInt(1)}, {Null}, {NewString("x")}}, 1)
}

func TestColumnarizeEmptyPartition(t *testing.T) {
	cp := Columnarize(nil, 3)
	if cp.NumRows != 0 {
		t.Fatalf("NumRows=%d", cp.NumRows)
	}
	for c := range cp.Cols {
		if cp.Cols[c].N != 0 {
			t.Fatalf("col %d Len=%d", c, cp.Cols[c].N)
		}
	}
}

// Table.Columnar must return the published snapshot until an Append,
// and a new one, holding the new row, after it.
func TestTableColumnarCacheInvalidation(t *testing.T) {
	sc := NewSchema(Column{Name: "a", Kind: KindInt})
	tbl := New("cc", sc, 2)
	tbl.Append(0, Row{NewInt(1)})
	cp1 := tbl.Columnar(0)
	if tbl.Columnar(0) != cp1 {
		t.Fatal("snapshot not kept between reads")
	}
	tbl.Append(0, Row{NewInt(2)})
	cp2 := tbl.Columnar(0)
	if cp2 == cp1 {
		t.Fatal("Append did not lead to a new snapshot")
	}
	if cp2.NumRows != 2 || cp2.Cols[0].Value(1).Int() != 2 {
		t.Fatalf("sealed partition wrong: %+v", cp2)
	}
	if cp1.NumRows != 1 || cp1.Cols[0].N != 1 {
		t.Fatalf("held snapshot changed: %+v", cp1)
	}
	// The untouched partition is independent.
	if tbl.Columnar(1).NumRows != 0 {
		t.Fatal("partition 1 should be empty")
	}
}

// Concurrent readers racing the first seal must all get the one
// snapshot, holding every appended row, and the rows must be gone from
// the tail afterwards (run with -race).
func TestTableColumnarConcurrent(t *testing.T) {
	sc := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "s", Kind: KindString})
	tbl := New("ccr", sc, 8)
	for i := 0; i < 4000; i++ {
		tbl.Append(i, Row{NewInt(int64(i)), NewString(fmt.Sprintf("v%d", i%50))})
	}
	want := make([][]Row, 8)
	for p := range want {
		want[p] = tbl.Rows(p) // never read: the appended rows themselves
	}
	var wg sync.WaitGroup
	snaps := make([][8]*ColPartition, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := 0; p < 8; p++ {
				cp := tbl.Columnar(p)
				snaps[g][p] = cp
				if cp.NumRows != len(want[p]) {
					t.Errorf("partition %d: NumRows=%d, want %d", p, cp.NumRows, len(want[p]))
					return
				}
				for i := 0; i < cp.NumRows; i += 97 {
					if !cp.Cols[0].Value(i).Equal(want[p][i][0]) {
						t.Errorf("partition %d lane %d mismatch", p, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for p := 0; p < 8; p++ {
		for g := range snaps {
			if snaps[g][p] != snaps[0][p] {
				t.Fatalf("partition %d sealed more than once", p)
			}
		}
		if len(tbl.Partitions[p]) != 0 {
			t.Fatalf("partition %d keeps %d rows after its seal", p, len(tbl.Partitions[p]))
		}
		if !reflect.DeepEqual(tbl.Rows(p), want[p]) {
			t.Fatalf("partition %d: Rows differ from the appended rows", p)
		}
	}
}

// Concurrent first touches of one partition seal it once (every caller
// gets the same published value), and first touches of different
// partitions do not serialize: partition 0's seal waits
// inside its build for partition 1's to finish, which a table-wide
// build lock would deadlock.
func TestTableColumnarFirstTouchParallel(t *testing.T) {
	forms := []struct {
		name  string
		touch func(*Table, int) (form any, numRows int)
	}{
		{"columnar", func(tbl *Table, i int) (any, int) { cp := tbl.Columnar(i); return cp, cp.NumRows }},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			sc := NewSchema(Column{Name: "a", Kind: KindInt})
			tbl := New("ftp", sc, 2)
			for i := 0; i < 200; i++ {
				tbl.Append(i, Row{NewInt(int64(i))})
			}
			var builds [2]atomic.Int32
			built1 := make(chan struct{})
			partBuildHook = func(part int) {
				builds[part].Add(1)
				if part == 0 {
					<-built1
				}
			}
			defer func() { partBuildHook = nil }()

			var wg sync.WaitGroup
			got := make([]any, 8)
			for g := range got {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					got[g], _ = f.touch(tbl, 0)
				}(g)
			}
			p1, _ := f.touch(tbl, 1) // must complete while partition 0 is mid-build
			close(built1)
			wg.Wait()

			for g, v := range got {
				if v != got[0] {
					t.Fatalf("caller %d got a different form of partition 0: built more than once", g)
				}
			}
			if b0, b1 := builds[0].Load(), builds[1].Load(); b0 != 1 || b1 != 1 {
				t.Fatalf("builds = %d/%d, want 1/1", b0, b1)
			}
			again0, n0 := f.touch(tbl, 0)
			again1, n1 := f.touch(tbl, 1)
			if again0 != got[0] || again1 != p1 {
				t.Fatal("built forms were not published")
			}
			if n0 != 100 || n1 != 100 {
				t.Fatalf("NumRows = %d/%d, want 100/100", n0, n1)
			}
		})
	}
}

// An Append that lands while a partition is being sealed stays in the
// tail: the caller gets the snapshot of the rows the seal read, and the
// next touch seals the new row.
func TestTableAppendDuringBuildNotPublished(t *testing.T) {
	sc := NewSchema(Column{Name: "a", Kind: KindInt})
	tbl := New("adb", sc, 1)
	for i := 0; i < 10; i++ {
		tbl.Append(0, Row{NewInt(int64(i))})
	}
	partBuildHook = func(int) {
		partBuildHook = nil
		tbl.Append(0, Row{NewInt(10)})
	}
	defer func() { partBuildHook = nil }()
	if cp := tbl.Columnar(0); cp.NumRows != 10 {
		t.Fatalf("mid-append seal holds %d rows, want the 10 it read", cp.NumRows)
	}
	if cp := tbl.Columnar(0); cp.NumRows != 11 {
		t.Fatalf("next touch holds %d rows, want 11: the appended row was lost", cp.NumRows)
	}
}

// Appends racing scans (run with -race): a reader must never see a
// snapshot whose row count disagrees with what it was built from — any
// snapshot it gets is internally consistent even while writes continue.
func TestTableAppendVsScanConcurrent(t *testing.T) {
	sc := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "s", Kind: KindString})
	tbl := New("avs", sc, 4)
	for i := 0; i < 400; i++ {
		tbl.Append(i, Row{NewInt(int64(i)), NewString(fmt.Sprintf("v%d", i%10))})
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 400; i < 4400; i++ {
			tbl.Append(i, Row{NewInt(int64(i)), NewString(fmt.Sprintf("v%d", i%10))})
		}
		close(done)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // readers scan the columnar form
			defer wg.Done()
			for {
				for p := 0; p < 4; p++ {
					cp := tbl.Columnar(p)
					var lanes int
					for c := range cp.Cols {
						if l := cp.Cols[c].N; c == 0 {
							lanes = l
						} else if l != lanes {
							t.Errorf("partition %d: ragged columnar form (%d vs %d lanes)", p, l, lanes)
							return
						}
					}
					if cp.NumRows != lanes {
						t.Errorf("partition %d: NumRows=%d but %d lanes", p, cp.NumRows, lanes)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
	// After the writer drains, fresh scans must see every row.
	total := 0
	for p := 0; p < 4; p++ {
		total += tbl.Columnar(p).NumRows
	}
	if total != 4400 {
		t.Fatalf("post-drain rows=%d, want 4400", total)
	}
}
