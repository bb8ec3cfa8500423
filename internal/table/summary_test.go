package table

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// sumRows builds n rows of (int key with skew, float measure, string
// group with few distincts, occasional NULL measure).
func sumRows(n int) []Row {
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		g := NewString(fmt.Sprintf("g%d", i%7))
		m := NewFloat(float64(i % 100))
		if i%11 == 0 {
			m = Value{}
		}
		rows = append(rows, Row{NewInt(int64(i)), m, g})
	}
	return rows
}

func TestBuildSummaryMoments(t *testing.T) {
	rows := sumRows(1000)
	ps := BuildSummary(Columnarize(rows, 3))
	if ps.NumRows != 1000 {
		t.Fatalf("NumRows=%d", ps.NumRows)
	}
	m := &ps.Cols[1]
	var wantSum float64
	var wantNonNull int64
	wantMin, wantMax := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if r[1].IsNull() {
			continue
		}
		f := r[1].Float()
		wantSum += f
		wantNonNull++
		wantMin = math.Min(wantMin, f)
		wantMax = math.Max(wantMax, f)
	}
	if m.NonNull != wantNonNull || !m.Numeric {
		t.Fatalf("measure NonNull=%d Numeric=%v, want %d true", m.NonNull, m.Numeric, wantNonNull)
	}
	if math.Abs(m.Sum-wantSum) > 1e-9 || m.Min != wantMin || m.Max != wantMax {
		t.Fatalf("moments sum=%v min=%v max=%v, want %v %v %v", m.Sum, m.Min, m.Max, wantSum, wantMin, wantMax)
	}
	g := &ps.Cols[2]
	if g.Numeric {
		t.Fatal("string column reported numeric")
	}
	if !g.Complete || g.Distinct != 7 || len(g.Heavy) != 7 {
		t.Fatalf("group col: Complete=%v Distinct=%v Heavy=%d, want complete 7/7", g.Complete, g.Distinct, len(g.Heavy))
	}
	// Heavy frequencies over a complete low-cardinality column are exact.
	var hfreq int64
	for _, h := range g.Heavy {
		hfreq += h.Freq
	}
	if hfreq != 1000 {
		t.Fatalf("heavy freqs sum to %d, want 1000", hfreq)
	}
	// The int key is unique per row: too many distincts for exact mode.
	k := &ps.Cols[0]
	if k.Complete {
		t.Fatal("1000-distinct column should not be Complete")
	}
	if rel := math.Abs(k.Distinct-1000) / 1000; rel > 0.25 {
		t.Fatalf("key Distinct=%v too far from 1000", k.Distinct)
	}
}

// refBuildSummary is BuildSummary as it read boxed rows: row by row,
// every column of a row before the next row, Value.Key rendered per
// lane. BuildSummary over the columns must equal it field for field,
// sketches included.
func refBuildSummary(rows []Row, width int) *PartitionSummary {
	ps := &PartitionSummary{NumRows: len(rows), Cols: make([]ColumnSummary, width)}
	for c := 0; c < width; c++ {
		ps.Cols[c] = newColumnSummary()
	}
	for _, r := range rows {
		for c := 0; c < width; c++ {
			if v := colAt(r, c); !v.IsNull() {
				ps.Cols[c].observe(v, v.Key())
			}
		}
	}
	for c := 0; c < width; c++ {
		ps.Cols[c].finish()
	}
	return ps
}

// Table.Summary equals the row-wise reference over every row appended,
// freshly loaded and after insert-then-read rounds, on every column
// representation (typed with and without NULLs, dictionary, all-NULL,
// mixed-kind, a padded short row) and in both sketch regimes: columns
// small enough to stay exact and Complete, and columns past the KMV's
// exact limit and the lossy counter's first prune.
func TestTableSummaryMatchesRowReference(t *testing.T) {
	const width, parts = 7, 2
	tbl := New("sumref", &Schema{Cols: make([]Column, width)}, parts)
	want := make([][]Row, parts)
	add := func(from, to int) {
		for i, r := range colRows(to)[from:] {
			i += from
			// colRows' six columns plus a high-cardinality string.
			r = append(r.Clone(), NewString(fmt.Sprintf("u%05d", i*7919%100003)))
			tbl.Append(i, r)
			want[i%parts] = append(want[i%parts], r)
		}
	}
	check := func(when string) {
		t.Helper()
		for p := range want {
			if got, ref := tbl.Summary(p), refBuildSummary(want[p], width); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: partition %d summary differs from the row-wise reference\n got %+v\nwant %+v", when, p, got, ref)
			}
		}
	}
	add(0, 3000)
	check("freshly loaded")
	for round := 0; round < 3; round++ {
		add(3000+round*211, 3000+(round+1)*211)
		check(fmt.Sprintf("after insert round %d", round+1))
	}
}

func TestBuildSummaryEmpty(t *testing.T) {
	ps := BuildSummary(Columnarize(nil, 2))
	if ps.NumRows != 0 || len(ps.Cols) != 2 {
		t.Fatalf("%+v", ps)
	}
	c := &ps.Cols[0]
	if c.NonNull != 0 || !c.Complete || c.Distinct != 0 || len(c.Heavy) != 0 {
		t.Fatalf("empty column summary: %+v", c)
	}
}

// Summary must cache per partition and be invalidated by Append in the
// same critical section as the columnar cache.
func TestTableSummaryCacheInvalidation(t *testing.T) {
	sc := NewSchema(Column{Name: "a", Kind: KindInt})
	tbl := New("sc", sc, 2)
	tbl.Append(0, Row{NewInt(1)})
	s1 := tbl.Summary(0)
	cp1 := tbl.Columnar(0)
	if tbl.Summary(0) != s1 {
		t.Fatal("summary not cached")
	}
	tbl.Append(0, Row{NewInt(2)})
	s2 := tbl.Summary(0)
	cp2 := tbl.Columnar(0)
	if s2 == s1 || cp2 == cp1 {
		t.Fatal("Append must invalidate both summary and columnar caches")
	}
	if s2.NumRows != 2 || s2.Cols[0].Sum != 3 {
		t.Fatalf("rebuilt summary wrong: %+v", s2)
	}
	if tbl.Summary(1).NumRows != 0 {
		t.Fatal("partition 1 should be empty")
	}
}

func TestTableMergedColumn(t *testing.T) {
	sc := NewSchema(Column{Name: "g", Kind: KindString}, Column{Name: "m", Kind: KindFloat})
	tbl := New("mc", sc, 4)
	for i := 0; i < 800; i++ {
		tbl.Append(i, Row{NewString(fmt.Sprintf("g%d", i%5)), NewFloat(1)})
	}
	g := tbl.MergedColumn(0)
	if !g.Complete || g.Distinct != 5 || len(g.Heavy) != 5 {
		t.Fatalf("merged group col: Complete=%v Distinct=%v Heavy=%d", g.Complete, g.Distinct, len(g.Heavy))
	}
	if g.NonNull != 800 {
		t.Fatalf("merged NonNull=%d", g.NonNull)
	}
	m := tbl.MergedColumn(1)
	if !m.Numeric || m.Sum != 800 || m.Min != 1 || m.Max != 1 {
		t.Fatalf("merged measure: %+v", m)
	}
}

// summaryBuildRows is the input BenchmarkSummaryBuild times and
// TestHotPathAllocCeilings gates.
const summaryBuildRows = 4096

func BenchmarkSummaryBuild(b *testing.B) {
	rows := sumRows(summaryBuildRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := BuildSummary(Columnarize(rows, 3))
		if ps.NumRows != len(rows) {
			b.Fatal("bad summary")
		}
	}
}

// TestHotPathAllocCeilings is internal/exec's test of the same name for
// the one gated hot path that lives here: the partition-summary builder
// must not quietly bloat. The ceiling is 1.1× the 20266 allocations a
// build of 4096 rows made when it was introduced (and makes today, at
// any GOMAXPROCS).
func TestHotPathAllocCeilings(t *testing.T) {
	t.Run("BenchmarkSummaryBuild", func(t *testing.T) {
		const ceiling = 22292
		rows := sumRows(summaryBuildRows)
		got := testing.AllocsPerRun(3, func() {
			if ps := BuildSummary(Columnarize(rows, 3)); ps.NumRows != len(rows) {
				t.Error("bad summary")
			}
		})
		if got > ceiling {
			t.Errorf("%.0f allocs/run, ceiling %d", got, ceiling)
		}
	})
}
