package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
)

// fanout is an executor that only fans out: its parallel runs every
// operator's partition tasks.
func fanout(ctx context.Context) *executor { return &executor{ctx: ctx} }

func TestParallelPartsZeroPartitions(t *testing.T) {
	called := false
	if err := fanout(context.Background()).parallel(0, func(i int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for zero partitions")
	}
}

func TestParallelPartsOnePartitionRunsInline(t *testing.T) {
	var got []int
	if err := fanout(context.Background()).parallel(1, func(i int) error {
		// A single partition runs on the caller's goroutine, so an
		// unsynchronized append here must be safe (the race detector
		// verifies this).
		got = append(got, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("expected exactly index 0, got %v", got)
	}
}

func TestParallelPartsVisitsEveryIndexOnce(t *testing.T) {
	const n = 100
	var visits [n]int64
	if err := fanout(context.Background()).parallel(n, func(i int) error {
		atomic.AddInt64(&visits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestParallelPartsPropagatesFirstError(t *testing.T) {
	sentinel := errors.New("partition failed")
	err := fanout(context.Background()).parallel(16, func(i int) error {
		if i == 7 {
			return fmt.Errorf("part %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("expected wrapped sentinel error, got %v", err)
	}
}

func TestParallelPartsReportsOneOfManyErrors(t *testing.T) {
	err := fanout(context.Background()).parallel(32, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("part %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("unexpected error text %q", err)
	}
}

// Partition workers write per-operator counters through index-disjoint
// slots; this hammers those writes from the worker pool so the race
// detector can prove they never alias.
func TestParallelPartsCountersRaceFree(t *testing.T) {
	const parts = 64
	op := &metrics.Op{}
	op.Grow(parts)
	for round := 0; round < 50; round++ {
		if err := fanout(context.Background()).parallel(parts, func(i int) error {
			sl := op.Slot(i)
			for j := 0; j < 1000; j++ {
				sl.RowsIn++
				sl.RowsOut += 2
				sl.BytesIn += 8
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tot := op.Total()
	wantIn := int64(parts * 50 * 1000)
	if tot.RowsIn != wantIn || tot.RowsOut != 2*wantIn {
		t.Fatalf("merged counters wrong: in=%d out=%d want in=%d out=%d",
			tot.RowsIn, tot.RowsOut, wantIn, 2*wantIn)
	}
}

// An instrumented end-to-end run: sampler + aggregation over several
// partitions, checked for counter consistency (and raced under -race).
func TestRunWithOptionsCountsAndAnalyze(t *testing.T) {
	rows := make([][2]float64, 0, 4000)
	for i := 0; i < 4000; i++ {
		rows = append(rows, [2]float64{float64(i % 7), float64(i)})
	}
	tbl, _ := buildT("t", 8, rows)
	scan := scanOf(tbl)
	kCol, vCol := scan.OutCols[0], scan.OutCols[1]
	samp := &PSample{
		In:   scan,
		Def:  lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.25},
		Seed: 7,
	}
	exch := &PExchange{In: samp, Keys: []lplan.ColumnID{kCol.ID}, Parts: 4}
	nextID++
	agg := &PHashAgg{
		In:        exch,
		GroupCols: []lplan.ColumnID{kCol.ID},
		GroupInfo: []lplan.ColumnInfo{kCol},
		Aggs: []lplan.AggSpec{{Kind: lplan.AggSum, Arg: vCol.ID,
			Out: lplan.ColumnInfo{ID: nextID, Name: "s", Kind: vCol.Kind}}},
	}

	res, err := RunWithOptions(context.Background(), agg, cluster.DefaultConfig(), map[PNode]float64{scan: 4000}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("no stats collected")
	}

	scanOp := res.Stats.Op(scan)
	if scanOp == nil {
		t.Fatal("scan not registered")
	}
	if got := scanOp.Total().RowsOut; got != 4000 {
		t.Fatalf("scan counted %d rows, want 4000", got)
	}
	if scanOp.EstRows != 4000 {
		t.Fatalf("scan estimate %v, want 4000", scanOp.EstRows)
	}

	sampOp := res.Stats.Op(samp)
	if sampOp == nil {
		t.Fatal("sampler not registered")
	}
	st := sampOp.Total()
	if st.SamplerSeen != 4000 {
		t.Fatalf("sampler saw %d rows, want 4000", st.SamplerSeen)
	}
	if st.SamplerPassed <= 0 || st.SamplerPassed >= 4000 {
		t.Fatalf("sampler passed %d of 4000; expected a strict subset", st.SamplerPassed)
	}
	rate := float64(st.SamplerPassed) / float64(st.SamplerSeen)
	if rate < 0.15 || rate > 0.35 {
		t.Fatalf("pass rate %.3f far from p=0.25", rate)
	}

	aggOp := res.Stats.Op(agg)
	if aggOp == nil || aggOp.Total().RowsOut != 7 {
		t.Fatalf("agg output miscounted: %+v", aggOp)
	}

	if res.AnalyzedPlan == "" {
		t.Fatal("no analyzed plan")
	}
	if !strings.Contains(res.AnalyzedPlan, "est=4000") ||
		!strings.Contains(res.AnalyzedPlan, "actual=4000") {
		t.Fatalf("analyzed plan missing scan annotations:\n%s", res.AnalyzedPlan)
	}
	if !strings.Contains(res.AnalyzedPlan, "sampler UNIFORM") {
		t.Fatalf("analyzed plan missing sampler annotation:\n%s", res.AnalyzedPlan)
	}
}

// Run (the uninstrumented entry point) must still collect stats, with
// unknown estimates marked.
func TestRunCollectsStatsWithoutEstimates(t *testing.T) {
	tbl, _ := buildT("t", 2, [][2]float64{{1, 1}, {2, 2}, {3, 3}})
	scan := scanOf(tbl)
	res := run(t, scan)
	op := res.Stats.Op(scan)
	if op == nil {
		t.Fatal("scan not registered")
	}
	if op.EstRows != -1 {
		t.Fatalf("expected unknown estimate (-1), got %v", op.EstRows)
	}
	if op.Total().RowsOut != 3 {
		t.Fatalf("counted %d rows, want 3", op.Total().RowsOut)
	}
}
