package quickr_test

import (
	"math"
	"strings"
	"testing"

	"quickr"
	"quickr/internal/table"
)

// followRows generates rows [from, to) of the table TestStatsFollowInsert
// loads: groups 0..6, and from row 200 on group 42 on 30% of the rows.
func followRows(from, to int) [][]any {
	rows := make([][]any, 0, to-from)
	for i := from; i < to; i++ {
		g := i % 7
		if i >= 200 && i%10 >= 7 {
			g = 42
		}
		rows = append(rows, []any{g, float64(i % 1000)})
	}
	return rows
}

// Statistics follow the data. A table planned at 200 rows has too little
// support per group for any sampler; after 400 000 more rows the same
// engine must plan it as a fresh engine loaded in one go does, with the
// estimator, the heavy hitters and EXPLAIN ANALYZE reading the new rows.
// On a name-keyed, never-refreshed cache the table stays at 200 rows for
// the life of the engine.
func TestStatsFollowInsert(t *testing.T) {
	const q = `SELECT g, SUM(v) FROM t GROUP BY g`
	cols := []quickr.Column{{Name: "g", Type: quickr.Int}, {Name: "v", Type: quickr.Float}}
	load := func(eng *quickr.Engine, from, to int) {
		t.Helper()
		if err := eng.Insert("t", followRows(from, to)); err != nil {
			t.Fatal(err)
		}
	}
	plan := func(eng *quickr.Engine) *quickr.PlanInfo {
		t.Helper()
		info, err := eng.Plan(q, true)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}

	eng := quickr.New()
	if err := eng.CreateTable("t", cols, 4); err != nil {
		t.Fatal(err)
	}
	load(eng, 0, 200)
	if info := plan(eng); !info.Unapproximable || info.Sampled {
		t.Fatalf("200 rows: unapproximable=%v sampled=%v, want an unapproximable plan", info.Unapproximable, info.Sampled)
	}
	load(eng, 200, 400200)
	got := plan(eng)
	if !got.Sampled || got.RootSampler != "UNIFORM" {
		t.Fatalf("400 200 rows: sampled=%v root=%s notes=%v, want a UNIFORM sample", got.Sampled, got.RootSampler, got.Notes)
	}

	fresh := quickr.New()
	if err := fresh.CreateTable("t", cols, 4); err != nil {
		t.Fatal(err)
	}
	load(fresh, 0, 400200)
	if want := plan(fresh); got.RootSampler != want.RootSampler || got.EffectiveP != want.EffectiveP {
		t.Errorf("after insert %s p=%v, a fresh engine over the same rows plans %s p=%v",
			got.RootSampler, got.EffectiveP, want.RootSampler, want.EffectiveP)
	}

	ts, err := eng.Catalog().TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.RowCount != 400200 {
		t.Errorf("RowCount = %d, want 400200", ts.RowCount)
	}
	// Lossy counting at ε=1e-4 reports a frequency within ε·N of truth.
	const heavy = 400000 * 3 / 10
	if f := ts.HeavyFreq("g", table.NewInt(42)); math.Abs(float64(f-heavy)) > 1e-4*400200 {
		t.Errorf("HeavyFreq(g=42) = %d, want %d within ε·N", f, heavy)
	}
	res, err := eng.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.AnalyzedPlan, "est=4.002e+05 rows") {
		t.Errorf("EXPLAIN ANALYZE does not estimate 400 200 scanned rows:\n%s", res.AnalyzedPlan)
	}
}

// A table re-created under an old name is a different table: statistics
// are keyed by the table, not by what it is called.
func TestStatsFollowReplacedTable(t *testing.T) {
	eng := quickr.New()
	for n := 1; n <= 2; n++ {
		cols := []quickr.Column{{Name: "a", Type: quickr.Int}, {Name: "b", Type: quickr.Int}}[:n]
		if err := eng.CreateTable("x", cols, 2); err != nil {
			t.Fatal(err)
		}
		ts, err := eng.Catalog().TableStats("x")
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.Columns) != n || ts.RowCount != 0 {
			t.Errorf("table x created with %d columns: statistics have %d columns, %d rows", n, len(ts.Columns), ts.RowCount)
		}
	}
}
