package quickr_test

import (
	"context"
	"math"
	"testing"
	"time"

	"quickr"
	"quickr/internal/core"
)

// degenerateEngine builds an engine over small tables whose statistics
// degenerate: e is empty; t has 3000 rows, one per g, an all-NULL column
// n and a zero-variance column z, enough rows that approximate plans and
// error contracts sample it; d is an empty dimension. Every measure is
// non-negative, so every estimate must be too.
func degenerateEngine(tb testing.TB) *quickr.Engine {
	tb.Helper()
	eng := quickr.New()
	for _, c := range []struct {
		name string
		cols []quickr.Column
	}{
		{"e", []quickr.Column{{Name: "g", Type: quickr.Int}, {Name: "v", Type: quickr.Float}}},
		{"t", []quickr.Column{{Name: "g", Type: quickr.Int}, {Name: "h", Type: quickr.Int},
			{Name: "v", Type: quickr.Float}, {Name: "z", Type: quickr.Float}, {Name: "n", Type: quickr.Float}}},
		{"d", []quickr.Column{{Name: "k", Type: quickr.Int}, {Name: "name", Type: quickr.String}}},
	} {
		if err := eng.CreateTable(c.name, c.cols, 3); err != nil {
			tb.Fatal(err)
		}
	}
	var rows [][]any
	for i := 0; i < 3000; i++ {
		rows = append(rows, []any{i, i % 3, float64(i%9 + 1), 7.0, nil})
	}
	if err := eng.Insert("t", rows); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// degenerateQueries are the battery's statements: an empty table, an
// input a filter empties, one-row groups, all-NULL aggregate arguments,
// a zero-variance column and joins against an empty dimension.
var degenerateQueries = []string{
	"SELECT COUNT(*), SUM(v), AVG(v) FROM e",
	"SELECT g, COUNT(*), SUM(v) FROM e GROUP BY g",
	"SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE v > 1000",
	"SELECT h, COUNT(*), SUM(v) FROM t WHERE v > 1000 GROUP BY h",
	"SELECT g, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY g",
	"SELECT SUM(n), AVG(n), COUNT(n) FROM t",
	"SELECT h, SUM(n), AVG(n), COUNT(n) FROM t GROUP BY h",
	"SELECT h, COUNT(*), SUM(z), AVG(z) FROM t GROUP BY h",
	"SELECT COUNT(*), SUM(v) FROM t JOIN d ON g = k",
	"SELECT name, COUNT(*), SUM(v) FROM t JOIN d ON g = k GROUP BY name",
}

// TestDegenerateStatistics runs every battery statement exactly,
// approximately and under an error contract, with the paper's options
// and with options that let the optimizer sample these tiny tables:
// every estimate, standard error and CI95 must be finite and ≥ 0, every
// numeric cell finite, and every contract must finish and report itself
// satisfied.
func TestDegenerateStatistics(t *testing.T) {
	loose := core.DefaultOptions()
	loose.K, loose.KL, loose.MaxP = 1, 1, 0.5
	for _, o := range []struct {
		name string
		opts core.Options
	}{{"default", core.DefaultOptions()}, {"sampling", loose}} {
		eng := degenerateEngine(t)
		eng.SetOptions(o.opts)
		for _, q := range degenerateQueries {
			for _, mode := range []string{"exact", "approx", "contract"} {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				var res *quickr.Result
				var err error
				switch mode {
				case "exact":
					res, err = eng.ExecContext(ctx, q)
				case "approx":
					res, err = eng.ExecApproxContext(ctx, q)
				default:
					res, err = eng.ExecApproxContext(ctx, q+" ERROR WITHIN 10% CONFIDENCE 95%")
				}
				cancel()
				label := o.name + "/" + mode + ": " + q
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if mode == "contract" && (res.Contract == nil || !res.Contract.Satisfied) {
					t.Fatalf("%s: contract %+v", label, res.Contract)
				}
				checkDegenerate(t, label, res)
			}
		}
	}
}

// checkDegenerate fails the test on a NaN, infinite or negative
// estimate, standard error or CI95, or a non-finite result cell.
func checkDegenerate(t *testing.T, label string, res *quickr.Result) {
	t.Helper()
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) || x < 0 }
	for gi, g := range res.Estimates {
		for i, v := range g.Values {
			if f, ok := v.(float64); ok && bad(f) {
				t.Errorf("%s: group %d estimate %d = %v", label, gi, i, f)
			}
			if n, ok := v.(int64); ok && n < 0 {
				t.Errorf("%s: group %d estimate %d = %d", label, gi, i, n)
			}
		}
		for i := range g.StdErr {
			if bad(g.StdErr[i]) || bad(g.CI95[i]) {
				t.Errorf("%s: group %d aggregate %d: stderr %v, CI95 %v", label, gi, i, g.StdErr[i], g.CI95[i])
			}
		}
	}
	for ri, row := range res.Rows {
		for c, v := range row {
			if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
				t.Errorf("%s: row %d column %d = %v", label, ri, c, f)
			}
		}
	}
}
