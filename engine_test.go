package quickr

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestEngineErrors(t *testing.T) {
	eng := New()
	if _, err := eng.Exec("SELECT a FROM missing"); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := eng.Exec("NOT SQL"); err == nil {
		t.Error("parse error must surface")
	}
	if err := eng.CreateTable("t", []Column{{Name: "a", Type: ColType(99)}}, 1); err == nil {
		t.Error("bad column type must error")
	}
	if err := eng.Insert("missing", [][]any{{1}}); err == nil {
		t.Error("insert into unknown table must error")
	}
	must(t, eng.CreateTable("t", []Column{{Name: "a", Type: Int}}, 1))
	if err := eng.Insert("t", [][]any{{struct{}{}}}); err == nil {
		t.Error("unsupported Go value must error")
	}
	// A row narrower or wider than the schema would be stored with bytes
	// the scan, which reads it schema-wide, does not see.
	if err := eng.Insert("t", [][]any{{}}); err == nil {
		t.Error("a row with too few values must error")
	}
	if err := eng.Insert("t", [][]any{{1, 2}}); err == nil {
		t.Error("a row with too many values must error")
	}
	// A failed Insert appends nothing, not even the rows before the bad
	// one, and a plan cached before it still reads the same table.
	must(t, eng.Insert("t", [][]any{{1}, {2}}))
	tbl, err := eng.cat.Table("t")
	must(t, err)
	count := func() any {
		t.Helper()
		res, err := eng.Exec("SELECT COUNT(*) FROM t")
		must(t, err)
		return res.Rows[0][0]
	}
	before := count()
	rows, version := tbl.NumRows(), tbl.Version()
	for name, bad := range map[string][][]any{
		"a row of the wrong width": {{3}, {4}, {5, 6}},
		"an unsupported Go value":  {{3}, {4}, {struct{}{}}},
	} {
		if err := eng.Insert("t", bad); err == nil {
			t.Errorf("%s must error", name)
		}
		if n, v := tbl.NumRows(), tbl.Version(); n != rows || v != version {
			t.Errorf("after a failed insert with %s: %d rows at version %d, want %d at %d", name, n, v, rows, version)
		}
		if got := count(); got != before {
			t.Errorf("after a failed insert with %s: COUNT(*) reads %v, want %v", name, got, before)
		}
	}
	// A value of another kind than its column's used to be stored as
	// it came, so SUM skipped it and MAX returned it.
	err = eng.Insert("t", [][]any{{1}, {"x"}, {2.5}})
	var kerr *KindError
	if !errors.As(err, &kerr) || *kerr != (KindError{Row: 1, Column: "a", Want: "BIGINT", Got: "VARCHAR"}) {
		t.Errorf("a string into an Int column: got %v, want a KindError for row 1", err)
	}
	if n, v := tbl.NumRows(), tbl.Version(); n != rows || v != version {
		t.Errorf("after a mistyped insert: %d rows at version %d, want %d at %d", n, v, rows, version)
	}
	if err := eng.Insert("t", [][]any{{2.5}}); !errors.As(err, &kerr) || kerr.Got != "DOUBLE" {
		t.Errorf("a float into an Int column: got %v, want a KindError", err)
	}
	// An int widens into a Float column.
	must(t, eng.CreateTable("f", []Column{{Name: "x", Type: Float}}, 1))
	must(t, eng.Insert("f", [][]any{{3}, {nil}}))
	res, err := eng.Exec("SELECT x FROM f WHERE x IS NOT NULL")
	must(t, err)
	if len(res.Rows) != 1 || res.Rows[0][0] != 3.0 {
		t.Errorf("an int inserted into a Float column reads back as %#v, want float64 3", res.Rows)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestTable8RewritesEndToEnd(t *testing.T) {
	// Verify every Table-8 estimator on a sampled run against the exact
	// run: COUNT(*), SUM, AVG, SUMIF, COUNTIF and COUNT(DISTINCT).
	eng := buildSalesEngine(t, 40000)
	q := `SELECT i_color,
	        COUNT(*) AS cnt,
	        SUM(s_amount) AS total,
	        AVG(s_amount) AS avg_amt,
	        SUMIF(s_quantity > 2, s_amount) AS big_total,
	        COUNTIF(s_quantity > 2) AS big_cnt
	      FROM sales JOIN item ON s_item_sk = i_item_sk
	      GROUP BY i_color`
	exact, err := eng.Exec(q)
	must(t, err)
	approx, err := eng.ExecApprox(q)
	must(t, err)
	if !approx.Sampled {
		t.Fatalf("plan not sampled:\n%s", approx.PlanText)
	}
	exactBy := map[any][]any{}
	for _, r := range exact.Rows {
		exactBy[r[0]] = r
	}
	for _, r := range approx.Rows {
		e := exactBy[r[0]]
		if e == nil {
			t.Fatalf("extra group %v", r[0])
		}
		for i := 1; i < len(r); i++ {
			ev, gv := toF(e[i]), toF(r[i])
			if ev == 0 {
				continue
			}
			if rel := math.Abs(gv-ev) / math.Abs(ev); rel > 0.30 {
				t.Errorf("group %v col %s: exact %.1f approx %.1f (%.2f rel err)",
					r[0], exact.Columns[i], ev, gv, rel)
			}
		}
	}
}

func toF(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

func TestCIContainsTruthMostly(t *testing.T) {
	eng := buildSalesEngine(t, 40000)
	q := `SELECT i_color, SUM(s_amount) AS total
	      FROM sales JOIN item ON s_item_sk = i_item_sk
	      GROUP BY i_color`
	exact, err := eng.Exec(q)
	must(t, err)
	approx, err := eng.ExecApprox(q)
	must(t, err)
	exactBy := map[string]float64{}
	for _, g := range exact.Estimates {
		exactBy[keyOf(g.Key)] = toF(g.Values[0])
	}
	within := 0
	for _, g := range approx.Estimates {
		truth := exactBy[keyOf(g.Key)]
		est := toF(g.Values[0])
		if math.Abs(est-truth) <= g.CI95[0]*1.5 {
			within++
		}
	}
	// 95% CIs (with slack for estimator approximations) should cover the
	// truth for nearly all of the 5 groups.
	if within < len(approx.Estimates)-1 {
		t.Errorf("only %d/%d groups within CI", within, len(approx.Estimates))
	}
}

func keyOf(vals []any) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(strings.TrimSpace(strings.ReplaceAll(
			strings.ReplaceAll(strings.ToLower(toS(v)), "\n", ""), "\t", "")))
		b.WriteByte('|')
	}
	return b.String()
}

func toS(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

func TestResultFormat(t *testing.T) {
	eng := buildSalesEngine(t, 2000)
	res, err := eng.Exec("SELECT i_color, COUNT(*) AS c FROM sales JOIN item ON s_item_sk = i_item_sk GROUP BY i_color ORDER BY c DESC")
	must(t, err)
	out := res.Format(2)
	if !strings.Contains(out, "i_color") || !strings.Contains(out, "more rows") {
		t.Errorf("format output:\n%s", out)
	}
	if full := res.Format(0); strings.Contains(full, "more rows") {
		t.Errorf("unlimited format should print everything:\n%s", full)
	}
}

func TestPlanExplainFields(t *testing.T) {
	eng := buildSalesEngine(t, 20000)
	info, err := eng.Plan(`SELECT i_color, SUM(s_amount) FROM sales JOIN item ON s_item_sk = i_item_sk GROUP BY i_color`, true)
	must(t, err)
	if !strings.Contains(info.Physical, "HashAgg") || !strings.Contains(info.Logical, "Aggregate") {
		t.Error("plan text missing expected operators")
	}
	if info.Sampled {
		if info.EffectiveP <= 0 || info.EffectiveP > 0.1 {
			t.Errorf("effective p: %v", info.EffectiveP)
		}
		if info.RootSampler == "" {
			t.Error("root sampler missing")
		}
	}
}

func TestDeterministicApproxRuns(t *testing.T) {
	eng := buildSalesEngine(t, 20000)
	q := "SELECT i_color, COUNT(*) FROM sales JOIN item ON s_item_sk = i_item_sk GROUP BY i_color"
	a, err := eng.ExecApprox(q)
	must(t, err)
	b, err := eng.ExecApprox(q)
	must(t, err)
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("nondeterministic group count")
	}
	for i := range a.Rows {
		if a.Rows[i][1] != b.Rows[i][1] {
			t.Fatalf("row %d differs across runs: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// Scalar functions are total over what the binder accepts: a negative
// SUBSTR length gives "" and a string function called with no argument
// gives NULL, on every row, rather than failing the query.
func TestScalarFunctionEdgeArguments(t *testing.T) {
	eng := buildSalesEngine(t, 500)
	for q, want := range map[string]any{
		"SELECT SUBSTR(i_color, 2, -5) FROM item": "",
		"SELECT UPPER() FROM item":                nil,
		"SELECT LOWER() FROM item":                nil,
		"SELECT LENGTH() FROM item":               nil,
	} {
		res, err := eng.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 50 {
			t.Fatalf("%s: %d rows, want 50", q, len(res.Rows))
		}
		for _, r := range res.Rows {
			if r[0] != want {
				t.Fatalf("%s: got %#v, want %#v", q, r[0], want)
			}
		}
	}
}

// A predicate and the operands of AND take a Bool: a bare integer
// there is a bind error that names it, not a predicate that keeps no
// row.
func TestAndOverNonBoolean(t *testing.T) {
	eng := buildSalesEngine(t, 500)
	for _, q := range []string{
		"SELECT s_quantity FROM sales WHERE s_quantity",
		"SELECT s_quantity FROM sales WHERE s_quantity AND TRUE",
		"SELECT s_quantity FROM sales WHERE TRUE AND s_quantity",
	} {
		if _, err := eng.Exec(q); err == nil || !strings.Contains(err.Error(), "s_quantity") {
			t.Fatalf("%s: error %v, want a bind error naming s_quantity", q, err)
		}
	}
}
