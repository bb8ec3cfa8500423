package quickr

import (
	"fmt"
	"testing"

	"quickr/internal/data"
	"quickr/internal/refimpl"
	"quickr/internal/table"
	"quickr/internal/workload"
)

// declaredKinds returns the kinds the binder declares for query's
// output columns.
func declaredKinds(t *testing.T, eng *Engine, query string) []table.Kind {
	t.Helper()
	plan, err := eng.BoundPlan(query)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []table.Kind
	for _, c := range plan.Columns() {
		kinds = append(kinds, c.Kind)
	}
	return kinds
}

// checkKinds fails unless every non-NULL value of res has the Go type of
// its column's declared kind.
func checkKinds(t *testing.T, label string, res *Result, kinds []table.Kind) {
	t.Helper()
	if len(res.Columns) != len(kinds) {
		t.Fatalf("%s: %d result columns, %d declared", label, len(res.Columns), len(kinds))
	}
	for _, row := range res.Rows {
		for c, v := range row {
			var ok bool
			switch v.(type) {
			case nil:
				ok = true
			case int64:
				ok = kinds[c] == table.KindInt
			case float64:
				ok = kinds[c] == table.KindFloat
			case string:
				ok = kinds[c] == table.KindString
			case bool:
				ok = kinds[c] == table.KindBool
			}
			if !ok {
				t.Fatalf("%s: column %s declared %v holds %v (%T)", label, res.Columns[c], kinds[c], v, v)
			}
		}
	}
}

// TestDeclaredKinds: the binder gives every output column one kind, and
// every value the executor returns in it has that kind — over every
// workload statement, exact and approximate, at batch sizes 1, 7, 256
// and whole partitions. A CASE of an int and a float branch is a Float
// column, and an equi-join of an Int key with a Float key still matches
// the equal values.
func TestDeclaredKinds(t *testing.T) {
	t.Run("workloads", func(t *testing.T) {
		cfg := data.DefaultTPCDS()
		cfg.ScaleFactor = 0.2
		eng := New()
		ds := data.GenerateTPCDS(cfg)
		for name, tbl := range ds.Tables {
			eng.RegisterStored(tbl, ds.PKs[name]...)
		}
		hcfg := data.DefaultTPCH()
		hcfg.ScaleFactor = 0.2
		h := data.GenerateTPCH(hcfg)
		for name, tbl := range h.Tables {
			eng.RegisterStored(tbl, h.PKs[name]...)
		}
		eng.RegisterStored(data.Logs(5000, 777, 8))
		eng.SetSeed(1)
		var qs []workload.Query
		qs = append(qs, workload.TPCDSQueries()...)
		qs = append(qs, workload.TPCHQueries()...)
		qs = append(qs, workload.OtherQueries()...)
		qs = append(qs, workload.DashboardQueries()...)
		sampled := 0
		for _, bs := range []int{1, 7, 256, -1} {
			eng.SetBatchSize(bs)
			for _, q := range qs {
				kinds := declaredKinds(t, eng, q.SQL)
				for _, approx := range []bool{false, true} {
					run := eng.Exec
					if approx {
						run = eng.ExecApprox
					}
					res, err := run(q.SQL)
					if err != nil {
						t.Fatalf("%s approx=%v: %v", q.ID, approx, err)
					}
					if res.Sampled {
						sampled++
					}
					checkKinds(t, fmt.Sprintf("%s approx=%v batch=%d", q.ID, approx, bs), res, kinds)
				}
			}
		}
		if sampled == 0 {
			t.Fatal("no approximate plan sampled: the estimators' outputs went unchecked")
		}
	})

	t.Run("engine", func(t *testing.T) {
		eng := buildSalesEngine(t, 2000)
		const caseQ = `SELECT CASE WHEN s_quantity > 2 THEN 1 ELSE 2.5 END AS k, COUNT(*) AS n
			FROM sales GROUP BY CASE WHEN s_quantity > 2 THEN 1 ELSE 2.5 END`
		res, err := eng.Exec(caseQ)
		if err != nil {
			t.Fatal(err)
		}
		checkKinds(t, "CASE of 1 and 2.5", res, declaredKinds(t, eng, caseQ))
		got := map[float64]int64{}
		for _, r := range res.Rows {
			got[r[0].(float64)] = r[1].(int64)
		}
		if len(got) != 2 || got[1]+got[2.5] != 2000 || got[1] == 0 || got[2.5] == 0 {
			t.Fatalf("CASE of 1 and 2.5 grouped as %v, want the keys 1.0 and 2.5 over 2000 rows", res.Rows)
		}
		const joinQ = "SELECT a.i_item_sk, b.i_price FROM item a JOIN item b ON a.i_item_sk = b.i_price"
		res, err = eng.Exec(joinQ)
		if err != nil {
			t.Fatal(err)
		}
		checkKinds(t, "Int = Float join", res, declaredKinds(t, eng, joinQ))
		if len(res.Rows) != 50 {
			t.Fatalf("i_item_sk = i_price matched %d rows, want 50", len(res.Rows))
		}
		for _, r := range res.Rows {
			if float64(r[0].(int64)) != r[1].(float64) {
				t.Fatalf("joined %v to %v", r[0], r[1])
			}
		}
	})

	// An Int key meets a Float key in float space, as = compares them:
	// 2⁵³+1 converts to 2⁵³, so the join, the filter and refimpl all
	// count two pairs.
	t.Run("int-float-join", func(t *testing.T) {
		eng := New()
		for _, tc := range []struct {
			name string
			col  Column
			rows [][]any
		}{
			{"a", Column{"i", Int}, [][]any{{int64(1<<53 + 1)}, {int64(3)}}},
			{"b", Column{"f", Float}, [][]any{{float64(1 << 53)}, {3.0}}},
		} {
			if err := eng.CreateTable(tc.name, []Column{tc.col}, 1); err != nil {
				t.Fatal(err)
			}
			if err := eng.Insert(tc.name, tc.rows); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{
			"SELECT COUNT(*) FROM a JOIN b ON a.i = b.f",
			"SELECT COUNT(*) FROM b JOIN a ON b.f = a.i",
			"SELECT COUNT(*) FROM a, b WHERE a.i = b.f",
		} {
			res, err := eng.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := eng.BoundPlan(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refimpl.Run(eng.Catalog(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0]; got != int64(2) || want[0][0].Int() != 2 {
				t.Fatalf("%s counts %v, refimpl %v, want 2", q, got, want[0][0])
			}
		}
	})
}
