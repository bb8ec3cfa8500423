package quickr

import (
	"testing"

	"quickr/internal/table"
)

// buildWinEngine creates a small table for window tests.
func buildWinEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	must(t, eng.CreateTable("scores", []Column{
		{Name: "team", Type: String},
		{Name: "player", Type: String},
		{Name: "pts", Type: Int},
	}, 3))
	must(t, eng.Insert("scores", [][]any{
		{"red", "a", 10},
		{"red", "b", 30},
		{"red", "c", 30},
		{"red", "d", 5},
		{"blue", "e", 7},
		{"blue", "f", 9},
	}))
	return eng
}

func TestWindowRowNumberAndRank(t *testing.T) {
	eng := buildWinEngine(t)
	res, err := eng.Exec(`
		SELECT team, player, pts,
		       ROW_NUMBER() OVER (PARTITION BY team ORDER BY pts DESC) AS rn,
		       RANK() OVER (PARTITION BY team ORDER BY pts DESC) AS rk
		FROM scores
		ORDER BY team, 4`)
	must(t, err)
	if len(res.Rows) != 6 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// blue: f(9)=1, e(7)=2; red: b,c tie at 30 -> ranks 1,1 then d? no:
	// rn 1,2 ranks 1,1; then 10 -> rank 3; 5 -> rank 4.
	type rec struct {
		rn, rk int64
	}
	got := map[string]rec{}
	for _, r := range res.Rows {
		got[r[1].(string)] = rec{rn: r[3].(int64), rk: r[4].(int64)}
	}
	if got["f"].rk != 1 || got["e"].rk != 2 {
		t.Errorf("blue ranks: %+v", got)
	}
	if got["b"].rk != 1 || got["c"].rk != 1 {
		t.Errorf("tied ranks must both be 1: %+v", got)
	}
	if got["a"].rk != 3 || got["d"].rk != 4 {
		t.Errorf("post-tie ranks: %+v", got)
	}
	if (got["b"].rn == got["c"].rn) || got["b"].rn > 2 || got["c"].rn > 2 {
		t.Errorf("row numbers must be distinct 1,2 for the tie: %+v", got)
	}
}

func TestWindowRunningAndFullAggregates(t *testing.T) {
	eng := buildWinEngine(t)
	res, err := eng.Exec(`
		SELECT player, pts,
		       SUM(pts) OVER (PARTITION BY team ORDER BY pts) AS running,
		       SUM(pts) OVER (PARTITION BY team) AS total,
		       AVG(pts) OVER (PARTITION BY team) AS avg_pts,
		       COUNT(*) OVER (PARTITION BY team) AS n
		FROM scores`)
	must(t, err)
	byPlayer := map[string][]any{}
	for _, r := range res.Rows {
		byPlayer[r[0].(string)] = r
	}
	// red totals: 75 over 4 rows.
	if byPlayer["a"][3].(int64) != 75 || byPlayer["a"][5].(int64) != 4 {
		t.Errorf("red totals: %v", byPlayer["a"])
	}
	if avg := byPlayer["a"][4].(float64); avg != 18.75 {
		t.Errorf("red avg: %v", avg)
	}
	// running sums ascending: d(5)=5, a(10)=15, b&c tie at 30: both see 75.
	if byPlayer["d"][2].(int64) != 5 || byPlayer["a"][2].(int64) != 15 {
		t.Errorf("running: d=%v a=%v", byPlayer["d"][2], byPlayer["a"][2])
	}
	if byPlayer["b"][2].(int64) != 75 || byPlayer["c"][2].(int64) != 75 {
		t.Errorf("peers must share the running frame: b=%v c=%v", byPlayer["b"][2], byPlayer["c"][2])
	}
}

func TestWindowWithoutPartition(t *testing.T) {
	eng := buildWinEngine(t)
	res, err := eng.Exec(`SELECT player, ROW_NUMBER() OVER (ORDER BY pts DESC, player) AS rn FROM scores`)
	must(t, err)
	rns := map[int64]bool{}
	for _, r := range res.Rows {
		rns[r[1].(int64)] = true
	}
	for i := int64(1); i <= 6; i++ {
		if !rns[i] {
			t.Fatalf("missing row number %d: %v", i, res.Rows)
		}
	}
}

func TestWindowErrors(t *testing.T) {
	eng := buildWinEngine(t)
	bad := []string{
		"SELECT team, SUM(pts), RANK() OVER (ORDER BY pts) FROM scores GROUP BY team",
		"SELECT SUMIF(pts > 1, pts) OVER (ORDER BY pts) FROM scores",
		"SELECT MEDIAN(pts) OVER (ORDER BY pts) FROM scores",
	}
	for _, q := range bad {
		if _, err := eng.Exec(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestWindowQueryUnapproximable(t *testing.T) {
	// Sampling under a window changes ROW_NUMBER/RANK semantics; ASALQA
	// must leave window queries exact.
	eng := buildWinEngine(t)
	res, err := eng.ExecApprox(`SELECT player, RANK() OVER (ORDER BY pts DESC) AS rk FROM scores`)
	must(t, err)
	if res.Sampled {
		t.Error("window queries must not be sampled")
	}
}

// TestWindowPartitionMixedKeys: a PARTITION BY column appended ints,
// the equal integral floats and NULLs puts 1 beside 1.0 and the NULLs
// together, as GROUP BY does. Append widens the ints into the Float
// column, as Insert does.
func TestWindowPartitionMixedKeys(t *testing.T) {
	eng := New()
	mix := table.New("mix", table.NewSchema(
		table.Column{Name: "k", Kind: table.KindFloat}, table.Column{Name: "v", Kind: table.KindInt}), 1)
	for i, r := range [][2]table.Value{
		{table.NewInt(1), table.NewInt(10)}, {table.NewFloat(1), table.NewInt(20)},
		{table.Null, table.NewInt(5)}, {table.NewFloat(2.5), table.NewInt(3)},
		{table.NewInt(2), table.NewInt(4)}, {table.Null, table.NewInt(7)},
		{table.NewFloat(2), table.NewInt(6)},
	} {
		mix.Append(i, table.Row{r[0], r[1]})
	}
	eng.RegisterStored(mix)
	res, err := eng.Exec(`
		SELECT v, SUM(v) OVER (PARTITION BY k) AS total,
		       COUNT(*) OVER (PARTITION BY k) AS n,
		       ROW_NUMBER() OVER (PARTITION BY k ORDER BY v) AS rn
		FROM mix`)
	must(t, err)
	want := map[int64][3]int64{
		10: {30, 2, 1}, 20: {30, 2, 2},
		5: {12, 2, 1}, 7: {12, 2, 2},
		3: {3, 1, 1},
		4: {10, 2, 1}, 6: {10, 2, 2},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows: %v", res.Rows)
	}
	for _, r := range res.Rows {
		got := [3]int64{r[1].(int64), r[2].(int64), r[3].(int64)}
		if w := want[r[0].(int64)]; got != w {
			t.Errorf("v=%v: total, n, rn = %v, want %v", r[0], got, w)
		}
	}
}
