package stats

import (
	"fmt"
	"math"
	"testing"

	"quickr/internal/table"
)

func buildTable(rows int) *table.Table {
	sc := table.NewSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "grp", Kind: table.KindString},
		table.Column{Name: "val", Kind: table.KindFloat},
		table.Column{Name: "nul", Kind: table.KindInt},
	)
	t := table.New("tt", sc, 4)
	for i := 0; i < rows; i++ {
		nul := table.Null
		if i%4 == 0 {
			nul = table.NewInt(1)
		}
		grp := fmt.Sprintf("g%d", i%10)
		if i%3 == 0 {
			grp = "heavy" // ~33% heavy hitter
		}
		t.Append(i, table.Row{
			table.NewInt(int64(i)),
			table.NewString(grp),
			table.NewFloat(float64(i % 100)),
			nul,
		})
	}
	return t
}

func TestCollectBasics(t *testing.T) {
	tbl := buildTable(10000)
	ts := Collect(tbl)
	if ts.RowCount != 10000 {
		t.Fatalf("rowcount %d", ts.RowCount)
	}
	id := ts.Columns["id"]
	if rel := math.Abs(id.NDV-10000) / 10000; rel > 0.15 {
		t.Errorf("id NDV %.0f", id.NDV)
	}
	if id.Min.Int() != 0 || id.Max.Int() != 9999 {
		t.Errorf("id min/max %v %v", id.Min, id.Max)
	}
	grp := ts.Columns["grp"]
	if grp.NDV < 10 || grp.NDV > 12 {
		t.Errorf("grp NDV %.0f want 11", grp.NDV)
	}
	nul := ts.Columns["nul"]
	if nul.NullCount != 7500 {
		t.Errorf("null count %d want 7500", nul.NullCount)
	}
}

func TestCollectMoments(t *testing.T) {
	ts := Collect(buildTable(10000))
	val := ts.Columns["val"]
	// values are i%100: mean 49.5, variance (100²-1)/12 ≈ 833.25.
	if math.Abs(val.Avg-49.5) > 0.5 {
		t.Errorf("avg %.2f", val.Avg)
	}
	if math.Abs(val.Var-833.25) > 10 {
		t.Errorf("var %.2f", val.Var)
	}
}

func TestHeavyHitters(t *testing.T) {
	ts := Collect(buildTable(10000))
	grp := ts.Columns["grp"]
	if len(grp.Heavy) == 0 {
		t.Fatal("no heavy hitters found")
	}
	if grp.Heavy[0].Value.Str() != "heavy" {
		t.Errorf("top heavy hitter %v", grp.Heavy[0].Value)
	}
	if f := ts.HeavyFreq("grp", table.NewString("heavy")); f < 3000 || f > 3600 {
		t.Errorf("heavy freq %d want ~3334", f)
	}
	// g1 (~6.7% of rows) is also above the 1% heavy-hitter threshold.
	if f := ts.HeavyFreq("grp", table.NewString("g1")); f < 500 || f > 800 {
		t.Errorf("g1 freq %d want ~667", f)
	}
	if f := ts.HeavyFreq("missing_col", table.NewString("x")); f != 0 {
		t.Errorf("unknown column freq %d", f)
	}

	// A non-integral float keys as "f"+hex(bits), not as an integer: it
	// must come back as the float it was, or an equality predicate on it
	// never finds its frequency.
	prices := table.New("p", table.NewSchema(table.Column{Name: "price", Kind: table.KindFloat}), 4)
	for i := 0; i < 10000; i++ {
		price := float64(i) + 0.5
		if i%20 == 0 {
			price = 0.05 // 5% of rows
		}
		prices.Append(i, table.Row{table.NewFloat(price)})
	}
	ps := Collect(prices)
	if f := ps.HeavyFreq("price", table.NewFloat(0.05)); f < 450 || f > 550 {
		t.Errorf("heavy float freq %d want ~500 (heavy hitters %v)", f, ps.Columns["price"].Heavy)
	}
}

func TestNDVSetPairs(t *testing.T) {
	ts := Collect(buildTable(10000))
	// (grp, val) is fully correlated through i: val=i%100 determines
	// grp=g(i%10) unless heavy (i%3==0), giving exactly ~200 observed
	// pairs — far below the 11×100 independence product. NDVSet must
	// count the observed pairs.
	pair := ts.NDVSet([]string{"grp", "val"})
	if pair < 150 || pair > 260 {
		t.Errorf("pair NDV %.0f want ~200 (observed, not the 1100 product)", pair)
	}
	if one := ts.NDVSet([]string{"grp"}); math.Abs(one-ts.Columns["grp"].NDV) > 0.5 {
		t.Errorf("single-column set NDV mismatch: %.1f", one)
	}
	if ts.NDVSet(nil) != 1 {
		t.Error("empty set NDV must be 1")
	}
	// Cached on second call (same value).
	if a, b := ts.NDVSet([]string{"val", "grp"}), ts.NDVSet([]string{"grp", "val"}); a != b {
		t.Errorf("column-order sensitivity: %v vs %v", a, b)
	}
}

func TestStoreCaching(t *testing.T) {
	s := NewStore()
	tbl := buildTable(1000)
	a := s.Get(tbl)
	b := s.Get(tbl)
	if a != b {
		t.Error("store must cache per table")
	}
}
