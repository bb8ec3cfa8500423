package opt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"quickr/internal/catalog"
	"quickr/internal/cluster"
	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/sql"
	"quickr/internal/table"
)

func fixture(t *testing.T) (*catalog.Catalog, *Estimator) {
	t.Helper()
	cat := catalog.New()
	fact := table.New("fact", table.NewSchema(
		table.Column{Name: "f_key", Kind: table.KindInt},
		table.Column{Name: "f_dim", Kind: table.KindInt},
		table.Column{Name: "f_val", Kind: table.KindFloat},
		table.Column{Name: "f_tag", Kind: table.KindString},
	), 4)
	for i := 0; i < 10000; i++ {
		tag := "cold"
		if i%5 == 0 {
			tag = "hot" // 20% heavy hitter
		}
		fact.Append(i, table.Row{
			table.NewInt(int64(i)), table.NewInt(int64(i % 20)),
			table.NewFloat(float64(i % 100)), table.NewString(tag),
		})
	}
	dim := table.New("dim", table.NewSchema(
		table.Column{Name: "d_key", Kind: table.KindInt},
		table.Column{Name: "d_cat", Kind: table.KindString},
	), 1)
	for i := 0; i < 20; i++ {
		dim.Append(i, table.Row{table.NewInt(int64(i)), table.NewString(string(rune('a' + i%4)))})
	}
	cat.Register(fact)
	cat.Register(dim)
	cat.SetPrimaryKey("dim", "d_key")
	return cat, NewEstimator(cat)
}

func bindQ(t *testing.T, cat *catalog.Catalog, src string) lplan.Node {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := catalog.NewBinder(cat).Bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestEstimatorScanAndSelect(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, "SELECT f_val FROM fact WHERE f_dim = 7")
	plan = Normalize(plan, est)
	p := est.Props(plan)
	// 10000 rows / 20 distinct dims = 500 expected.
	if p.Rows < 200 || p.Rows > 1200 {
		t.Errorf("estimated rows %.0f want ~500", p.Rows)
	}
}

func TestEstimatorHeavyHitterEquality(t *testing.T) {
	cat, est := fixture(t)
	hot := bindQ(t, cat, "SELECT f_val FROM fact WHERE f_tag = 'hot'")
	hot = Normalize(hot, est)
	cold := bindQ(t, cat, "SELECT f_val FROM fact WHERE f_tag = 'rare_value'")
	cold = Normalize(cold, est)
	ph, pc := est.Props(hot), est.Props(cold)
	// The heavy hitter 'hot' covers 20% of rows; the estimator must use
	// its observed frequency rather than 1/NDV.
	if ph.Rows < 1500 || ph.Rows > 2500 {
		t.Errorf("hot estimate %.0f want ~2000", ph.Rows)
	}
	if pc.Rows >= ph.Rows {
		t.Errorf("non-heavy value estimate %.0f must be below heavy %.0f", pc.Rows, ph.Rows)
	}
}

func TestEstimatorFKJoin(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, "SELECT f_val FROM fact JOIN dim ON f_dim = d_key")
	plan = Normalize(plan, est)
	p := est.Props(plan)
	// FK join preserves fact cardinality.
	if math.Abs(p.Rows-10000)/10000 > 0.2 {
		t.Errorf("FK join estimate %.0f want ~10000", p.Rows)
	}
}

func TestEstimatorAggregateRows(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, "SELECT f_dim, COUNT(*) FROM fact GROUP BY f_dim")
	plan = Normalize(plan, est)
	p := est.Props(plan)
	if p.Rows < 15 || p.Rows > 25 {
		t.Errorf("group estimate %.0f want ~20", p.Rows)
	}
}

func TestNormalizePushesPredicatesBelowJoin(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, `SELECT f_val FROM fact JOIN dim ON f_dim = d_key
		WHERE f_val > 50 AND d_cat = 'a'`)
	plan = Normalize(plan, est)
	// Both conjuncts must sit below the join, directly over their scans.
	var joins []*lplan.Join
	lplan.Walk(plan, func(n lplan.Node) {
		if j, ok := n.(*lplan.Join); ok {
			joins = append(joins, j)
		}
	})
	if len(joins) != 1 {
		t.Fatalf("joins: %d", len(joins))
	}
	countSelectsAbove := 0
	lplan.Walk(plan, func(n lplan.Node) {
		if s, ok := n.(*lplan.Select); ok {
			under := false
			lplan.Walk(joins[0], func(x lplan.Node) {
				if x == lplan.Node(s) {
					under = true
				}
			})
			if !under {
				countSelectsAbove++
			}
		}
	})
	if countSelectsAbove != 0 {
		t.Errorf("%d selects stayed above the join:\n%s", countSelectsAbove, lplan.Format(plan))
	}
}

func TestNormalizePrunesScanColumns(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, "SELECT f_val FROM fact WHERE f_dim > 3")
	plan = Normalize(plan, est)
	var scan *lplan.Scan
	lplan.Walk(plan, func(n lplan.Node) {
		if s, ok := n.(*lplan.Scan); ok && s.Table == "fact" {
			scan = s
		}
	})
	if scan == nil || len(scan.Cols) != 2 {
		t.Fatalf("pruned scan cols: %+v", scan)
	}
}

func TestNormalizeDoesNotPushRightPredBelowOuterJoin(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, `SELECT f_val FROM fact LEFT JOIN dim ON f_dim = d_key
		WHERE d_cat = 'a'`)
	plan = Normalize(plan, est)
	// The d_cat predicate must NOT move below the left outer join.
	var join *lplan.Join
	lplan.Walk(plan, func(n lplan.Node) {
		if j, ok := n.(*lplan.Join); ok {
			join = j
		}
	})
	selBelowRight := false
	lplan.Walk(join.Right, func(n lplan.Node) {
		if _, ok := n.(*lplan.Select); ok {
			selBelowRight = true
		}
	})
	if selBelowRight {
		t.Errorf("right-side predicate pushed below outer join:\n%s", lplan.Format(plan))
	}
}

func TestCostPrefersCheaperPlans(t *testing.T) {
	cat, est := fixture(t)
	cm := NewCostModel(est, cluster.DefaultConfig())
	full := bindQ(t, cat, "SELECT f_dim, SUM(f_val) FROM fact GROUP BY f_dim")
	full = Normalize(full, est)
	// A sampled version of the same plan must cost less.
	sampled := addSamplerAboveScan(full)
	if cm.Cost(sampled) >= cm.Cost(full) {
		t.Errorf("sampled plan must be cheaper: %.0f vs %.0f", cm.Cost(sampled), cm.Cost(full))
	}
}

func addSamplerAboveScan(n lplan.Node) lplan.Node {
	if s, ok := n.(*lplan.Scan); ok {
		return &lplan.Sample{
			Input: s,
			State: lplan.NewSamplerState(nil),
			Def:   &lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.05},
		}
	}
	ch := n.Children()
	if len(ch) == 0 {
		return n
	}
	newCh := make([]lplan.Node, len(ch))
	for i, c := range ch {
		newCh[i] = addSamplerAboveScan(c)
	}
	return n.WithChildren(newCh)
}

func TestDOPScalesWithRows(t *testing.T) {
	_, est := fixture(t)
	cm := NewCostModel(est, cluster.DefaultConfig())
	if cm.DOP(100) != 1 {
		t.Errorf("small input DOP %d", cm.DOP(100))
	}
	if cm.DOP(100000) <= cm.DOP(10000) {
		t.Error("DOP must grow with data")
	}
	if cm.DOP(1e12) != cm.MaxParts {
		t.Error("DOP must cap at MaxParts")
	}
}

func TestPhysicalPlanShape(t *testing.T) {
	cat, est := fixture(t)
	cm := NewCostModel(est, cluster.DefaultConfig())
	plan := bindQ(t, cat, `SELECT d_cat, SUM(f_val) FROM fact JOIN dim ON f_dim = d_key GROUP BY d_cat`)
	plan = Normalize(plan, est)
	pl := &Planner{CM: cm}
	phys, err := pl.Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	text := exec.FormatPlan(phys)
	// Dim table is tiny: broadcast join expected; group-by needs a hash
	// exchange.
	if !strings.Contains(text, "broadcast") {
		t.Errorf("expected broadcast join:\n%s", text)
	}
	if !strings.Contains(text, "Exchange hash") {
		t.Errorf("expected hash exchange for group-by:\n%s", text)
	}
	if !strings.Contains(text, "HashAgg") {
		t.Errorf("expected hash aggregate:\n%s", text)
	}
}

func TestEstimatorSamplerCardinality(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, "SELECT f_val FROM fact")
	plan = Normalize(plan, est)
	var scan lplan.Node
	lplan.Walk(plan, func(n lplan.Node) {
		if s, ok := n.(*lplan.Scan); ok {
			scan = s
		}
	})
	uni := &lplan.Sample{Input: scan, State: lplan.NewSamplerState(nil),
		Def: &lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.05}}
	if rows := est.Props(uni).Rows; rows < 400 || rows > 600 {
		t.Errorf("uniform sampler cardinality %.0f want ~500", rows)
	}
	pt := &lplan.Sample{Input: scan, State: lplan.NewSamplerState(nil),
		Def: &lplan.SamplerDef{Type: lplan.SamplerPassThrough}}
	if rows := est.Props(pt).Rows; rows != 10000 {
		t.Errorf("pass-through cardinality %.0f want 10000", rows)
	}
	dist := &lplan.Sample{Input: scan, State: lplan.NewSamplerState(nil),
		Def: &lplan.SamplerDef{Type: lplan.SamplerDistinct, P: 0.05,
			Cols: []lplan.ColumnID{scan.Columns()[0].ID}, Delta: 10}}
	// The distinct sampler leaks δ per distinct value on top of p·rows.
	if rows := est.Props(dist).Rows; rows <= 500 {
		t.Errorf("distinct sampler must leak more than p·rows: %.0f", rows)
	}
}

func TestSelectivityShapes(t *testing.T) {
	cat, est := fixture(t)
	plan := bindQ(t, cat, "SELECT f_val FROM fact")
	plan = Normalize(plan, est)
	var scan lplan.Node
	lplan.Walk(plan, func(n lplan.Node) {
		if s, ok := n.(*lplan.Scan); ok && s.Table == "fact" {
			scan = n
		}
	})
	// Re-bind against unpruned scan for the columns we need.
	full := bindQ(t, cat, "SELECT f_key, f_dim, f_val, f_tag FROM fact")
	var fscan *lplan.Scan
	lplan.Walk(full, func(n lplan.Node) {
		if s, ok := n.(*lplan.Scan); ok {
			fscan = s
		}
	})
	_ = scan
	dim := fscan.Cols[1]
	col := &lplan.ColRef{ID: dim.ID, Name: dim.Name, Kind: dim.Kind}

	in := &lplan.In{X: col, Vals: []table.Value{table.NewInt(1), table.NewInt(2)}}
	if s := est.Selectivity(in, fscan); s < 0.05 || s > 0.2 {
		t.Errorf("IN selectivity %v want ~2/20", s)
	}
	isNull := &lplan.IsNull{X: col}
	if s := est.Selectivity(isNull, fscan); s > 0.1 {
		t.Errorf("IS NULL selectivity %v", s)
	}
	rng := &lplan.Binary{Op: lplan.OpLt, L: col, R: &lplan.Const{Val: table.NewInt(10)}}
	if s := est.Selectivity(rng, fscan); s < 0.3 || s > 0.7 {
		t.Errorf("range selectivity %v want ~0.5 over [0,19]", s)
	}
	and := &lplan.Binary{Op: lplan.OpAnd, L: in, R: rng}
	if s := est.Selectivity(and, fscan); s >= est.Selectivity(in, fscan) {
		t.Errorf("AND must shrink selectivity: %v", s)
	}
}

// TestPlannerTakesSampleCacheFromCatalog: a planner wraps cacheable
// sampler fragments exactly when the catalog it plans over holds a
// sample cache, and the nodes carry that cache to the executor, so a
// plan built and run from the layers alone replays its sample.
func TestPlannerTakesSampleCacheFromCatalog(t *testing.T) {
	cat, est := fixture(t)
	logical := addSamplerAboveScan(Normalize(bindQ(t, cat, "SELECT f_dim, SUM(f_val) FROM fact GROUP BY f_dim"), est))
	plan := func() (exec.PNode, []*exec.PCachedSample) {
		t.Helper()
		pl := &Planner{CM: NewCostModel(NewEstimator(cat), cluster.DefaultConfig()),
			EstCfg: &exec.EstimatorConfig{Type: lplan.SamplerUniform, P: 0.05}}
		phys, err := pl.Plan(logical)
		if err != nil {
			t.Fatal(err)
		}
		var cached []*exec.PCachedSample
		exec.WalkP(phys, func(n exec.PNode) {
			if cs, ok := n.(*exec.PCachedSample); ok {
				cached = append(cached, cs)
			}
		})
		return phys, cached
	}
	if _, cached := plan(); len(cached) != 0 {
		t.Fatalf("catalog without a sample cache: %d cached-sample nodes, want 0", len(cached))
	}

	sc := exec.NewSampleCache(1 << 20)
	cat.SetSampleStore(sc)
	phys, cached := plan()
	if len(cached) != 1 || cached[0].Cache != sc {
		t.Fatalf("catalog with a sample cache: %d cached-sample nodes (want 1, over the catalog's cache)", len(cached))
	}
	cold, err := exec.Run(phys, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	phys, _ = plan()
	warm, err := exec.Run(phys, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 1 || warm.PartitionsScanned != 0 {
		t.Fatalf("second run: %d entries, %d partitions scanned; want a replay of 1 entry", sc.Len(), warm.PartitionsScanned)
	}
	if fmt.Sprint(warm.Rows) != fmt.Sprint(cold.Rows) {
		t.Fatalf("replay differs from the cold run:\n%v\n%v", warm.Rows, cold.Rows)
	}

	cat.SetSampleStore(nil)
	if _, cached := plan(); len(cached) != 0 {
		t.Fatalf("sample cache turned off: %d cached-sample nodes, want 0", len(cached))
	}
}
