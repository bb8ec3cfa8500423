package soundness

// Seeded randomized logical-plan generator. Every plan it produces is
// legal by construction — plancheck-clean before any rewrite runs — so
// a violation appearing after a rule fires is attributable to that
// rule. The generator draws every decision from one rand.New(
// rand.NewSource(seed)) stream, so a failing seed replays exactly
// (TestCheckSeedReplays holds it to that).
//
// Shapes covered: single-table and joined (fact⋈dim FK, fact⋈dim
// non-FK, fact⋈fact with paired universe samplers) chains of selects
// and pass-through projects, an optional real sampler per branch
// (uniform / distinct / distinct-with-buckets / universe), apriori
// weighted scans, a grouping or global aggregate, and optional
// sort/limit on top. UnionAll and windows are out of scope: the
// registered rules only see them through their generic
// children-rewrite path.

import (
	"math/rand"
	"sync"

	"quickr/internal/catalog"
	"quickr/internal/lplan"
	"quickr/internal/table"
)

// Catalog sizes shared by every generated plan.
const (
	factRows  = 1200
	factParts = 6
	dimRows   = 24
)

var (
	catOnce sync.Once
	cat     *catalog.Catalog
)

// sharedCatalog builds the generator's catalog once: table stats are
// derived lazily and cached, so the whole sweep pays the build cost a
// single time.
func sharedCatalog() *catalog.Catalog {
	catOnce.Do(func() {
		cat = catalog.New()
		fact := table.New("fact", table.NewSchema(
			table.Column{Name: "f_key", Kind: table.KindInt},
			table.Column{Name: "f_dim", Kind: table.KindInt},
			table.Column{Name: "f_val", Kind: table.KindFloat},
			table.Column{Name: "f_tag", Kind: table.KindString},
			table.Column{Name: "f_w", Kind: table.KindFloat},
		), factParts)
		for i := 0; i < factRows; i++ {
			tag := "cold"
			if i%5 == 0 {
				tag = "hot"
			}
			fact.Append(i, table.Row{
				table.NewInt(int64(i)),
				table.NewInt(int64(i % 8)),
				table.NewFloat(float64(i % 50)),
				table.NewString(tag),
				table.NewFloat(10), // uniform apriori weight (p = 0.1)
			})
		}
		dim := table.New("dim", table.NewSchema(
			table.Column{Name: "d_key", Kind: table.KindInt},
			table.Column{Name: "d_cat", Kind: table.KindString},
		), 1)
		for i := 0; i < dimRows; i++ {
			dim.Append(i, table.Row{
				table.NewInt(int64(i % 8)),
				table.NewString(string(rune('a' + i%4))),
			})
		}
		cat.Register(fact)
		cat.Register(dim)
		cat.SetPrimaryKey("dim", "d_key")
	})
	return cat
}

// genInfo summarizes the generated plan for the physical checks.
type genInfo struct {
	// samplerP is the probability of the plan's real sampler (0 when
	// the plan is unsampled): it seeds the estimator config the
	// physical planner wires into the top aggregate.
	samplerP    float64
	samplerType lplan.SamplerType
	// universeCols are the universe-sampled columns, if any.
	universeCols []lplan.ColumnID
	// weighted reports an apriori-weighted scan.
	weighted bool
}

// gen carries the per-plan random stream and column-ID allocator.
type gen struct {
	r    *rand.Rand
	next lplan.ColumnID
	// seedSeq allocates distinct universe subspace seeds within a plan.
	seedSeq uint64
	info    genInfo
}

func (g *gen) id() lplan.ColumnID {
	g.next++
	return g.next
}

// branch is one join input under construction.
type branch struct {
	node lplan.Node
	// cols are the branch's visible output columns; scanCols the
	// original scan columns (join keys and predicates draw from these —
	// they stay visible because generated projects pass them through).
	cols []lplan.ColumnInfo
	// key is the branch's join-key column.
	key lplan.ColumnInfo
	// sampled reports a real sampler in the branch.
	sampled bool
}

// genPlan builds one legal logical plan from the seed.
func genPlan(seed uint64) (lplan.Node, *genInfo) {
	g := &gen{r: rand.New(rand.NewSource(int64(seed)))}

	left := g.genBranch("fact", g.r.Float64() < 0.15)
	root := left.node
	cols := left.cols

	var join *lplan.Join
	switch {
	case g.r.Float64() < 0.35: // fact ⋈ dim
		right := g.genBranch("dim", false)
		join = &lplan.Join{
			Kind:      lplan.InnerJoin,
			Left:      left.node,
			Right:     right.node,
			LeftKeys:  []lplan.ColumnID{left.key.ID},
			RightKeys: []lplan.ColumnID{right.key.ID},
			FKJoin:    g.r.Float64() < 0.5,
		}
		if !join.FKJoin && g.r.Float64() < 0.25 && !right.sampled {
			join.Kind = lplan.LeftOuterJoin
		}
		root = join
		cols = append(append([]lplan.ColumnInfo{}, left.cols...), right.cols...)
	case g.r.Float64() < 0.3 && !left.sampled: // fact ⋈ fact, paired universe
		right := g.genBranch("fact", false)
		if !right.sampled {
			p := g.legalP()
			useed := g.universeSeed()
			left.node = g.universeSampler(left.node, left.key, p, useed)
			right.node = g.universeSampler(right.node, right.key, p, useed)
			left.sampled, right.sampled = true, true
			g.info.samplerP = p
			g.info.samplerType = lplan.SamplerUniverse
			g.info.universeCols = []lplan.ColumnID{left.key.ID}
		}
		join = &lplan.Join{
			Kind:      lplan.InnerJoin,
			Left:      left.node,
			Right:     right.node,
			LeftKeys:  []lplan.ColumnID{left.key.ID},
			RightKeys: []lplan.ColumnID{right.key.ID},
		}
		root = join
		cols = append(append([]lplan.ColumnInfo{}, left.cols...), right.cols...)
	}

	// A predicate above the join exercises pushdown through it; one
	// referencing only a single side moves, a cross-side OR stays.
	if join != nil && g.r.Float64() < 0.6 {
		root = &lplan.Select{Input: root, Pred: g.pred(cols)}
	}

	root = g.aggregate(root, cols)

	if g.r.Float64() < 0.3 {
		root = g.sort(root)
	}
	if g.r.Float64() < 0.25 {
		root = &lplan.Limit{Input: root, N: int64(1 + g.r.Intn(40))}
	}
	info := g.info
	return root, &info
}

// genBranch builds scan → selects → (project) → (sampler).
func (g *gen) genBranch(tbl string, weighted bool) *branch {
	b := &branch{}
	switch tbl {
	case "fact":
		b.cols = []lplan.ColumnInfo{
			g.col("fact", "f_key", table.KindInt),
			g.col("fact", "f_dim", table.KindInt),
			g.col("fact", "f_val", table.KindFloat),
			g.col("fact", "f_tag", table.KindString),
		}
		b.key = b.cols[1] // f_dim joins d_key; fact⋈fact also uses it
		wcol := ""
		if weighted {
			wcol = "f_w"
			g.info.weighted = true
		}
		b.node = &lplan.Scan{Table: "fact", Cols: b.cols, WeightColumn: wcol}
	default:
		b.cols = []lplan.ColumnInfo{
			g.col("dim", "d_key", table.KindInt),
			g.col("dim", "d_cat", table.KindString),
		}
		b.key = b.cols[0]
		b.node = &lplan.Scan{Table: "dim", Cols: b.cols, WeightColumn: ""}
	}

	for n := g.r.Intn(3); n > 0; n-- {
		b.node = &lplan.Select{Input: b.node, Pred: g.pred(b.cols)}
	}

	// Pass-through project plus one computed column, below any sampler
	// so the sampler→aggregate path stays project-free (§B.1).
	if tbl == "fact" && g.r.Float64() < 0.3 {
		exprs := make([]lplan.Expr, 0, len(b.cols)+1)
		outs := make([]lplan.ColumnInfo, 0, len(b.cols)+1)
		for _, c := range b.cols {
			exprs = append(exprs, &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind})
			outs = append(outs, c)
		}
		val := b.cols[2]
		exprs = append(exprs, &lplan.Binary{
			Op: lplan.OpMul,
			L:  &lplan.ColRef{ID: val.ID, Name: val.Name, Kind: val.Kind},
			R:  &lplan.Const{Val: table.NewFloat(2)},
		})
		outs = append(outs, lplan.ColumnInfo{
			ID: g.id(), Name: "f_val2", Kind: table.KindFloat, Origins: val.Origins,
		})
		b.node = &lplan.Project{Input: b.node, Exprs: exprs, Cols: outs}
		b.cols = outs
	}

	if !weighted && g.r.Float64() < 0.45 {
		b.node, b.sampled = g.sampler(b.node, b.cols, tbl)
	}
	return b
}

// sampler wraps n in a random sampler; pass-through samplers count as
// unsampled for the plan-level bookkeeping.
func (g *gen) sampler(n lplan.Node, cols []lplan.ColumnInfo, tbl string) (lplan.Node, bool) {
	p := g.legalP()
	switch g.r.Intn(10) {
	case 0: // pass-through: costing declined to sample
		return &lplan.Sample{
			Input: n,
			State: lplan.NewSamplerState(nil),
			Def:   &lplan.SamplerDef{Type: lplan.SamplerPassThrough},
		}, false
	case 1, 2, 3: // distinct, sometimes bucket-stratified
		strat := cols[g.r.Intn(len(cols))]
		def := &lplan.SamplerDef{
			Type:  lplan.SamplerDistinct,
			P:     p,
			Cols:  []lplan.ColumnID{strat.ID},
			Delta: 1 + g.r.Intn(20),
		}
		if tbl == "fact" && g.r.Float64() < 0.4 {
			def.BucketCols = []lplan.ColumnID{cols[2].ID} // f_val
			def.BucketWidths = []float64{float64(5 + g.r.Intn(20))}
		}
		g.info.samplerP = p
		g.info.samplerType = lplan.SamplerDistinct
		return &lplan.Sample{
			Input: n,
			State: lplan.NewSamplerState(lplan.NewColSet(def.Cols...)),
			Def:   def,
		}, true
	case 4, 5: // solo universe
		u := cols[g.r.Intn(len(cols))]
		g.info.samplerP = p
		g.info.samplerType = lplan.SamplerUniverse
		g.info.universeCols = []lplan.ColumnID{u.ID}
		return g.universeSampler(n, u, p, g.universeSeed()), true
	default: // uniform
		g.info.samplerP = p
		g.info.samplerType = lplan.SamplerUniform
		return &lplan.Sample{
			Input: n,
			State: lplan.NewSamplerState(nil),
			Def:   &lplan.SamplerDef{Type: lplan.SamplerUniform, P: p},
		}, true
	}
}

func (g *gen) universeSampler(n lplan.Node, col lplan.ColumnInfo, p float64, seed uint64) lplan.Node {
	st := lplan.NewSamplerState(nil)
	st.Univ = lplan.NewColSet(col.ID)
	return &lplan.Sample{
		Input: n,
		State: st,
		Def: &lplan.SamplerDef{
			Type: lplan.SamplerUniverse,
			P:    p,
			Cols: []lplan.ColumnID{col.ID},
			Seed: seed,
		},
	}
}

// legalP draws a sampling probability in (0, 0.1], the §4.2.6 cap
// plancheck enforces.
func (g *gen) legalP() float64 {
	return 0.01 + 0.09*g.r.Float64()
}

// universeSeed allocates a nonzero subspace seed, distinct per call so
// unpaired universe samplers never trip the pairing checks.
func (g *gen) universeSeed() uint64 {
	g.seedSeq++
	return g.seedSeq<<8 | 1
}

func (g *gen) col(tbl, name string, kind table.Kind) lplan.ColumnInfo {
	return lplan.ColumnInfo{
		ID: g.id(), Name: name, Kind: kind,
		Origins: []lplan.BaseCol{{Table: tbl, Column: name}},
	}
}

// pred builds a random predicate over cols; ~1/4 are conjunctions so
// push-selections always has conjuncts to split.
func (g *gen) pred(cols []lplan.ColumnInfo) lplan.Expr {
	p := g.atom(cols)
	switch g.r.Intn(4) {
	case 0:
		return &lplan.Binary{Op: lplan.OpAnd, L: p, R: g.atom(cols)}
	case 1:
		return &lplan.Binary{Op: lplan.OpOr, L: p, R: g.atom(cols)}
	default:
		return p
	}
}

func (g *gen) atom(cols []lplan.ColumnInfo) lplan.Expr {
	c := cols[g.r.Intn(len(cols))]
	ref := &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case table.KindString:
		vals := []string{"hot", "cold", "a", "b"}
		return &lplan.Binary{Op: lplan.OpEq, L: ref, R: &lplan.Const{Val: table.NewString(vals[g.r.Intn(len(vals))])}}
	case table.KindFloat:
		ops := []lplan.BinOp{lplan.OpLt, lplan.OpGe}
		return &lplan.Binary{Op: ops[g.r.Intn(2)], L: ref, R: &lplan.Const{Val: table.NewFloat(float64(g.r.Intn(100)))}}
	default:
		ops := []lplan.BinOp{lplan.OpLt, lplan.OpGt, lplan.OpEq, lplan.OpNe}
		return &lplan.Binary{Op: ops[g.r.Intn(4)], L: ref, R: &lplan.Const{Val: table.NewInt(int64(g.r.Intn(20)))}}
	}
}

// aggregate tops the plan with a grouped or global aggregate whose
// arguments draw from the visible columns.
func (g *gen) aggregate(n lplan.Node, cols []lplan.ColumnInfo) lplan.Node {
	a := &lplan.Aggregate{Input: n}
	for i := g.r.Intn(3); i > 0; i-- {
		c := cols[g.r.Intn(len(cols))]
		if !hasCol(a.GroupCols, c.ID) {
			a.GroupCols = append(a.GroupCols, c.ID)
			a.GroupInfo = append(a.GroupInfo, c)
		}
	}
	var numeric []lplan.ColumnInfo
	for _, c := range cols {
		if c.Kind == table.KindInt || c.Kind == table.KindFloat {
			numeric = append(numeric, c)
		}
	}
	nAggs := 1 + g.r.Intn(3)
	for i := 0; i < nAggs; i++ {
		spec := lplan.AggSpec{Kind: lplan.AggCount, Arg: lplan.NoColumn}
		kind := table.KindInt
		switch g.r.Intn(6) {
		case 0, 1:
			arg := numeric[g.r.Intn(len(numeric))]
			spec = lplan.AggSpec{Kind: lplan.AggSum, Arg: arg.ID}
			kind = table.KindFloat
		case 2:
			arg := numeric[g.r.Intn(len(numeric))]
			spec = lplan.AggSpec{Kind: lplan.AggAvg, Arg: arg.ID}
			kind = table.KindFloat
		case 3:
			arg := cols[g.r.Intn(len(cols))]
			k := lplan.AggMin
			if g.r.Intn(2) == 0 {
				k = lplan.AggMax
			}
			spec = lplan.AggSpec{Kind: k, Arg: arg.ID}
			kind = arg.Kind
		case 4:
			arg := cols[g.r.Intn(len(cols))]
			spec = lplan.AggSpec{Kind: lplan.AggCountDistinct, Arg: arg.ID}
		}
		spec.Out = lplan.ColumnInfo{ID: g.id(), Name: "agg", Kind: kind}
		a.Aggs = append(a.Aggs, spec)
	}
	return a
}

func (g *gen) sort(n lplan.Node) lplan.Node {
	out := n.Columns()
	s := &lplan.Sort{Input: n}
	for i := 1 + g.r.Intn(2); i > 0 && len(out) > 0; i-- {
		c := out[g.r.Intn(len(out))]
		s.Keys = append(s.Keys, lplan.SortKey{Col: c.ID, Desc: g.r.Intn(2) == 0})
	}
	if len(s.Keys) == 0 {
		return n
	}
	return s
}

func hasCol(ids []lplan.ColumnID, id lplan.ColumnID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
