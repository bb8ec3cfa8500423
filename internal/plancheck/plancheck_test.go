package plancheck

import (
	"strings"
	"testing"

	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/table"
)

// --- logical-plan fixtures ------------------------------------------

func col(id lplan.ColumnID, name string) lplan.ColumnInfo {
	return lplan.ColumnInfo{ID: id, Name: name, Kind: table.KindInt}
}

func scan(cols ...lplan.ColumnInfo) *lplan.Scan {
	return &lplan.Scan{Table: "t", Cols: cols}
}

func uniform(in lplan.Node, p float64) *lplan.Sample {
	return &lplan.Sample{Input: in, Def: &lplan.SamplerDef{Type: lplan.SamplerUniform, P: p}}
}

func agg(in lplan.Node, groups ...lplan.ColumnID) *lplan.Aggregate {
	infos := make([]lplan.ColumnInfo, len(groups))
	for i, g := range groups {
		infos[i] = col(g, "g")
	}
	return &lplan.Aggregate{
		Input: in, GroupCols: groups, GroupInfo: infos,
		Aggs: []lplan.AggSpec{{Kind: lplan.AggCount, Out: col(99, "cnt")}},
	}
}

// expectRule asserts that exactly the given rules fire (each at least
// once) and nothing else does.
func expectRules(t *testing.T, vs []Violation, rules ...string) {
	t.Helper()
	want := map[string]bool{}
	for _, r := range rules {
		want[r] = false
	}
	for _, v := range vs {
		if _, ok := want[v.Rule]; !ok {
			t.Errorf("unexpected violation %s", v)
			continue
		}
		want[v.Rule] = true
	}
	for r, seen := range want {
		if !seen {
			t.Errorf("expected a %s violation, got %v", r, vs)
		}
	}
}

func TestLogicalCleanPlanPasses(t *testing.T) {
	base := scan(col(1, "a"), col(2, "b"))
	plan := agg(uniform(base, 0.05), 1)
	if vs := New().CheckLogical(plan); len(vs) != 0 {
		t.Fatalf("clean plan flagged: %v", vs)
	}
	if err := Logical(plan); err != nil {
		t.Fatalf("Logical: %v", err)
	}
}

func TestLogicalUncostedSampler(t *testing.T) {
	plan := agg(&lplan.Sample{Input: scan(col(1, "a"))}, 1)
	expectRules(t, New().CheckLogical(plan), "sampler-def")
}

func TestLogicalProbabilityCap(t *testing.T) {
	plan := agg(uniform(scan(col(1, "a")), 0.5), 1)
	expectRules(t, New().CheckLogical(plan), "sampler-p")
}

func TestLogicalSamplerSupport(t *testing.T) {
	s := &lplan.Sample{
		Input: scan(col(1, "a")),
		Def:   &lplan.SamplerDef{Type: lplan.SamplerDistinct, P: 0.05, Cols: []lplan.ColumnID{7}, Delta: 3},
	}
	expectRules(t, New().CheckLogical(agg(s, 1)), "sampler-support")
}

func TestLogicalNestedSamplers(t *testing.T) {
	inner := uniform(scan(col(1, "a")), 0.05)
	outer := uniform(inner, 0.05)
	expectRules(t, New().CheckLogical(agg(outer, 1)), "nested-sampler")
}

func TestLogicalSamplerWithoutAggregate(t *testing.T) {
	plan := &lplan.Sort{Input: uniform(scan(col(1, "a")), 0.05), Keys: []lplan.SortKey{{Col: 1}}}
	expectRules(t, New().CheckLogical(plan), "sampler-dominance")
}

func TestLogicalSortBetweenSamplerAndAggregate(t *testing.T) {
	sorted := &lplan.Sort{Input: uniform(scan(col(1, "a")), 0.05), Keys: []lplan.SortKey{{Col: 1}}}
	expectRules(t, New().CheckLogical(agg(sorted, 1)), "sampler-dominance")
}

func TestLogicalUniversePropagation(t *testing.T) {
	base := scan(col(1, "a"), col(2, "b"))
	univ := &lplan.Sample{
		Input: base,
		Def:   &lplan.SamplerDef{Type: lplan.SamplerUniverse, P: 0.05, Cols: []lplan.ColumnID{2}, Seed: 9},
	}
	// The projection drops column 2, severing the subspace identity.
	proj := &lplan.Project{
		Input: univ,
		Exprs: []lplan.Expr{&lplan.ColRef{ID: 1, Name: "a", Kind: table.KindInt}},
		Cols:  []lplan.ColumnInfo{col(1, "a")},
	}
	expectRules(t, New().CheckLogical(agg(proj, 1)), "universe-propagation")
}

func TestLogicalUniverseGroupDisagreement(t *testing.T) {
	mk := func(p float64, c lplan.ColumnID) *lplan.Sample {
		return &lplan.Sample{
			Input: scan(col(c, "k")),
			Def:   &lplan.SamplerDef{Type: lplan.SamplerUniverse, P: p, Cols: []lplan.ColumnID{c}, Seed: 7},
		}
	}
	j := &lplan.Join{
		Left: mk(0.05, 1), Right: mk(0.02, 2),
		LeftKeys: []lplan.ColumnID{1}, RightKeys: []lplan.ColumnID{2},
	}
	expectRules(t, New().CheckLogical(agg(j, 1)), "universe-group")
}

func TestLogicalUniversePairColumnsMismatch(t *testing.T) {
	// Both sides share seed 7 and probability, but the right side
	// universe-samples a column the join keys do not identify with the
	// left side's.
	left := &lplan.Sample{
		Input: scan(col(1, "k")),
		Def:   &lplan.SamplerDef{Type: lplan.SamplerUniverse, P: 0.05, Cols: []lplan.ColumnID{1}, Seed: 7},
	}
	right := &lplan.Sample{
		Input: scan(col(2, "k"), col(3, "other")),
		Def:   &lplan.SamplerDef{Type: lplan.SamplerUniverse, P: 0.05, Cols: []lplan.ColumnID{3}, Seed: 7},
	}
	j := &lplan.Join{
		Left: left, Right: right,
		LeftKeys: []lplan.ColumnID{1}, RightKeys: []lplan.ColumnID{2},
	}
	expectRules(t, New().CheckLogical(agg(j, 1)), "universe-pair")
}

// threeWayUniverse is q32's shape: a ⋈ U(b) ON a.k=b.k, then ⋈ U(c) ON
// a.k=c.k, both samplers in one subspace. cCol is the column the third
// input universe-samples.
func threeWayUniverse(inner lplan.JoinKind, cCol lplan.ColumnID) lplan.Node {
	univ := func(in lplan.Node, c lplan.ColumnID) *lplan.Sample {
		return &lplan.Sample{
			Input: in,
			Def:   &lplan.SamplerDef{Type: lplan.SamplerUniverse, P: 0.05, Cols: []lplan.ColumnID{c}, Seed: 2},
		}
	}
	ab := &lplan.Join{
		Kind: inner,
		Left: scan(col(1, "ak")), Right: univ(scan(col(2, "bk")), 2),
		LeftKeys: []lplan.ColumnID{1}, RightKeys: []lplan.ColumnID{2},
	}
	return &lplan.Join{
		Left: ab, Right: univ(scan(col(3, "ck"), col(4, "other")), cCol),
		LeftKeys: []lplan.ColumnID{1}, RightKeys: []lplan.ColumnID{3},
	}
}

func TestLogicalUniversePairThroughInnerJoinKeys(t *testing.T) {
	// b.k is no key of the outer join, but the inner join beneath has
	// already equated it with a.k, which is.
	if vs := New().CheckLogical(agg(threeWayUniverse(lplan.InnerJoin, 3), 1)); len(vs) != 0 {
		t.Fatalf("universe samplers paired through an inner equi-join flagged: %v", vs)
	}
	// The third input samples a column no join key reaches.
	expectRules(t, New().CheckLogical(agg(threeWayUniverse(lplan.InnerJoin, 4), 1)), "universe-pair")
	// An outer join beneath pads rows whose keys are not equal.
	expectRules(t, New().CheckLogical(agg(threeWayUniverse(lplan.LeftOuterJoin, 3), 1)), "universe-pair")
}

func TestLogicalWeightedScanNeedsAggregate(t *testing.T) {
	weighted := &lplan.Scan{Table: "t", Cols: []lplan.ColumnInfo{col(1, "a")}, WeightColumn: "_w"}
	plan := &lplan.Limit{Input: weighted, N: 10}
	expectRules(t, New().CheckLogical(plan), "weight-propagation")

	if vs := New().CheckLogical(agg(weighted, 1)); len(vs) != 0 {
		t.Fatalf("weighted scan under aggregate flagged: %v", vs)
	}
}

// --- physical-plan fixtures -----------------------------------------

func ptable() *table.Table {
	return table.New("t", table.NewSchema(table.Column{Name: "a", Kind: table.KindInt}), 1)
}

func pscan(cols ...lplan.ColumnInfo) *exec.PScan {
	idx := make([]int, len(cols))
	return &exec.PScan{Tbl: ptable(), OutCols: cols, ColIdx: idx, WeightIdx: -1}
}

func pagg(in exec.PNode, top bool, groups ...lplan.ColumnID) *exec.PHashAgg {
	infos := make([]lplan.ColumnInfo, len(groups))
	for i, g := range groups {
		infos[i] = col(g, "g")
	}
	return &exec.PHashAgg{
		In: in, GroupCols: groups, GroupInfo: infos,
		Aggs: []lplan.AggSpec{{Kind: lplan.AggCount, Out: col(99, "cnt")}},
		Top:  top,
	}
}

func TestPhysicalCleanPlanPasses(t *testing.T) {
	src := pscan(col(1, "a"))
	samp := &exec.PSample{In: src, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.05}, Seed: 1}
	plan := pagg(&exec.PExchange{In: samp, Keys: []lplan.ColumnID{1}, Parts: 4}, true, 1)
	plan.Est = &exec.EstimatorConfig{Type: lplan.SamplerUniform, P: 0.05}
	if vs := New().CheckPhysical(plan); len(vs) != 0 {
		t.Fatalf("clean physical plan flagged: %v", vs)
	}
	if err := Physical(plan); err != nil {
		t.Fatalf("Physical: %v", err)
	}
}

func TestPhysicalSortNeedsGather(t *testing.T) {
	plan := &exec.PSort{In: pscan(col(1, "a")), Keys: []lplan.SortKey{{Col: 1}}}
	expectRules(t, New().CheckPhysical(plan), "p-breaker")
}

func TestPhysicalAggExchangeKeysMismatch(t *testing.T) {
	src := pscan(col(1, "a"), col(2, "b"))
	plan := pagg(&exec.PExchange{In: src, Keys: []lplan.ColumnID{2}, Parts: 4}, true, 1)
	expectRules(t, New().CheckPhysical(plan), "p-breaker")
}

func TestPhysicalJoinCoPartitioning(t *testing.T) {
	l := pscan(col(1, "a"))
	r := pscan(col(2, "b"))
	j := &exec.PHashJoin{
		Kind: lplan.InnerJoin,
		Left: &exec.PExchange{In: l, Keys: []lplan.ColumnID{1}, Parts: 4},
		// Wrong partition count on the build side.
		Right:    &exec.PExchange{In: r, Keys: []lplan.ColumnID{2}, Parts: 8},
		LeftKeys: []lplan.ColumnID{1}, RightKeys: []lplan.ColumnID{2},
	}
	expectRules(t, New().CheckPhysical(j), "p-breaker")
}

func TestPhysicalExchangeKeyMissing(t *testing.T) {
	plan := &exec.PExchange{In: pscan(col(1, "a")), Keys: []lplan.ColumnID{9}, Parts: 4}
	expectRules(t, New().CheckPhysical(plan), "p-exchange")
}

func TestPhysicalEstimatorOnNonTopAgg(t *testing.T) {
	inner := pagg(&exec.PExchange{In: pscan(col(1, "a")), Keys: []lplan.ColumnID{1}, Parts: 2}, false, 1)
	inner.Est = &exec.EstimatorConfig{Type: lplan.SamplerUniform, P: 0.05}
	outer := pagg(&exec.PExchange{In: inner, Keys: []lplan.ColumnID{1}, Parts: 2}, true, 1)
	expectRules(t, New().CheckPhysical(outer), "p-estimator")
}

func TestPhysicalSharedUniverseMissing(t *testing.T) {
	mk := func(c lplan.ColumnID) *exec.PSample {
		return &exec.PSample{
			In:  pscan(col(c, "k")),
			Def: lplan.SamplerDef{Type: lplan.SamplerUniverse, P: 0.05, Cols: []lplan.ColumnID{c}, Seed: 7},
		}
	}
	j := &exec.PHashJoin{
		Kind: lplan.InnerJoin,
		Left: &exec.PExchange{In: mk(1), Keys: []lplan.ColumnID{1}, Parts: 2},
		Right: &exec.PExchange{
			In: mk(2), Keys: []lplan.ColumnID{2}, Parts: 2,
		},
		LeftKeys: []lplan.ColumnID{1}, RightKeys: []lplan.ColumnID{2},
		// SharedUniverseP left 0: the §4.1.3 weight correction is missing.
	}
	plan := pagg(&exec.PExchange{In: j, Parts: 1}, true)
	expectRules(t, New().CheckPhysical(plan), "p-shared-universe")
}

func TestPhysicalNestedSamplers(t *testing.T) {
	inner := &exec.PSample{In: pscan(col(1, "a")), Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.05}}
	outer := &exec.PSample{In: inner, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.05}}
	plan := pagg(&exec.PExchange{In: outer, Parts: 1}, true)
	expectRules(t, New().CheckPhysical(plan), "p-nested-sampler")
}

func TestPhysicalWeightPropagation(t *testing.T) {
	ws := pscan(col(1, "a"))
	ws.WeightIdx = 0
	plan := &exec.PLimit{In: &exec.PExchange{In: ws, Parts: 1}, N: 5}
	expectRules(t, New().CheckPhysical(plan), "p-weight-propagation")
}

func TestPhysicalSamplerProbabilityCap(t *testing.T) {
	s := &exec.PSample{In: pscan(col(1, "a")), Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.9}}
	plan := pagg(&exec.PExchange{In: s, Parts: 1}, true)
	expectRules(t, New().CheckPhysical(plan), "p-sampler-p")
}

func TestViolationFormatting(t *testing.T) {
	err := asError([]Violation{{Rule: "r", Node: "n", Detail: "d"}})
	if err == nil || !strings.Contains(err.Error(), "r: n: d") {
		t.Fatalf("asError formatting: %v", err)
	}
	withPath := Violation{Rule: "r", Node: "n", Detail: "d", Path: "Root > n"}
	if got := withPath.String(); got != "r: n: d (path: Root > n)" {
		t.Fatalf("path formatting: %q", got)
	}
}

// TestLogicalViolationPath: a violation reported deep in the plan
// carries the full root→node operator chain, so two look-alike
// operators in different branches are distinguishable.
func TestLogicalViolationPath(t *testing.T) {
	base := scan(col(1, "a"))
	s := uniform(base, 0.5) // probability above the cap
	plan := agg(s, 1)
	vs := New().CheckLogical(plan)
	expectRules(t, vs, "sampler-p")
	wantPath := plan.Describe() + " > " + s.Describe()
	if vs[0].Path != wantPath {
		t.Errorf("violation path %q, want %q", vs[0].Path, wantPath)
	}
	if !strings.Contains(vs[0].String(), "(path: "+wantPath+")") {
		t.Errorf("String() does not include the path: %s", vs[0])
	}
}

// TestPhysicalViolationPath: same contract on the compiled plan.
func TestPhysicalViolationPath(t *testing.T) {
	src := pscan(col(1, "a"))
	samp := &exec.PSample{In: src, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.5}, Seed: 1}
	ex := &exec.PExchange{In: samp, Keys: []lplan.ColumnID{1}, Parts: 4}
	plan := pagg(ex, true, 1)
	plan.Est = &exec.EstimatorConfig{Type: lplan.SamplerUniform, P: 0.05}
	vs := New().CheckPhysical(plan)
	expectRules(t, vs, "p-sampler-p")
	wantPath := strings.Join([]string{plan.Describe(), ex.Describe(), samp.Describe()}, " > ")
	if vs[0].Path != wantPath {
		t.Errorf("violation path %q, want %q", vs[0].Path, wantPath)
	}
}

// TestCleanPlanBuildsNoPathMap: the root→node path map exists only to
// annotate violations, so a clean plan (every plan the engine prepares
// in normal operation) never builds one.
func TestCleanPlanBuildsNoPathMap(t *testing.T) {
	plan := agg(uniform(scan(col(1, "a")), 0.05), 1)
	annotatePaths(New().CheckLogical(plan), lplan.Node(plan), func(lplan.Node) map[any]string {
		t.Fatal("clean logical plan built a path map")
		return nil
	})
	samp := &exec.PSample{In: pscan(col(1, "a")), Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.05}, Seed: 1}
	pplan := pagg(&exec.PExchange{In: samp, Keys: []lplan.ColumnID{1}, Parts: 4}, true, 1)
	pplan.Est = &exec.EstimatorConfig{Type: lplan.SamplerUniform, P: 0.05}
	annotatePaths(New().CheckPhysical(pplan), exec.PNode(pplan), func(exec.PNode) map[any]string {
		t.Fatal("clean physical plan built a path map")
		return nil
	})
}
