package soundness

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/opt"
	"quickr/internal/plancheck"
)

// sweepN returns the sweep size: QUICKR_SOUNDNESS_PLANS when set (the
// nightly CI job raises it to 5000), else DefaultPlans.
func sweepN(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("QUICKR_SOUNDNESS_PLANS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("QUICKR_SOUNDNESS_PLANS=%q is not a positive integer", v)
		}
		return n
	}
	if testing.Short() {
		return 60
	}
	return DefaultPlans
}

// TestSoundnessSweep is the prover's CI entry point: every registered
// rule over sweepN seeded plans, with non-vacuity assertions so a rule
// the generator never triggers cannot silently pass as "sound".
func TestSoundnessSweep(t *testing.T) {
	n := sweepN(t)
	st := Sweep(n, 1)
	t.Logf("soundness: %s", st.Summary())
	for _, p := range st.Problems {
		t.Errorf("%s", p)
	}
	if st.Plans != n {
		t.Errorf("swept %d plans, want %d", st.Plans, n)
	}
	if st.Sampled < n/10 {
		t.Errorf("only %d of %d plans carried a sampler: generator coverage collapsed", st.Sampled, n)
	}
	if st.Weighted == 0 {
		t.Errorf("no plan used an apriori-weighted scan: weight-propagation checks are vacuous")
	}
	for _, r := range opt.Rules() {
		if st.RuleChanged[r.Name] == 0 {
			t.Errorf("rule %s never rewrote any of %d plans: its soundness proof is vacuous", r.Name, n)
		}
	}
}

// TestRegistryComplete parses the optimizer sources and proves the rule
// registry complete in both directions: every rewrite-shaped function
// in normalize.go (func(lplan.Node) lplan.Node, optionally with an
// *Estimator) and every Planner pass in samplecache.go (method taking
// an exec.PNode) must be registered in opt.Rules(), and every
// registered Func must still exist in the sources. Adding a rewrite
// without registering it — leaving it unproven — fails here.
func TestRegistryComplete(t *testing.T) {
	found := map[string]bool{}
	for _, fn := range rewriteFuncs(t, "../normalize.go") {
		found[fn] = true
	}
	for _, fn := range plannerPasses(t, "../samplecache.go") {
		found[fn] = true
	}
	registered := map[string]bool{}
	for _, r := range opt.Rules() {
		if registered[r.Func] {
			t.Errorf("rule %s: function %s registered twice", r.Name, r.Func)
		}
		registered[r.Func] = true
		if r.Name == "" || r.Doc == "" {
			t.Errorf("rule for %s must carry a name and a soundness doc", r.Func)
		}
		switch r.Kind {
		case opt.LogicalRule:
			if r.Logical == nil {
				t.Errorf("logical rule %s has no Logical closure", r.Name)
			}
		case opt.PhysicalRule:
			if r.Physical == nil {
				t.Errorf("physical rule %s has no Physical closure", r.Name)
			}
		}
	}
	for fn := range found {
		if !registered[fn] {
			t.Errorf("rewrite %s exists in the optimizer sources but is not registered in opt.Rules(): unregistered rules are unproven rules", fn)
		}
	}
	for fn := range registered {
		if !found[fn] {
			t.Errorf("registered rule function %s no longer exists in normalize.go/samplecache.go", fn)
		}
	}
}

// rewriteFuncs returns the top-level functions of file shaped like
// logical rewrites: plan in, plan out, optionally consulting the
// estimator. Normalize itself is the driver that applies the registry,
// not a rule.
func rewriteFuncs(t *testing.T, file string) []string {
	t.Helper()
	var out []string
	for _, fd := range parseFuncs(t, file) {
		if fd.Recv != nil || fd.Name.Name == "Normalize" {
			continue
		}
		params := fd.Type.Params.List
		if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 ||
			typeStr(fd.Type.Results.List[0].Type) != "lplan.Node" {
			continue
		}
		sig := make([]string, 0, len(params))
		for _, p := range params {
			ts := typeStr(p.Type)
			for range p.Names {
				sig = append(sig, ts)
			}
			if len(p.Names) == 0 {
				sig = append(sig, ts)
			}
		}
		switch {
		case len(sig) == 1 && sig[0] == "lplan.Node":
			out = append(out, fd.Name.Name)
		case len(sig) == 2 && sig[0] == "lplan.Node" && sig[1] == "*Estimator":
			out = append(out, fd.Name.Name)
		}
	}
	return out
}

// plannerPasses returns the Planner methods of file that take a
// physical plan — the shape of an in-place physical pass.
func plannerPasses(t *testing.T, file string) []string {
	t.Helper()
	var out []string
	for _, fd := range parseFuncs(t, file) {
		if fd.Recv == nil || len(fd.Recv.List) != 1 || typeStr(fd.Recv.List[0].Type) != "*Planner" {
			continue
		}
		for _, p := range fd.Type.Params.List {
			if typeStr(p.Type) == "exec.PNode" {
				out = append(out, fd.Name.Name)
				break
			}
		}
	}
	return out
}

func parseFuncs(t *testing.T, file string) []*ast.FuncDecl {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			out = append(out, fd)
		}
	}
	return out
}

// typeStr renders the type expressions the matchers care about.
func typeStr(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return "*" + typeStr(x.X)
	case *ast.SelectorExpr:
		return typeStr(x.X) + "." + x.Sel.Name
	case *ast.ArrayType:
		return "[]" + typeStr(x.Elt)
	default:
		return fmt.Sprintf("%T", e)
	}
}

// sampledSeed finds a seed whose plan carries a real sampler.
func sampledSeed(t *testing.T) (uint64, lplan.Node) {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		root, info := genPlan(seed)
		if info.samplerP > 0 {
			return seed, root
		}
	}
	t.Fatal("no sampled plan in 200 seeds")
	return 0, nil
}

// TestProverCatchesSamplerStripping plants the classic unsound rewrite
// — dropping samplers from the plan, which silently turns approximate
// answers into differently-scaled exact ones — and proves the weight
// algebra rejects it.
func TestProverCatchesSamplerStripping(t *testing.T) {
	_, root := sampledSeed(t)
	strip := func(n lplan.Node) lplan.Node {
		var rec func(lplan.Node) lplan.Node
		rec = func(n lplan.Node) lplan.Node {
			if s, ok := n.(*lplan.Sample); ok {
				return rec(s.Input)
			}
			ch := n.Children()
			if len(ch) == 0 {
				return n
			}
			newCh := make([]lplan.Node, len(ch))
			for i, c := range ch {
				newCh[i] = rec(c)
			}
			return n.WithChildren(newCh)
		}
		return rec(n)
	}
	_, probs := CheckLogicalRewrite(root, strip)
	if len(probs) == 0 {
		t.Fatal("sampler-stripping rewrite passed the prover")
	}
}

// TestProverCatchesColumnDrop plants a rewrite that narrows the root
// schema and proves the schema invariant rejects it.
func TestProverCatchesColumnDrop(t *testing.T) {
	root, _ := genPlan(7)
	drop := func(n lplan.Node) lplan.Node {
		cols := n.Columns()
		if len(cols) < 2 {
			return n
		}
		kept := cols[1:]
		exprs := make([]lplan.Expr, len(kept))
		for i, c := range kept {
			exprs[i] = &lplan.ColRef{ID: c.ID, Name: c.Name, Kind: c.Kind}
		}
		return &lplan.Project{Input: n, Exprs: exprs, Cols: kept}
	}
	if len(root.Columns()) < 2 {
		t.Fatal("seed 7 plan has fewer than 2 output columns; pick another seed")
	}
	_, probs := CheckLogicalRewrite(root, drop)
	if len(probs) == 0 {
		t.Fatal("column-dropping rewrite passed the prover")
	}
}

// TestProverCatchesProbabilityTampering plants a rewrite that inflates
// a sampler's probability beyond the §4.2.6 cap and proves the
// plancheck invariants reject it through the prover.
func TestProverCatchesProbabilityTampering(t *testing.T) {
	_, root := sampledSeed(t)
	tamper := func(n lplan.Node) lplan.Node {
		for _, s := range lplan.FindSamplers(n) {
			if s.Def != nil && s.Def.Type != lplan.SamplerPassThrough {
				d := *s.Def
				d.P = 0.5
				s.Def = &d
			}
		}
		return n
	}
	_, probs := CheckLogicalRewrite(root, tamper)
	if len(probs) == 0 {
		t.Fatal("probability-tampering rewrite passed the prover")
	}
}

// TestProverCatchesNonIdempotentRule plants a rule that keeps wrapping
// the plan and proves the idempotence invariant rejects it.
func TestProverCatchesNonIdempotentRule(t *testing.T) {
	root, _ := genPlan(3)
	wrap := func(n lplan.Node) lplan.Node {
		return &lplan.Limit{Input: n, N: 10}
	}
	_, probs := CheckLogicalRewrite(root, wrap)
	if len(probs) == 0 {
		t.Fatal("ever-wrapping rewrite passed the prover")
	}
}

// cachedCompile finds a seed whose compiled plan wraps a sampler
// fragment in a cached-sample node and returns the compiled plan.
func cachedCompile(t *testing.T) exec.PNode {
	t.Helper()
	est := opt.NewEstimator(sharedCatalog())
	for seed := uint64(1); seed < 200; seed++ {
		root, info := genPlan(seed)
		if info.samplerP <= 0 {
			continue
		}
		var norm lplan.Node = root
		for _, r := range opt.Rules() {
			if r.Kind == opt.LogicalRule {
				norm = r.Logical(norm, est)
			}
		}
		pl := &opt.Planner{CM: opt.NewCostModel(est, cluster.DefaultConfig()), EstCfg: estCfg(info), Seed: seed}
		proot, err := pl.Plan(norm)
		if err != nil {
			continue
		}
		for _, r := range opt.Rules() {
			if r.Name == "sample-cache" {
				r.Physical(pl, proot)
			}
		}
		if len(cachedSamples(proot)) > 0 {
			return proot
		}
	}
	t.Fatal("no cached-sample plan in 200 seeds")
	return nil
}

// TestProverCatchesCachedSampleTampering corrupts a cached-sample
// node's key and sampler probability — the two fields a warm replay
// trusts — and proves the plancheck invariant the prover runs after
// every physical rule rejects each corruption.
func TestProverCatchesCachedSampleTampering(t *testing.T) {
	proot := cachedCompile(t)
	ck := plancheck.New()
	if vs := ck.CheckPhysical(proot); len(vs) != 0 {
		t.Fatalf("honest cached plan rejected: %v", vs)
	}
	cs := cachedSamples(proot)[0]

	origP := cs.SamplerP
	cs.SamplerP = origP / 2 // cached rows would carry wrong HT weights
	if vs := ck.CheckPhysical(proot); len(vs) == 0 {
		t.Error("tampered sampler probability passed the physical checks")
	}
	cs.SamplerP = origP

	origKey := cs.Key
	cs.Key = origKey + "|stale" // key no longer fingerprints the fragment
	if vs := ck.CheckPhysical(proot); len(vs) == 0 {
		t.Error("tampered cache key passed the physical checks")
	}
	cs.Key = origKey

	origFrag := cs.Frag
	cs.Frag = nil // no lazy fallback to run on a miss
	if vs := ck.CheckPhysical(proot); len(vs) == 0 {
		t.Error("cached node without a fragment passed the physical checks")
	}
	cs.Frag = origFrag

	if vs := ck.CheckPhysical(proot); len(vs) != 0 {
		t.Fatalf("restored plan rejected: %v", vs)
	}
}

// TestCheckSeedReplays proves a sweep entry is replayable: running the
// same seed twice yields the same problems and counters.
func TestCheckSeedReplays(t *testing.T) {
	var a, b Stats
	for seed := uint64(1); seed < 40; seed++ {
		CheckSeed(seed, &a)
		CheckSeed(seed, &b)
	}
	if a.Summary() != b.Summary() {
		t.Errorf("replay diverged:\n  first:  %s\n  second: %s", a.Summary(), b.Summary())
	}
}
