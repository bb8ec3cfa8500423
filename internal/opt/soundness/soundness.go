// Package soundness proves the optimizer's rewrite rules sound over
// seeded randomized plans. For every registered rule (opt.Rules) it
// generates legal-by-construction logical plans, applies the rule, and
// checks that the rewrite preserved
//
//   - the plan's root schema (same columns, same order),
//   - the symbolic per-aggregate weight algebra (algebra.go): the
//     multiset of samplers and weighted scans feeding each aggregate,
//     which determines the Horvitz–Thompson expectation,
//   - every plancheck invariant (sampler defs, dominance, universe
//     pairing, weight propagation), and
//   - idempotence: a normalization rule must be a no-op on its own
//     output, or Normalize's single pass leaves plans half-rewritten.
//
// Physical rules are checked on the compiled plan with plancheck's
// physical suite. The sample-cache rewrite is proven through it
// (plancheck's p-cached-sample invariant pins each cached node's key
// and sampler probability to the fragment it replaced) plus key
// determinism: a recompilation from the same seed must produce
// identical cache keys, or warm runs could replay a different sampler's
// output.
//
// The prover is wired into `quickrlint -soundness N`, `make lint`, and
// CI (500 plans per push, 5000 nightly); soundness_test.go additionally
// proves completeness (every rewrite function in normalize.go and
// samplecache.go is registered) and sensitivity (planted unsound rules
// are caught).
package soundness

import (
	"fmt"

	"quickr/internal/cluster"
	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/opt"
	"quickr/internal/plancheck"
)

// DefaultPlans is the per-rule sweep size CI runs on every push; the
// nightly job raises it via QUICKR_SOUNDNESS_PLANS.
const DefaultPlans = 500

// Problem is one soundness violation found during a sweep.
type Problem struct {
	// Seed regenerates the offending plan via the same generator.
	Seed uint64
	// Rule is the registry name of the rule that broke the invariant
	// ("generator" / "compile" for failures outside any rule).
	Rule string
	// Detail states the broken invariant.
	Detail string
}

func (p Problem) String() string {
	return fmt.Sprintf("seed %d: rule %s: %s", p.Seed, p.Rule, p.Detail)
}

// Stats aggregates a sweep, including the non-vacuity counters the
// tests assert on: a rule that never fires on any generated plan is
// not being proven sound, only left unexercised.
type Stats struct {
	Plans    int
	Sampled  int // plans carrying a real sampler
	Weighted int // plans with an apriori-weighted scan
	// RuleChanged counts, per registry rule, the plans the rule
	// rewrote (logical: plan text changed; physical: cached-sample
	// wrappers appeared).
	RuleChanged map[string]int
	Problems    []Problem
}

// Summary renders the sweep counters on one line.
func (s Stats) Summary() string {
	per := ""
	for _, r := range opt.Rules() {
		per += fmt.Sprintf(" %s=%d", r.Name, s.RuleChanged[r.Name])
	}
	return fmt.Sprintf("%d plans (%d sampled, %d weighted), %d problem(s); rewrites:%s",
		s.Plans, s.Sampled, s.Weighted, len(s.Problems), per)
}

// Sweep proves every registered rule over n seeded plans starting at
// base. Sequential seeds are deliberate: a reported seed replays with
// CheckSeed(seed, ...) and nothing else.
func Sweep(n int, base uint64) Stats {
	st := Stats{RuleChanged: map[string]int{}}
	for i := 0; i < n; i++ {
		CheckSeed(base+uint64(i), &st)
	}
	return st
}

// CheckSeed generates the plan for one seed and proves every registered
// rule on it, appending problems and counters to st.
func CheckSeed(seed uint64, st *Stats) {
	if st.RuleChanged == nil {
		st.RuleChanged = map[string]int{}
	}
	report := func(rule, format string, args ...any) {
		st.Problems = append(st.Problems, Problem{Seed: seed, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	root, info := genPlan(seed)
	st.Plans++
	if info.samplerP > 0 {
		st.Sampled++
	}
	if info.weighted {
		st.Weighted++
	}
	ck := plancheck.New()
	if vs := ck.CheckLogical(root); len(vs) > 0 {
		// A dirty input would misattribute every later violation, so a
		// generator bug fails loudly and skips the rules.
		report("generator", "generated plan not clean: %s", vs[0])
		return
	}

	est := opt.NewEstimator(sharedCatalog())
	cur := root
	for _, r := range opt.Rules() {
		if r.Kind != opt.LogicalRule {
			continue
		}
		rule := r // capture
		after, probs := CheckLogicalRewrite(cur, func(n lplan.Node) lplan.Node {
			return rule.Logical(n, est)
		})
		for _, p := range probs {
			report(r.Name, "%s", p)
		}
		if len(probs) > 0 {
			return // downstream rules would inherit the broken plan
		}
		if lplan.Format(after) != lplan.Format(cur) {
			st.RuleChanged[r.Name]++
		}
		cur = after
	}

	// Physical half: compile the normalized plan, prove it clean and
	// apply each physical rule.
	compile := func() (*opt.Planner, exec.PNode, error) {
		cm := opt.NewCostModel(est, cluster.DefaultConfig())
		pl := &opt.Planner{CM: cm, EstCfg: estCfg(info), Seed: seed}
		p, err := pl.Plan(cur)
		return pl, p, err
	}
	pl, proot, err := compile()
	if err != nil {
		report("compile", "physical compilation failed: %v", err)
		return
	}
	if vs := ck.CheckPhysical(proot); len(vs) > 0 {
		report("compile", "compiled plan not clean before physical rules: %s", vs[0])
		return
	}
	for _, r := range opt.Rules() {
		if r.Kind != opt.PhysicalRule {
			continue
		}
		// Physical rules mutate the plan in place, so "did it fire?" is
		// detected by the rule's marker nodes — cached-sample wrappers —
		// appearing.
		before := len(cachedSamples(proot))
		r.Physical(pl, proot)
		for _, v := range ck.CheckPhysical(proot) {
			report(r.Name, "invariant broken: %s", v)
		}
		if len(cachedSamples(proot)) > before {
			st.RuleChanged[r.Name]++
		}
	}
	if len(cachedSamples(proot)) > 0 {
		// Determinism: the same seed must reproduce the same cache keys —
		// they gate warm replays, so a replay that keys differently could
		// serve another sampler's rows from the cache.
		pl2, proot2, err2 := compile()
		if err2 != nil {
			report("sample-cache", "replay compilation failed: %v", err2)
			return
		}
		for _, r := range opt.Rules() {
			if r.Kind == opt.PhysicalRule {
				r.Physical(pl2, proot2)
			}
		}
		if d := cachedDiff(proot, proot2); d != "" {
			report("sample-cache", "cache keying not deterministic: %s", d)
		}
	}
}

// CheckLogicalRewrite applies one logical rewrite to a plancheck-clean
// plan and returns the rewritten plan plus the soundness invariants it
// broke. It is exported so the mutation tests can prove the prover
// catches deliberately unsound rules.
func CheckLogicalRewrite(before lplan.Node, apply func(lplan.Node) lplan.Node) (lplan.Node, []string) {
	var probs []string
	after := apply(before)
	if after == nil {
		return before, []string{"rewrite returned a nil plan"}
	}
	bc, ac := before.Columns(), after.Columns()
	if len(bc) != len(ac) {
		probs = append(probs, fmt.Sprintf("root schema changed: %d columns became %d", len(bc), len(ac)))
	} else {
		for i := range bc {
			if bc[i].ID != ac[i].ID {
				probs = append(probs, fmt.Sprintf("root column %d changed: #%d became #%d", i, bc[i].ID, ac[i].ID))
				break
			}
		}
	}
	if d := sigDiff(weightSig(before), weightSig(after)); d != "" {
		probs = append(probs, "weight algebra changed: "+d)
	}
	for _, v := range plancheck.New().CheckLogical(after) {
		probs = append(probs, "invariant broken: "+v.String())
	}
	again := apply(after)
	if again == nil || lplan.Format(again) != lplan.Format(after) {
		probs = append(probs, "not idempotent: second application rewrote the plan again")
	}
	return after, probs
}

// estCfg builds the estimator config the optimizer would hand the
// physical planner for the generated plan: nil for unsampled plans.
func estCfg(info *genInfo) *exec.EstimatorConfig {
	if info.samplerP <= 0 {
		return nil
	}
	return &exec.EstimatorConfig{
		Type:         info.samplerType,
		P:            info.samplerP,
		UniverseCols: append([]lplan.ColumnID{}, info.universeCols...),
	}
}

// cachedSamples returns the cached-sample wrappers in a compiled plan.
func cachedSamples(root exec.PNode) []*exec.PCachedSample {
	var out []*exec.PCachedSample
	exec.WalkP(root, func(n exec.PNode) {
		if cs, ok := n.(*exec.PCachedSample); ok {
			out = append(out, cs)
		}
	})
	return out
}

// cachedDiff compares the cached-sample rewrites of two compilations of
// the same plan, returning the first difference or "". Keys must match
// exactly: the key is the only thing standing between a warm query and
// someone else's materialized sample.
func cachedDiff(a, b exec.PNode) string {
	ca, cb := cachedSamples(a), cachedSamples(b)
	if len(ca) != len(cb) {
		return fmt.Sprintf("%d cached fragments vs %d on replay", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Key != cb[i].Key {
			return fmt.Sprintf("fragment %d keyed %q vs %q on replay", i, ca[i].Key, cb[i].Key)
		}
		if ca[i].SamplerP != cb[i].SamplerP {
			return fmt.Sprintf("fragment %d sampler p=%g vs %g on replay", i, ca[i].SamplerP, cb[i].SamplerP)
		}
	}
	return ""
}
