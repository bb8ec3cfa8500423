package opt

// Rule registry: every optimizer rewrite — the logical normalization
// rules of normalize.go and the physical pass of samplecache.go — is
// registered here under a stable name. The registry is the contract
// with the rewrite-soundness prover (internal/opt/soundness): the
// prover iterates Rules() and proves, over seeded randomized plans,
// that each rule preserves the plancheck invariants and the symbolic
// per-aggregate weight algebra. The prover's registry-completeness test
// parses normalize.go and samplecache.go, so adding a rewrite
// function without registering it here fails CI — an unregistered rule
// is an unproven rule.

import (
	"quickr/internal/exec"
	"quickr/internal/lplan"
)

// RuleKind classifies rewrites by the algebra they act on.
type RuleKind int

const (
	// LogicalRule rewrites a logical plan functionally
	// (lplan.Node → lplan.Node); Normalize applies these in registry
	// order.
	LogicalRule RuleKind = iota
	// PhysicalRule mutates a compiled physical plan in place
	// (Planner pass over exec.PNode); Planner.Plan applies these after
	// compilation when enabled.
	PhysicalRule
)

func (k RuleKind) String() string {
	if k == PhysicalRule {
		return "physical"
	}
	return "logical"
}

// Rule is one registered optimizer rewrite.
type Rule struct {
	// Name is the stable identifier used in soundness reports.
	Name string
	Kind RuleKind
	// Func is the name of the implementing function in this package;
	// the soundness completeness test matches registry entries against
	// source declarations by it.
	Func string
	// Doc states the soundness argument the prover checks.
	Doc string
	// Logical applies a LogicalRule. The estimator argument is ignored
	// by rules that do not consult statistics.
	Logical func(lplan.Node, *Estimator) lplan.Node
	// Physical applies a PhysicalRule to a compiled plan in place.
	Physical func(*Planner, exec.PNode)
}

// Rules returns every registered rewrite in application order.
func Rules() []Rule {
	return []Rule{
		{
			Name: "push-selections", Kind: LogicalRule, Func: "pushSelections",
			Doc: "splits conjuncts and pushes predicates toward the scans; must not move a predicate below a sampler or past an outer join's null-padding side",
			Logical: func(n lplan.Node, _ *Estimator) lplan.Node {
				return pushSelections(n)
			},
		},
		{
			Name: "prune-columns", Kind: LogicalRule, Func: "pruneColumns",
			Doc: "drops unused columns from scans and projections; must keep sampler stratification/universe/bucket columns and scan weight columns alive",
			Logical: func(n lplan.Node, _ *Estimator) lplan.Node {
				return pruneColumns(n)
			},
		},
		{
			Name: "order-join-inputs", Kind: LogicalRule, Func: "orderJoinInputs",
			Doc:     "swaps inner-join inputs so the smaller side builds the hash table; must mirror the key lists and leave outer/FK joins alone",
			Logical: orderJoinInputs,
		},
		{
			Name: "sample-cache", Kind: PhysicalRule, Func: "applySampleCache",
			Doc: "wraps each cacheable sampler fragment (real sampler over filters/projects over one scan) in a transparent cached-sample node whose key fingerprints the fragment; the fragment stays in place as the miss path, so schema, weights and estimator wiring are unchanged",
			Physical: func(pl *Planner, root exec.PNode) {
				pl.applySampleCache(root)
			},
		},
	}
}
