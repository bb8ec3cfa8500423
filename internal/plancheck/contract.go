package plancheck

import (
	"quickr/internal/exec"
	"quickr/internal/lplan"
)

// Contract-specific checks and checker-scoped error wrappers. The
// engine plans under its configured probability cap, raised to the
// rung during contract escalation (a ladder rung can exceed the paper's
// 0.1 default), so it builds a Checker with that MaxP and calls these
// instead of the package-level Logical/Physical.

// LogicalError checks a logical plan with this checker's configuration
// and returns all violations joined into one error, or nil.
func (c *Checker) LogicalError(n lplan.Node) error { return asError(c.CheckLogical(n)) }

// PhysicalError checks a physical plan with this checker's
// configuration and returns all violations joined into one error, or
// nil.
func (c *Checker) PhysicalError(p exec.PNode) error { return asError(c.CheckPhysical(p)) }

// CheckContract verifies the invariant specific to contract-bearing
// plans: a sampled physical plan answering an error contract must carry
// an estimator on its top aggregate, because the contract check
// compares realized per-group CI bounds — without an estimator there
// are no bounds to compare and the contract silently becomes
// unenforceable.
func (c *Checker) CheckContract(root exec.PNode) []Violation {
	var vs []Violation
	if root == nil {
		return vs
	}
	sampled := false
	exec.WalkP(root, func(n exec.PNode) {
		if s, ok := n.(*exec.PSample); ok &&
			s.Def.Type != lplan.SamplerPassThrough && s.Def.P > 0 && s.Def.P < 1 {
			sampled = true
		}
	})
	if !sampled {
		return vs
	}
	hasEst := false
	exec.WalkP(root, func(n exec.PNode) {
		if a, ok := n.(*exec.PHashAgg); ok && a.Top && a.Est != nil {
			hasEst = true
		}
	})
	if !hasEst {
		vs = append(vs, Violation{
			Rule: "contract-estimator",
			Node: "plan",
			Detail: "sampled contract plan carries no estimator on its top aggregate: " +
				"realized CI bounds cannot be computed, so the contract cannot be checked",
		})
	}
	return vs
}

// ContractError wraps CheckContract's violations into one error, or
// nil.
func (c *Checker) ContractError(root exec.PNode) error { return asError(c.CheckContract(root)) }
