package exec

import (
	"fmt"
	"strings"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

// PNode is a physical plan operator. The physical planner (internal/opt)
// decides join strategies, exchange placement and degrees of parallelism
// and emits this algebra; the executor runs it.
type PNode interface {
	Cols() []lplan.ColumnInfo
	Kids() []PNode
	Describe() string
	// Breaker reports whether the operator is a pipeline breaker: it
	// must see (or hand off) whole partitions and therefore materializes
	// its input, ending the fused streaming pipeline below it. Scans,
	// filters, projections and samplers stream batch-at-a-time and
	// return false; exchanges, joins, aggregations, sorts, limits,
	// unions and windows return true. The planner and executor both key
	// off this marker, so stages map one-to-one onto fused pipelines.
	Breaker() bool
}

// PScan reads a base table, one task per stored partition. ColIdx
// projects stored rows onto the (possibly pruned) output columns.
type PScan struct {
	Tbl     *table.Table
	OutCols []lplan.ColumnInfo
	ColIdx  []int
	// WeightIdx, when ≥0, names the stored column holding per-row
	// sampling weights (apriori samples); it is consumed into the row
	// weight rather than projected.
	WeightIdx int
}

// Cols implements PNode.
func (p *PScan) Cols() []lplan.ColumnInfo { return p.OutCols }

// Kids implements PNode.
func (p *PScan) Kids() []PNode { return nil }

// Describe implements PNode.
func (p *PScan) Describe() string { return "Scan " + p.Tbl.Name }

// Breaker implements PNode.
func (p *PScan) Breaker() bool { return false }

// PFilter applies a predicate.
type PFilter struct {
	In   PNode
	Pred lplan.Expr
}

// Cols implements PNode.
func (p *PFilter) Cols() []lplan.ColumnInfo { return p.In.Cols() }

// Kids implements PNode.
func (p *PFilter) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PFilter) Describe() string { return "Filter " + p.Pred.String() }

// Breaker implements PNode.
func (p *PFilter) Breaker() bool { return false }

// PProject computes expressions.
type PProject struct {
	In      PNode
	Exprs   []lplan.Expr
	OutCols []lplan.ColumnInfo
}

// Cols implements PNode.
func (p *PProject) Cols() []lplan.ColumnInfo { return p.OutCols }

// Kids implements PNode.
func (p *PProject) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PProject) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Breaker implements PNode.
func (p *PProject) Breaker() bool { return false }

// PSample runs a physical sampler over its input, in place in the
// current stage (samplers are streaming and partitionable, §4.1).
type PSample struct {
	In  PNode
	Def lplan.SamplerDef
	// Seed differentiates sampler instances between plan locations; the
	// per-partition instance seed is Seed^partition except for universe
	// samplers which must agree across instances and locations.
	Seed uint64
}

// Cols implements PNode.
func (p *PSample) Cols() []lplan.ColumnInfo { return p.In.Cols() }

// Kids implements PNode.
func (p *PSample) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PSample) Describe() string { return "Sample " + p.Def.String() }

// Breaker implements PNode.
func (p *PSample) Breaker() bool { return false }

// PExchange repartitions its input. With Keys it hash-partitions into
// Parts partitions; without Keys it gathers (Parts=1) or round-robins.
// Exchanges are the stage boundaries of the cluster simulation: input
// tasks write their output (intermediate data) and the data crosses the
// network (shuffled data).
type PExchange struct {
	In    PNode
	Keys  []lplan.ColumnID
	Parts int
}

// Cols implements PNode.
func (p *PExchange) Cols() []lplan.ColumnInfo { return p.In.Cols() }

// Kids implements PNode.
func (p *PExchange) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PExchange) Describe() string {
	if len(p.Keys) == 0 {
		return fmt.Sprintf("Exchange gather(parts=%d)", p.Parts)
	}
	return fmt.Sprintf("Exchange hash%v parts=%d", p.Keys, p.Parts)
}

// Breaker implements PNode.
func (p *PExchange) Breaker() bool { return true }

// routed reports whether rows of one source partition go to several
// destinations; otherwise whole partitions move.
func (p *PExchange) routed() bool { return len(p.Keys) > 0 && p.Parts > 1 }

// PHashJoin joins Left and Right. The Right side is always the build
// side. Broadcast=true gathers and replicates the build side to every
// probe task (for small/dimension inputs); otherwise the planner has
// co-partitioned both inputs on the join keys with exchanges.
type PHashJoin struct {
	Kind      lplan.JoinKind
	Left      PNode
	Right     PNode
	LeftKeys  []lplan.ColumnID
	RightKeys []lplan.ColumnID
	Residual  lplan.Expr
	Broadcast bool
	// SharedUniverseP is set (to the sampling probability p) when both
	// inputs carry the same universe sampler: the joined weight is then
	// corrected from 1/p² to 1/p, because the join of two p-probability
	// universe samples is a p-probability sample of the join (§4.1.3).
	SharedUniverseP float64
}

// Cols implements PNode.
func (p *PHashJoin) Cols() []lplan.ColumnInfo {
	out := append([]lplan.ColumnInfo{}, p.Left.Cols()...)
	return append(out, p.Right.Cols()...)
}

// Kids implements PNode.
func (p *PHashJoin) Kids() []PNode { return []PNode{p.Left, p.Right} }

// Describe implements PNode.
func (p *PHashJoin) Describe() string {
	mode := "shuffle"
	if p.Broadcast {
		mode = "broadcast"
	}
	return fmt.Sprintf("HashJoin(%s,%s) %v=%v", p.Kind, mode, p.LeftKeys, p.RightKeys)
}

// Breaker implements PNode.
func (p *PHashJoin) Breaker() bool { return true }

// EstimatorConfig tells the final aggregation how to compute confidence
// intervals: the dominance analysis (§4.3) reduces the sampled plan to a
// single equivalent sampler at the root, described here.
type EstimatorConfig struct {
	Type lplan.SamplerType
	// P is the effective end-to-end sampling probability.
	P float64
	// UniverseCols are the universe-sampled columns (group variance is
	// computed over subspace subgroups; COUNT DISTINCT over these columns
	// is scaled up by 1/P, Table 8).
	UniverseCols []lplan.ColumnID
}

// PHashAgg groups and aggregates. The planner co-partitions input on
// the group columns (or gathers when there are none). When Est is set,
// aggregates are Horvitz–Thompson estimates with variance tracking.
type PHashAgg struct {
	In        PNode
	GroupCols []lplan.ColumnID
	GroupInfo []lplan.ColumnInfo
	Aggs      []lplan.AggSpec
	Est       *EstimatorConfig
	// Top marks the aggregate whose estimates are exposed on the result.
	Top bool
}

// Cols implements PNode.
func (p *PHashAgg) Cols() []lplan.ColumnInfo {
	out := append([]lplan.ColumnInfo{}, p.GroupInfo...)
	for _, a := range p.Aggs {
		out = append(out, a.Out)
	}
	return out
}

// Kids implements PNode.
func (p *PHashAgg) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PHashAgg) Describe() string {
	parts := make([]string, len(p.Aggs))
	for i, a := range p.Aggs {
		parts[i] = a.Kind.String()
	}
	d := fmt.Sprintf("HashAgg group=%v aggs=[%s]", p.GroupCols, strings.Join(parts, ","))
	if p.Est != nil {
		d += fmt.Sprintf(" est=%s(p=%.3g)", p.Est.Type, p.Est.P)
	}
	return d
}

// Breaker implements PNode.
func (p *PHashAgg) Breaker() bool { return true }

// PSort sorts (the planner gathers to one partition first).
type PSort struct {
	In   PNode
	Keys []lplan.SortKey
}

// Cols implements PNode.
func (p *PSort) Cols() []lplan.ColumnInfo { return p.In.Cols() }

// Kids implements PNode.
func (p *PSort) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PSort) Describe() string { return fmt.Sprintf("Sort %v", p.Keys) }

// Breaker implements PNode.
func (p *PSort) Breaker() bool { return true }

// PLimit truncates to N rows (applied on a single partition).
type PLimit struct {
	In PNode
	N  int64
}

// Cols implements PNode.
func (p *PLimit) Cols() []lplan.ColumnInfo { return p.In.Cols() }

// Kids implements PNode.
func (p *PLimit) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PLimit) Describe() string { return fmt.Sprintf("Limit %d", p.N) }

// Breaker implements PNode.
func (p *PLimit) Breaker() bool { return true }

// PUnion concatenates inputs positionally.
type PUnion struct {
	Ins     []PNode
	OutCols []lplan.ColumnInfo
}

// Cols implements PNode.
func (p *PUnion) Cols() []lplan.ColumnInfo { return p.OutCols }

// Kids implements PNode.
func (p *PUnion) Kids() []PNode { return p.Ins }

// Describe implements PNode.
func (p *PUnion) Describe() string { return fmt.Sprintf("UnionAll(%d)", len(p.Ins)) }

// Breaker implements PNode.
func (p *PUnion) Breaker() bool { return true }

// FormatPlan renders the physical plan as an indented tree.
func FormatPlan(n PNode) string {
	var b strings.Builder
	var rec func(PNode, int)
	rec = func(n PNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, k := range n.Kids() {
			rec(k, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// WalkP visits the physical plan in pre-order.
func WalkP(n PNode, fn func(PNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, k := range n.Kids() {
		WalkP(k, fn)
	}
}
