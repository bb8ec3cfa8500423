package opt

import (
	"math"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
)

// CostModel prices logical plans consistently with the cluster
// simulator, so that the plan ASALQA picks as cheapest really is
// cheapest when executed. The join-strategy and degree-of-parallelism
// decisions live here and are shared with the physical planner.
type CostModel struct {
	Est *Estimator
	Cfg cluster.Config
	// BroadcastBytes is the build-side size threshold below which a
	// broadcast hash join beats a pair (shuffle) join.
	BroadcastBytes float64
	// RowsPerPart sizes exchange partitions; fewer in-flight rows after
	// a sampler means fewer tasks (§A's DOP reduction).
	RowsPerPart float64
	// MaxParts caps the degree of parallelism of any exchange.
	MaxParts int
}

// NewCostModel returns a cost model with the experiment defaults.
func NewCostModel(est *Estimator, cfg cluster.Config) *CostModel {
	return &CostModel{
		Est:            est,
		Cfg:            cfg,
		BroadcastBytes: 1 << 19,
		RowsPerPart:    20000,
		MaxParts:       32,
	}
}

// DOP returns the exchange partition count for an estimated row count.
func (c *CostModel) DOP(rows float64) int {
	p := int(math.Ceil(rows / c.RowsPerPart))
	if p < 1 {
		p = 1
	}
	if p > c.MaxParts {
		p = c.MaxParts
	}
	return p
}

// Broadcast reports whether the join's build (right) side should be
// broadcast rather than shuffling both sides.
func (c *CostModel) Broadcast(j *lplan.Join) bool {
	if len(j.LeftKeys) == 0 {
		return true // cross join has no shuffle keys
	}
	return c.Est.Props(j.Right).Bytes() <= c.BroadcastBytes
}

// Cost estimates the total machine-time of executing n, in the
// simulator's units.
func (c *CostModel) Cost(n lplan.Node) float64 {
	cost, _ := c.cost(n)
	return cost
}

// cost returns (cumulative cost, current pipeline partition count).
func (c *CostModel) cost(n lplan.Node) (float64, int) {
	cfg := c.Cfg
	switch x := n.(type) {
	case *lplan.Scan:
		p := c.Est.Props(x)
		tbl, err := c.Est.Cat.Table(x.Table)
		parts := 8
		if err == nil {
			parts = len(tbl.Partitions)
		}
		cost := float64(parts)*cfg.TaskStartup + p.Rows*cfg.CPURate + p.Bytes()*cfg.IORate
		return cost, parts
	case *lplan.Select:
		in, parts := c.cost(x.Input)
		return in + c.Est.Props(x.Input).Rows*cfg.CPURate, parts
	case *lplan.Project:
		in, parts := c.cost(x.Input)
		rows := c.Est.Props(x.Input).Rows
		return in + rows*(0.5+0.3*float64(len(x.Exprs)))*cfg.CPURate, parts
	case *lplan.Sample:
		in, parts := c.cost(x.Input)
		rows := c.Est.Props(x.Input).Rows
		perRow := lplan.SamplerUniform.CostPerRow()
		if x.Def != nil {
			perRow = x.Def.Type.CostPerRow()
		}
		return in + rows*perRow*cfg.CPURate, parts
	case *lplan.Join:
		return c.costJoin(x)
	case *lplan.Aggregate:
		in, _ := c.cost(x.Input)
		inProps := c.Est.Props(x.Input)
		parts := 1
		if len(x.GroupCols) > 0 {
			parts = c.DOP(inProps.Rows)
		}
		cost := in +
			inProps.Bytes()*(cfg.IORate+cfg.NetRate) + // shuffle to group
			float64(parts)*cfg.TaskStartup +
			inProps.Rows*2*cfg.CPURate
		return cost, parts
	case *lplan.Window:
		in, _ := c.cost(x.Input)
		p := c.Est.Props(x.Input)
		n := math.Max(1, p.Rows)
		parts := 1
		if len(x.Specs) > 0 && len(x.Specs[0].PartitionBy) > 0 {
			parts = c.DOP(p.Rows)
		}
		cost := in + p.Bytes()*(cfg.IORate+cfg.NetRate) + float64(parts)*cfg.TaskStartup +
			2*n*math.Log2(n+1)*cfg.CPURate
		return cost, parts
	case *lplan.Sort:
		in, _ := c.cost(x.Input)
		p := c.Est.Props(x.Input)
		n := math.Max(1, p.Rows)
		cost := in + p.Bytes()*(cfg.IORate+cfg.NetRate) + cfg.TaskStartup + n*math.Log2(n+1)*cfg.CPURate
		return cost, 1
	case *lplan.Limit:
		in, parts := c.cost(x.Input)
		return in, parts
	default:
		total := 0.0
		parts := 0
		for _, ch := range n.Children() {
			ci, p := c.cost(ch)
			total += ci
			parts += p
		}
		if parts == 0 {
			parts = 1
		}
		return total, parts
	}
}

func (c *CostModel) costJoin(j *lplan.Join) (float64, int) {
	cfg := c.Cfg
	lCost, lParts := c.cost(j.Left)
	rCost, _ := c.cost(j.Right)
	lp, rp := c.Est.Props(j.Left), c.Est.Props(j.Right)
	if c.Broadcast(j) {
		// Build side replicated to every probe task; probe pipelined.
		cost := lCost + rCost +
			rp.Bytes()*float64(lParts)*cfg.NetRate +
			(lp.Rows+rp.Rows*float64(lParts))*2*cfg.CPURate
		return cost, lParts
	}
	parts := c.DOP(math.Max(lp.Rows, rp.Rows))
	cost := lCost + rCost +
		(lp.Bytes()+rp.Bytes())*(cfg.IORate+cfg.NetRate) + // shuffle both
		float64(parts)*cfg.TaskStartup +
		(lp.Rows+rp.Rows)*2*cfg.CPURate
	return cost, parts
}
