package lplan

import (
	"fmt"
	"strings"
)

// SamplerType enumerates the physical sampler implementations (§4.1).
type SamplerType int

// Sampler types. SamplerPassThrough is the "do not sample" fallback the
// costing step may choose (§4.2.6).
const (
	SamplerUniform SamplerType = iota
	SamplerDistinct
	SamplerUniverse
	SamplerPassThrough
)

func (t SamplerType) String() string {
	switch t {
	case SamplerUniform:
		return "UNIFORM"
	case SamplerDistinct:
		return "DISTINCT"
	case SamplerUniverse:
		return "UNIVERSE"
	case SamplerPassThrough:
		return "PASSTHROUGH"
	}
	return "?"
}

// CostPerRow is the sampler's relative CPU cost of examining one row
// (§A), in the cost model's CPU units: the optimizer's plan choice and
// the executor's simulated charge both read it. A pass-through costs
// nothing, the uniform sampler tosses a coin, the universe sampler
// computes a cryptographic hash and the distinct sampler updates a
// sketch and, past δ, its reservoirs.
func (t SamplerType) CostPerRow() float64 {
	switch t {
	case SamplerUniverse:
		return 3
	case SamplerDistinct:
		return 5
	case SamplerPassThrough:
		return 0
	}
	return 1
}

// SamplerState is the logical state of a sampler during exploration
// (§4.2.1): {S, U, ds, sfm}.
//
//   - Strat (S): columns the sampler must stratify on so that no group in
//     the answer is missed.
//   - Univ (U): columns the sampler must universe-sample on so that join
//     subspaces line up.
//   - DS: downstream selectivity — the probability that a row passed by
//     this sampler reaches the answer (shrinks as the sampler is pushed
//     below selective operators without stratifying on their columns).
//   - SFM: stratification frequency multiplier — corrects group-support
//     estimates when stratification columns are replaced by join keys
//     with a different number of distinct values (§4.2.4).
type SamplerState struct {
	Strat ColSet
	Univ  ColSet
	DS    float64
	SFM   float64
}

// NewSamplerState returns the optimistic initial state used at seeding
// time (§4.2.2): U=∅, ds=1, sfm=1.
func NewSamplerState(strat ColSet) SamplerState {
	if strat == nil {
		strat = ColSet{}
	}
	return SamplerState{Strat: strat, Univ: ColSet{}, DS: 1, SFM: 1}
}

// Clone deep-copies the state.
func (s SamplerState) Clone() SamplerState {
	return SamplerState{
		Strat: s.Strat.Union(ColSet{}),
		Univ:  s.Univ.Union(ColSet{}),
		DS:    s.DS,
		SFM:   s.SFM,
	}
}

func (s SamplerState) String() string {
	return fmt.Sprintf("{S=%s U=%s ds=%.3g sfm=%.3g}", s.Strat, s.Univ, s.DS, s.SFM)
}

// SamplerDef is the physical realisation chosen by costing (§4.2.6).
type SamplerDef struct {
	Type SamplerType
	// P is the row/subspace pass probability (≤ 0.1 per §4.2.6).
	P float64
	// Cols: stratification columns for DISTINCT; universe columns for
	// UNIVERSE; unused for UNIFORM.
	Cols []ColumnID
	// Delta is the per-distinct-value guaranteed row count for DISTINCT.
	Delta int
	// BucketCols/BucketWidths stratify on ⌈col/width⌉ rather than the
	// raw column — the paper's "stratification over functions of
	// columns" (§4.1.2), used for value-skewed SUM arguments so rare
	// extreme values survive sampling.
	BucketCols   []ColumnID
	BucketWidths []float64
	// Seed feeds the hash so related universe samplers pick the same
	// subspace; planning assigns one seed per universe column set.
	Seed uint64
}

func (d SamplerDef) String() string {
	switch d.Type {
	case SamplerUniform:
		return fmt.Sprintf("UNIFORM(p=%.3g)", d.P)
	case SamplerDistinct:
		if len(d.BucketCols) > 0 {
			return fmt.Sprintf("DISTINCT(p=%.3g, cols=%v, buckets=%v/%v, delta=%d)",
				d.P, d.Cols, d.BucketCols, d.BucketWidths, d.Delta)
		}
		return fmt.Sprintf("DISTINCT(p=%.3g, cols=%v, delta=%d)", d.P, d.Cols, d.Delta)
	case SamplerUniverse:
		return fmt.Sprintf("UNIVERSE(p=%.3g, cols=%v, seed=%d)", d.P, d.Cols, d.Seed)
	default:
		return "PASSTHROUGH"
	}
}

// Sample is the logical sampler operator Γ. During exploration only
// State is meaningful; after costing, Def holds the chosen physical
// sampler. Output columns equal input columns plus the implicit weight
// column, which is tracked out-of-band by the executor (paper §4.1:
// "each sampler appends a metadata column representing the weight").
type Sample struct {
	Input Node
	State SamplerState
	Def   *SamplerDef // nil until costed
}

// Columns implements Node.
func (s *Sample) Columns() []ColumnInfo { return s.Input.Columns() }

// Children implements Node.
func (s *Sample) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Sample) WithChildren(ch []Node) Node {
	c := *s
	c.Input = ch[0]
	return &c
}

// Describe implements Node.
func (s *Sample) Describe() string {
	var b strings.Builder
	b.WriteString("Sample ")
	b.WriteString(s.State.String())
	if s.Def != nil {
		b.WriteString(" => " + s.Def.String())
	}
	return b.String()
}

// FindSamplers returns all Sample nodes in the plan in pre-order.
func FindSamplers(n Node) []*Sample {
	var out []*Sample
	Walk(n, func(x Node) {
		if s, ok := x.(*Sample); ok {
			out = append(out, s)
		}
	})
	return out
}
