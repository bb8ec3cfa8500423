package exec

import (
	"fmt"
	"slices"

	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/sampler"
)

// This file is the partition-independent setup of the streaming
// execution core: scan→filter→project→sample chains between pipeline
// breakers run as one fused, batch-at-a-time pipeline per partition
// (samplers are one-pass streaming operators, §4.1, so nothing in such
// a chain ever needs the whole intermediate result in memory). A
// broadcast hash join's probe is a chain operator too: its build side
// is the breaker, so a star join streams the fact table through every
// dimension probe. Only breakers — exchange, hash-join build, hash
// aggregation, sort, limit, union barriers, window — hold whole
// partitions, as column-major Parts (part.go). The operators themselves
// and the per-partition drive loops are in colpipeline.go.
//
// Each fused pipeline charges one stage (the scan stage for leaf
// pipelines, otherwise the enclosing open stage or a new one named
// after the bottom-most compute operator), and per-batch counter/cost
// increments sum to the same per-partition totals at every batch size.
// Options.BatchSize < 0 makes every batch span its whole partition: the
// same code, one batch per partition.

// pipeSpec is the partition-independent setup of one fused chain
// operator. Expression kernels and samplers are instantiated per
// partition (kernels own private buffers, samplers carry per-partition
// seeds).
type pipeSpec struct {
	op *metrics.Op

	// PProject
	cost float64
	// PSample
	sample      *PSample
	passthrough bool
	colIdx      []int
	buckets     []bucketCol // without scratch, copied per partition
	parts       int
	// PHashJoin (broadcast)
	join *joinSpec
}

// chained reports whether n runs inside a fused chain: every streaming
// operator, and the probe of a broadcast hash join.
func chained(n PNode) bool {
	j, ok := n.(*PHashJoin)
	return !n.Breaker() || ok && j.Broadcast
}

func (ex *executor) compilePipeOp(n PNode, parts int) (*pipeSpec, error) {
	op := ex.opFor(n)
	op.Grow(parts)
	sp := &pipeSpec{op: op, parts: parts}
	switch x := n.(type) {
	case *PFilter, *PHashJoin:
		// Nothing partition-independent: the kernel compiles per
		// partition, and the chain hands a join its built side.
	case *PProject:
		sp.cost = 0.5 + 0.3*float64(len(x.Exprs))
	case *PSample:
		if x.Def.Type == lplan.SamplerPassThrough {
			sp.passthrough = true
			break
		}
		sp.sample = x
		cm := buildColMap(x.In.Cols())
		for _, id := range x.Def.Cols {
			i, ok := cm[id]
			if !ok {
				return nil, fmt.Errorf("exec: sampler column #%d not available", id)
			}
			sp.colIdx = append(sp.colIdx, i)
		}
		for k, id := range x.Def.BucketCols {
			pos, ok := cm[id]
			if !ok {
				return nil, fmt.Errorf("exec: bucket column #%d not available", id)
			}
			width := x.Def.BucketWidths[k]
			if width <= 0 {
				width = 1
			}
			sp.buckets = append(sp.buckets, bucketCol{pos: pos, width: width})
		}
	default:
		return nil, fmt.Errorf("exec: %T is not a pipelined operator", n)
	}
	return sp, nil
}

// newSampler builds partition task's sample operator around its
// sampler, with the same seed derivations the executor has always used
// (universe instances share (cols, seed, p) so every instance — and the
// paired sampler on the other join input — picks the same subspace; the
// distinct sampler's δ is split across partitions). The caller wires its
// input and accounting. Its buffers sized by the data are slabs of mem.
func (sp *pipeSpec) newSampler(mem *ledger, task int) *colSampleOp {
	p := sp.sample
	op := &colSampleOp{cost: p.Def.Type.CostPerRow()}
	switch p.Def.Type {
	case lplan.SamplerUniform:
		op.unif = sampler.NewUniform(p.Def.P, p.Seed*2654435761+uint64(task)+1)
	case lplan.SamplerUniverse:
		op.uni = &universeLanes{s: sampler.NewUniverse(p.Def.P, sp.colIdx, p.Def.Seed)}
	case lplan.SamplerDistinct:
		delta := sampler.DeltaForParallelism(p.Def.Delta, sp.parts)
		width := len(p.Cols())
		d := &distinctLanes{
			s:       sampler.NewDistinct(p.Def.P, delta, p.Seed*0x9E3779B9+uint64(task)+1),
			colIdx:  sp.colIdx,
			buckets: slices.Clone(sp.buckets),
			kt:      newKeyTable(mem, len(sp.colIdx)+len(sp.buckets)),
			hold:    newPartBuilder(mem, width, 0),
			out:     newPartBuilder(mem, width, 0),
		}
		op.dist = d
	}
	return op
}

// stageName names the stage a chain operator opens over a materialized
// stream when it is the bottom-most compute operator, so stage names do
// not depend on how the chain was fused; a pass-through sampler opens
// none.
func stageName(n PNode) string {
	switch x := n.(type) {
	case *PFilter:
		return "filter"
	case *PProject:
		return "project"
	case *PHashJoin:
		return "probe"
	case *PSample:
		if x.Def.Type != lplan.SamplerPassThrough {
			return "sample"
		}
	}
	return ""
}
