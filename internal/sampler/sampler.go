// Package sampler implements Quickr's three sampler operators (§4.1).
// All samplers run in a single pass with bounded memory and are
// partitionable: many instances over different partitions of the input
// together mimic one instance over the whole input. Each passed row
// carries a weight — the inverse of its inclusion probability — used by
// the Horvitz–Thompson estimators downstream.
// Each has one admit loop, AdmitBatch, over a batch's live lanes in lane
// order, drawing randomness per lane, so decisions never depend on batch
// boundaries. Their relative CPU costs per row (§A) are
// lplan.SamplerType.CostPerRow.
package sampler

import (
	"math/rand"

	"quickr/internal/table"
)

// ---------------------------------------------------------------------
// Uniform sampler Γ^U_p (§4.1.1)

// Uniform lets each row through independently with probability p and
// weight 1/p (a Poisson/Bernoulli sampler: streaming and partitionable,
// unlike fixed-size reservoir designs).
type Uniform struct {
	P   float64
	rng *rand.Rand
}

// NewUniform creates a uniform sampler with pass probability p, with
// its own private rng seeded from seed.
func NewUniform(p float64, seed uint64) *Uniform {
	return NewUniformRand(p, rand.New(rand.NewSource(int64(seed))))
}

// NewUniformRand creates a uniform sampler drawing from an injected
// rng. The sampler owns rng afterwards: callers must not share one rng
// between samplers running on different goroutines.
func NewUniformRand(p float64, rng *rand.Rand) *Uniform {
	return &Uniform{P: p, rng: rng}
}

// AdmitBatch admits the live lanes listed in sel, in order, one coin
// each. Passing lanes keep their slot in the (in-place thinned)
// selection and have their weight scaled by 1/P; the thinned selection
// is returned.
func (u *Uniform) AdmitBatch(sel []int32, weights []float64) []int32 {
	out := sel[:0]
	for _, lane := range sel {
		if u.rng.Float64() < u.P {
			weights[lane] /= u.P
			out = append(out, lane)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Universe sampler Γ^V_{p,C} (§4.1.3)

// Universe projects the value of columns C through a seeded 64-bit
// hash into [0,1) and passes rows landing in the chosen p-fraction
// subspace. Samplers sharing (C, seed, p) pick the same subspace, so
// both inputs of an equi-join sample consistently: joining
// p-probability universe samples is statistically equivalent to a
// p-probability universe sample of the join output. The sampler reads
// coordinates, it does not compute them: AdmitBatch takes each lane's
// HashValues coordinate from the caller.
type Universe struct {
	P    float64
	Cols []int // positions of the universe columns in the input row
	Seed uint64

	threshold uint64
}

// NewUniverse creates a universe sampler over the given row positions.
func NewUniverse(p float64, cols []int, seed uint64) *Universe {
	t := uint64(p * float64(^uint64(0)))
	return &Universe{P: p, Cols: cols, Seed: seed, threshold: t}
}

// HashValues is the 64-bit subspace coordinate of the column values
// under seed: Mix of the values' Hash64s folded through
// table.HashRowStep from table.HashRowSeed(seed), the chain the
// executor's exchange and join hashes use. The paper asks for a
// subspace independent of the key distribution and shared by both join
// inputs, not for a cryptographic hash: Mix spreads the chain over all
// 64 bits, and Hash64 hashes an integral float as the equal int, so
// keys a join matches share a coordinate. It is the definition the
// executor's typed kernel is held to.
func HashValues(vals []table.Value, seed uint64) uint64 {
	h := table.HashRowSeed(seed)
	for _, v := range vals {
		h = table.HashRowStep(h, v.Hash64())
	}
	return Mix(h)
}

// Mix is splitmix64's finalizer: a bijection of the 64-bit words in
// which every input bit flips each output bit with probability about
// one half, so the top bits AdmitBatch compares depend on all of h.
func Mix(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// AdmitBatch admits the live lanes listed in sel, in order. hashes holds
// each lane's subspace coordinate by lane — HashValues over the lane's
// universe-column values, in Cols order — computed by the caller.
// Whether a lane passes depends only on those values, so the sampler is
// stateless and all parallel instances agree.
func (u *Universe) AdmitBatch(sel []int32, weights []float64, hashes []uint64) []int32 {
	out := sel[:0]
	for _, lane := range sel {
		if hashes[lane] <= u.threshold {
			weights[lane] /= u.P
			out = append(out, lane)
		}
	}
	return out
}
