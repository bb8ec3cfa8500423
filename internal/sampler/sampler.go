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
	"crypto/sha256"
	"encoding/binary"
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

// Universe projects the value of columns C through a strong hash into
// [0,1) and passes rows landing in the chosen p-fraction subspace.
// Samplers sharing (C, seed, p) pick the same subspace, so both inputs
// of an equi-join sample consistently: joining p-probability universe
// samples is statistically equivalent to a p-probability universe
// sample of the join output. The sampler reads coordinates, it does not
// compute them: AdmitBatch takes each lane's HashValues coordinate from
// the caller, and since a coordinate depends only on (seed, key) the
// caller may compute it once per key and share it across instances.
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

// HashValues computes the 64-bit subspace coordinate of the column
// values using SHA-256 (a cryptographically strong hash, per the paper,
// so the subspace is independent of the key distribution): the first 8
// bytes, little-endian, of the digest of seed (8 bytes, little-endian)
// followed by each value's Key() and a NUL. It is the definition the
// executor's typed kernel is held to.
func HashValues(vals []table.Value, seed uint64) uint64 {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	for _, v := range vals {
		h.Write([]byte(v.Key()))
		h.Write([]byte{0})
	}
	sum := h.Sum(nil)
	return binary.LittleEndian.Uint64(sum[:8])
}

// AdmitBatch admits the live lanes listed in sel, in order. hashes holds
// each lane's subspace coordinate by lane — HashValues over the lane's
// universe-column values, in Cols order — computed by the caller, which
// may compute a repeated key's coordinate once. Whether a lane passes
// depends only on those values, so the sampler is stateless and all
// parallel instances agree.
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
