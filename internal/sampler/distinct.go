package sampler

import (
	"math"
	"math/rand"
	"sort"

	"quickr/internal/sketch"
	"quickr/internal/table"
)

// Distinct is the stratified sampler Γ^D_{p,C,δ} (§4.1.2): it guarantees
// that at least δ rows pass for every distinct combination of values of
// the column set C (or of functions over C), then passes further rows
// with probability p.
//
// The naive design (always pass the first δ rows, then flip coins) is
// biased, needs per-value exact counts, and cannot be partitioned. This
// implementation follows the paper's fixes:
//
//   - Bias: rows that arrive early in the probabilistic mode are held in
//     a small per-value reservoir and flushed with their correct weight —
//     either 1/p once the value provably has more than δ+S/p rows, or
//     (freq−δ)/|reservoir| at end-of-stream.
//   - Memory: per-value frequencies come from a lossy-counting
//     heavy-hitter sketch (τ=1e-4, s=1e-2) rather than an exact map; the
//     sampler's gains come from dropping rows of very frequent values, so
//     approximate counts for heavy hitters suffice.
//   - Partitioning: with D parallel instances, each takes the modified
//     guarantee ⌈δ/D⌉+ε with ε=δ/D, trading off the all-rows-in-one-
//     instance and rows-spread-evenly extremes.
type Distinct struct {
	P     float64
	Cols  []int // positions of the stratification columns
	Delta int   // per-instance δ (already adjusted for parallelism)
	// ReservoirSize is S; reservoirs exist only for values with observed
	// frequency in (δ, δ+S/p].
	ReservoirSize int
	// KeyFuncs stratify on computed values in addition to Cols — the
	// paper's "stratification over functions of columns" (§4.1.2), e.g.
	// ⌈Y/100⌉ so rare extreme values of a skewed aggregate survive.
	KeyFuncs []func(table.Row) table.Value

	counts     *sketch.LossyCounter
	exact      map[string]int64 // exact count fallback while small
	exactLimit int
	reservoirs map[string]*reservoir
	pending    []Weighted // reservoir overflows awaiting emission
	rng        *rand.Rand
	keyBuf     []byte
}

type reservoir struct {
	rows []table.Row
	ws   []float64
	seen int64 // rows offered to the reservoir (freq − δ)
	done bool  // flushed at overflow; value is in probabilistic mode
}

// DeltaForParallelism returns the per-instance δ for D parallel
// instances: ⌈δ/D⌉ + ε with ε = δ/D (§4.1.2).
func DeltaForParallelism(delta, d int) int {
	if d <= 1 {
		return delta
	}
	per := int(math.Ceil(float64(delta) / float64(d)))
	eps := delta / d
	if eps < 1 {
		eps = 1
	}
	return per + eps
}

// NewDistinct creates a distinct sampler with its own private rng
// seeded from seed. cols are row positions of the stratification
// columns; delta is the per-instance guarantee.
func NewDistinct(p float64, cols []int, delta int, seed uint64) *Distinct {
	return NewDistinctRand(p, cols, delta, rand.New(rand.NewSource(int64(seed))))
}

// NewDistinctRand creates a distinct sampler drawing from an injected
// rng. The sampler owns rng afterwards: callers must not share one rng
// between samplers running on different goroutines.
func NewDistinctRand(p float64, cols []int, delta int, rng *rand.Rand) *Distinct {
	if delta < 1 {
		delta = 1
	}
	return &Distinct{
		P:             p,
		Cols:          cols,
		Delta:         delta,
		ReservoirSize: 10,
		counts:        sketch.NewLossyCounter(1e-4),
		exact:         map[string]int64{},
		exactLimit:    1 << 16,
		reservoirs:    map[string]*reservoir{},
		rng:           rng,
	}
}

func (d *Distinct) key(r table.Row) string {
	b := d.keyBuf[:0]
	for _, c := range d.Cols {
		b = append(r[c].AppendKey(b), 0)
	}
	for _, f := range d.KeyFuncs {
		b = append(f(r).AppendKey(b), 0)
	}
	d.keyBuf = b
	return string(b)
}

// count returns the observed frequency of key after this occurrence.
func (d *Distinct) count(key string) int64 {
	d.counts.Add(key)
	if d.exact != nil {
		d.exact[key]++
		c := d.exact[key]
		if len(d.exact) > d.exactLimit {
			d.exact = nil // rely on the sketch beyond the memory bound
		} else {
			return c
		}
	}
	if c, ok := d.counts.Count(key); ok {
		return c
	}
	// Untracked by the sketch ⇒ infrequent ⇒ within the guarantee.
	return 1
}

// Admit implements Sampler.
func (d *Distinct) Admit(r table.Row, w float64) (bool, float64) {
	key := d.key(r)
	c := d.count(key)
	delta := int64(d.Delta)
	switch {
	case c <= delta:
		// Frequency mode: pass with weight 1 (times incoming weight).
		return true, w
	default:
		res, ok := d.reservoirs[key]
		if !ok {
			res = &reservoir{}
			d.reservoirs[key] = res
		}
		if res.done {
			// Probabilistic mode.
			if d.rng.Float64() < d.P {
				return true, w / d.P
			}
			return false, 0
		}
		// Reservoir mode: hold the row; it may be emitted by Flush or at
		// overflow with the corrected weight.
		res.seen++
		if len(res.rows) < d.ReservoirSize {
			res.rows = append(res.rows, r.Clone())
			res.ws = append(res.ws, w)
		} else if j := d.rng.Int63n(res.seen); j < int64(d.ReservoirSize) {
			res.rows[j] = r.Clone()
			res.ws[j] = w
		}
		if res.seen >= int64(float64(d.ReservoirSize)/d.P) {
			// Overflow: each retained row represents 1/p observed rows.
			d.pending = append(d.pending, d.drain(res, 1/d.P)...)
			res.done = true
		}
		return false, 0
	}
}

func (d *Distinct) drain(res *reservoir, weightMult float64) []Weighted {
	out := make([]Weighted, 0, len(res.rows))
	for i, row := range res.rows {
		out = append(out, Weighted{Row: row, W: res.ws[i] * weightMult})
	}
	res.rows, res.ws = nil, nil
	return out
}

// TakePending returns rows whose reservoirs overflowed since the last
// call; the executor must emit them into the output stream.
func (d *Distinct) TakePending() []Weighted {
	p := d.pending
	d.pending = nil
	return p
}

// Flush implements Sampler: emits all remaining reservoirs with weight
// (freq−δ)/|reservoir| each, which makes the estimator unbiased for
// values that never reached the probabilistic mode.
func (d *Distinct) Flush() []Weighted {
	var out []Weighted
	keys := make([]string, 0, len(d.reservoirs))
	for k := range d.reservoirs {
		keys = append(keys, k)
	}
	// Deterministic order for reproducible runs.
	sort.Strings(keys)
	for _, k := range keys {
		res := d.reservoirs[k]
		if res.done || len(res.rows) == 0 {
			continue
		}
		mult := float64(res.seen) / float64(len(res.rows))
		out = append(out, d.drain(res, mult)...)
	}
	return out
}

// CostPerRow implements Sampler.
func (d *Distinct) CostPerRow() float64 { return 5 }

// MemoryFootprint returns an estimate of tracked state size (sketch
// entries plus live reservoir rows) for the ablation benchmarks.
func (d *Distinct) MemoryFootprint() int {
	n := d.counts.EntryCount()
	for _, r := range d.reservoirs {
		n += len(r.rows)
	}
	return n
}
