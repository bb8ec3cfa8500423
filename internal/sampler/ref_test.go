package sampler

import (
	"math/rand"

	"quickr/internal/sketch"
	"quickr/internal/table"
)

// The samplers' one-row definitions, kept as the reference every
// AdmitBatch is held to (TestAdmitBatchMatchesAdmit): the uniform and
// universe samplers' row Admit, and the distinct sampler as it was when
// it admitted boxed rows under a NUL-joined string key. Apart from the
// renames refDistinct/refReservoir and the reference's string-keyed
// lossy counter, the code is as it was.

// Weighted is a row with its sampling weight.
type Weighted struct {
	Row table.Row
	W   float64
}

// Sampler consumes rows one at a time and emits a (usually smaller)
// weighted stream. Admit processes one row with its incoming weight and
// reports whether it passes immediately and with what weight; Flush
// returns rows the sampler buffered (only the distinct sampler buffers).
type Sampler interface {
	Admit(r table.Row, w float64) (pass bool, weight float64)
	Flush() []Weighted
}

// Admit implements Sampler.
func (u *Uniform) Admit(r table.Row, w float64) (bool, float64) {
	if u.rng.Float64() < u.P {
		return true, w / u.P
	}
	return false, 0
}

// Flush implements Sampler.
func (u *Uniform) Flush() []Weighted { return nil }

// Admit implements Sampler. Whether a row passes depends only on the
// values of the universe columns, so the sampler is stateless and all
// parallel instances agree.
func (u *Universe) Admit(r table.Row, w float64) (bool, float64) {
	vals := make([]table.Value, len(u.Cols))
	for i, c := range u.Cols {
		vals[i] = r[c]
	}
	if HashValues(vals, u.Seed) <= u.threshold {
		return true, w / u.P
	}
	return false, 0
}

// Flush implements Sampler.
func (u *Universe) Flush() []Weighted { return nil }

// refDistinct is the distinct sampler's row definition.
type refDistinct struct {
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

	counts     *sketch.LossyCounter[string]
	exact      map[string]int64 // exact count fallback while small
	exactLimit int
	reservoirs map[string]*refReservoir
	opened     []string   // reservoir keys in the order they were opened
	pending    []Weighted // reservoir overflows awaiting emission
	rng        *rand.Rand
	keyBuf     []byte
}

type refReservoir struct {
	rows []table.Row
	ws   []float64
	seen int64 // rows offered to the reservoir (freq − δ)
	done bool  // flushed at overflow; value is in probabilistic mode
}

func newRefDistinct(p float64, cols []int, delta int, seed uint64) *refDistinct {
	if delta < 1 {
		delta = 1
	}
	return &refDistinct{
		P:             p,
		Cols:          cols,
		Delta:         delta,
		ReservoirSize: 10,
		counts:        sketch.NewLossyCounter[string](1e-4),
		exact:         map[string]int64{},
		exactLimit:    1 << 16,
		reservoirs:    map[string]*refReservoir{},
		rng:           rand.New(rand.NewSource(int64(seed))),
	}
}

func (d *refDistinct) key(r table.Row) string {
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
func (d *refDistinct) count(key string) int64 {
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
func (d *refDistinct) Admit(r table.Row, w float64) (bool, float64) {
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
			res = &refReservoir{}
			d.reservoirs[key] = res
			d.opened = append(d.opened, key)
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

func (d *refDistinct) drain(res *refReservoir, weightMult float64) []Weighted {
	out := make([]Weighted, 0, len(res.rows))
	for i, row := range res.rows {
		out = append(out, Weighted{Row: row, W: res.ws[i] * weightMult})
	}
	res.rows, res.ws = nil, nil
	return out
}

// TakePending returns rows whose reservoirs overflowed since the last
// call; the executor must emit them into the output stream.
func (d *refDistinct) TakePending() []Weighted {
	p := d.pending
	d.pending = nil
	return p
}

// Flush implements Sampler: emits all remaining reservoirs with weight
// (freq−δ)/|reservoir| each, which makes the estimator unbiased for
// values that never reached the probabilistic mode, in the order the
// reservoirs were opened.
func (d *refDistinct) Flush() []Weighted {
	var out []Weighted
	for _, k := range d.opened {
		res := d.reservoirs[k]
		if res.done || len(res.rows) == 0 {
			continue
		}
		mult := float64(res.seen) / float64(len(res.rows))
		out = append(out, d.drain(res, mult)...)
	}
	return out
}

// MemoryFootprint returns an estimate of tracked state size (sketch
// entries plus live reservoir rows) for the ablation benchmarks.
func (d *refDistinct) MemoryFootprint() int {
	n := d.counts.EntryCount()
	for _, r := range d.reservoirs {
		n += len(r.rows)
	}
	return n
}
