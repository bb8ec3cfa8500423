package sampler

import (
	"math"
	"math/rand"

	"quickr/internal/sketch"
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
//     approximate counts for heavy hitters suffice. While at most 2¹⁶
//     strata were met, exact per-stratum counts rule and the sketch is
//     fed once per prune window (adds between two prunes commute), so
//     at every point it is read it equals a sketch fed lane by lane.
//   - Partitioning: with D parallel instances, each takes the modified
//     guarantee ⌈δ/D⌉+ε with ε=δ/D, trading off the all-rows-in-one-
//     instance and rows-spread-evenly extremes.
//
// The sampler never sees a row. The caller names each lane's stratum by
// a dense id (the executor resolves ids from the stratification and
// bucket key vectors, comparing them column by column) and stores the
// lanes the sampler holds; a reservoir keeps the caller's handles.
type Distinct struct {
	P     float64
	Delta int // per-instance δ (already adjusted for parallelism)
	// ReservoirSize is S; reservoirs exist only for values with observed
	// frequency in (δ, δ+S/p].
	ReservoirSize int

	counts     *sketch.LossyCounter[int32]
	exact      []exactCount // by stratum id while few strata were met
	strata     int          // strata met while exact is kept
	exactLimit int
	touched    []int32     // the strata counted in the open prune window
	room       int64       // lanes left in the open prune window
	resOf      []int32     // stratum id -> index+1 into res, 0 = none yet
	res        []reservoir // in the order they were opened
	handles    int32       // handles issued so far
	rng        *rand.Rand
}

type reservoir struct {
	rows []heldRow
	seen int64 // rows offered to the reservoir (freq − δ)
	done bool  // flushed at overflow; value is in probabilistic mode
}

// exactCount is one stratum's exact count: its lanes so far and its
// lanes in the open prune window, not yet handed to the sketch.
type exactCount struct{ n, win int64 }

// heldRow is one reservoir slot: the caller's handle for the held row
// and the row's incoming weight.
type heldRow struct {
	h int32
	w float64
}

// Emit is one held row the distinct sampler lets through: the row the
// caller keeps under handle Ref, with weight W, emitted after the first
// At lanes that pass in the same AdmitBatch call.
type Emit struct {
	Ref, At int32
	W       float64
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
// seeded from seed; delta is the per-instance guarantee.
func NewDistinct(p float64, delta int, seed uint64) *Distinct {
	return NewDistinctRand(p, delta, rand.New(rand.NewSource(int64(seed))))
}

// NewDistinctRand creates a distinct sampler drawing from an injected
// rng. The sampler owns rng afterwards: callers must not share one rng
// between samplers running on different goroutines.
func NewDistinctRand(p float64, delta int, rng *rand.Rand) *Distinct {
	if delta < 1 {
		delta = 1
	}
	counts := sketch.NewLossyCounter[int32](1e-4)
	return &Distinct{
		P:             p,
		Delta:         delta,
		ReservoirSize: 10,
		counts:        counts,
		exact:         make([]exactCount, 0, 64),
		exactLimit:    1 << 16,
		room:          counts.Room(),
		rng:           rng,
	}
}

// count returns the observed frequency of stratum id after this
// occurrence.
func (d *Distinct) count(id int32) int64 {
	if d.exact != nil {
		for int(id) >= len(d.exact) {
			d.exact = append(d.exact, exactCount{})
		}
		e := &d.exact[id]
		if e.win == 0 {
			d.touched = append(d.touched, id)
		}
		if e.n, e.win = e.n+1, e.win+1; e.n == 1 {
			d.strata++
		}
		if d.room--; d.room == 0 {
			d.feed()
		}
		if d.strata <= d.exactLimit {
			return e.n
		}
		d.feed() // rely on the sketch beyond the memory bound
		d.exact, d.touched = nil, nil
	} else {
		d.counts.Add(id)
	}
	if c, ok := d.counts.Count(id); ok {
		return c
	}
	// Untracked by the sketch ⇒ infrequent ⇒ within the guarantee.
	return 1
}

// feed hands the open prune window's counts to the sketch while exact
// counts rule. Windows end where Add would prune, so the sketch is then
// what lane-by-lane adds would have left: Flush and MemoryFootprint feed
// the open window before they return.
func (d *Distinct) feed() {
	if d.exact == nil {
		return
	}
	for _, id := range d.touched {
		d.counts.AddN(id, d.exact[id].win)
		d.exact[id].win = 0
	}
	d.touched = d.touched[:0]
	d.room = d.counts.Room()
}

// reservoir returns stratum id's reservoir, creating an empty one. The
// pointer is valid until the next reservoir is created.
func (d *Distinct) reservoir(id int32) *reservoir {
	for int(id) >= len(d.resOf) {
		d.resOf = append(d.resOf, 0)
	}
	if d.resOf[id] == 0 {
		d.res = append(d.res, reservoir{})
		d.resOf[id] = int32(len(d.res))
	}
	return &d.res[d.resOf[id]-1]
}

// AdmitBatch admits the live lanes sel, in order: ids[lane] is the
// lane's stratum id and weights[lane] its incoming weight. Lanes that
// pass stay in sel, which is thinned in place and returned; a lane
// passing in the probabilistic mode has its weight scaled by 1/P in
// place. The rows of every reservoir a lane overflowed are appended to
// drains, each At the number of passing lanes before it, so passing
// lanes and drained rows interleave in the order they were let through.
// The lanes it holds are appended to held. Handles count holds over the
// sampler's life: the k-th lane held is handle k, and the caller keeps
// its row until the partition ends.
//
// internal/exec's TestHotPathAllocCeilings holds its allocations per
// run (BenchmarkDistinctSample).
func (d *Distinct) AdmitBatch(sel []int32, ids []int64, weights []float64, drains []Emit, held []int32) ([]int32, []Emit, []int32) {
	delta := int64(d.Delta)
	overflow, mult := int64(float64(d.ReservoirSize)/d.P), 1/d.P
	pass := sel[:0]
	for _, lane := range sel {
		id, w := int32(ids[lane]), weights[lane]
		if d.count(id) <= delta {
			// Frequency mode: pass with weight 1 (times incoming weight).
			pass = append(pass, lane)
			continue
		}
		res := d.reservoir(id)
		if res.done {
			// Probabilistic mode.
			if d.rng.Float64() < d.P {
				weights[lane] = w / d.P
				pass = append(pass, lane)
			}
			continue
		}
		// Reservoir mode: hold the lane; it may be emitted by Flush or at
		// overflow with the corrected weight.
		res.seen++
		if len(res.rows) < d.ReservoirSize {
			res.rows = append(res.rows, heldRow{h: d.handles, w: w})
			held, d.handles = append(held, lane), d.handles+1
		} else if j := d.rng.Int63n(res.seen); j < int64(d.ReservoirSize) {
			res.rows[j] = heldRow{h: d.handles, w: w}
			held, d.handles = append(held, lane), d.handles+1
		}
		if res.seen >= overflow {
			// Overflow: each retained row represents 1/p observed rows.
			drains = res.drain(drains, int32(len(pass)), mult)
			res.done = true
		}
	}
	return pass, drains, held
}

// drain appends the reservoir's rows to out, at position at, weights
// times mult, and empties it.
func (r *reservoir) drain(out []Emit, at int32, mult float64) []Emit {
	for _, row := range r.rows {
		out = append(out, Emit{Ref: row.h, At: at, W: row.w * mult})
	}
	r.rows = nil
	return out
}

// Flush emits all remaining reservoirs with weight (freq−δ)/|reservoir|
// each, which makes the estimator unbiased for values that never reached
// the probabilistic mode. The reservoirs go in the order they were
// opened, which depends only on the order the lanes were admitted in.
func (d *Distinct) Flush(out []Emit) []Emit {
	d.feed()
	for i := range d.res {
		if r := &d.res[i]; !r.done && len(r.rows) > 0 {
			out = r.drain(out, 0, float64(r.seen)/float64(len(r.rows)))
		}
	}
	return out
}

// MemoryFootprint returns an estimate of tracked state size (sketch
// entries plus live reservoir rows) for the ablation benchmarks.
func (d *Distinct) MemoryFootprint() int {
	d.feed()
	n := d.counts.EntryCount()
	for i := range d.res {
		n += len(d.res[i].rows)
	}
	return n
}
