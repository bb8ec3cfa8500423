package sampler

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"quickr/internal/sketch"
	"quickr/internal/table"
)

// estimateSum runs a sampler over rows and returns the HT estimate of
// SUM(col 0).
func estimateSum(s Sampler, rows []table.Row) float64 {
	var sum float64
	for _, r := range rows {
		if pass, w := s.Admit(r, 1); pass {
			sum += w * r[0].Float()
		}
		if d, ok := s.(*rowDistinct); ok {
			for _, fl := range d.TakePending() {
				sum += fl.W * fl.Row[0].Float()
			}
		}
	}
	for _, fl := range s.Flush() {
		sum += fl.W * fl.Row[0].Float()
	}
	return sum
}

func makeRows(n int) ([]table.Row, float64) {
	rows := make([]table.Row, n)
	var total float64
	for i := 0; i < n; i++ {
		v := float64(1 + i%7)
		rows[i] = table.Row{table.NewFloat(v), table.NewInt(int64(i % 50))}
		total += v
	}
	return rows, total
}

func TestUniformUnbiased(t *testing.T) {
	rows, total := makeRows(20000)
	var sum float64
	const trials = 40
	for seed := 0; seed < trials; seed++ {
		s := NewUniform(0.1, uint64(seed+1))
		sum += estimateSum(s, rows)
	}
	mean := sum / trials
	if rel := math.Abs(mean-total) / total; rel > 0.03 {
		t.Errorf("uniform estimator biased: mean %.0f vs true %.0f (%.3f)", mean, total, rel)
	}
}

func TestUniformSampleFraction(t *testing.T) {
	rows, _ := makeRows(50000)
	s := NewUniform(0.05, 7)
	kept := 0
	for _, r := range rows {
		if pass, w := s.Admit(r, 1); pass {
			kept++
			if math.Abs(w-20) > 1e-9 {
				t.Fatalf("weight %v want 20", w)
			}
		}
	}
	frac := float64(kept) / 50000
	if frac < 0.04 || frac > 0.06 {
		t.Errorf("pass fraction %.4f want ~0.05", frac)
	}
}

func TestUniverseConsistencyAcrossInstances(t *testing.T) {
	// Two independent instances (e.g. on the two join inputs, or two
	// parallel partitions) must admit exactly the same key values.
	rows, _ := makeRows(5000)
	a := NewUniverse(0.2, []int{1}, 99)
	b := NewUniverse(0.2, []int{1}, 99)
	for _, r := range rows {
		pa, _ := a.Admit(r, 1)
		pb, _ := b.Admit(r, 1)
		if pa != pb {
			t.Fatalf("instances disagree on row %v", r)
		}
	}
}

func TestUniverseWholeSubspaces(t *testing.T) {
	// Every row of an admitted key value must be admitted.
	rows, _ := makeRows(10000)
	s := NewUniverse(0.3, []int{1}, 5)
	decision := map[string]bool{}
	for _, r := range rows {
		pass, w := s.Admit(r, 1)
		key := r[1].Key()
		if prev, seen := decision[key]; seen && prev != pass {
			t.Fatalf("inconsistent decision for key %s", key)
		}
		decision[key] = pass
		if pass && math.Abs(w-1/0.3) > 1e-9 {
			t.Fatalf("universe weight %v want %v", w, 1/0.3)
		}
	}
	// Roughly p fraction of the 50 key values chosen.
	chosen := 0
	for _, v := range decision {
		if v {
			chosen++
		}
	}
	if chosen < 5 || chosen > 28 {
		t.Errorf("chose %d of 50 key values at p=0.3", chosen)
	}
}

func TestUniverseUnbiased(t *testing.T) {
	rows, total := makeRows(20000)
	var sum float64
	const trials = 60
	for seed := 0; seed < trials; seed++ {
		s := NewUniverse(0.2, []int{1}, uint64(seed)*7919+1)
		sum += estimateSum(s, rows)
	}
	mean := sum / trials
	if rel := math.Abs(mean-total) / total; rel > 0.06 {
		t.Errorf("universe estimator biased: mean %.0f vs true %.0f (%.3f)", mean, total, rel)
	}
}

func TestUniverseJoinEquivalence(t *testing.T) {
	// Joining p-samples of both inputs on the universe key must equal
	// the p-universe-sample of the exact join (§4.1.3).
	type fact struct {
		key int64
		val float64
	}
	var left, right []fact
	for i := 0; i < 600; i++ {
		left = append(left, fact{key: int64(i % 40), val: float64(i%5 + 1)})
	}
	for i := 0; i < 300; i++ {
		right = append(right, fact{key: int64(i % 40), val: 2})
	}
	const p, seed = 0.25, 31

	admit := func(k int64) bool {
		u := NewUniverse(p, []int{0}, seed)
		pass, _ := u.Admit(table.Row{table.NewInt(k)}, 1)
		return pass
	}

	// sample-then-join
	var stj float64
	for _, l := range left {
		if !admit(l.key) {
			continue
		}
		for _, r := range right {
			if r.key == l.key && admit(r.key) {
				// paired samplers: corrected weight is 1/p, not 1/p².
				stj += (1 / p) * l.val * r.val
			}
		}
	}
	// join-then-sample
	var jts float64
	for _, l := range left {
		for _, r := range right {
			if r.key == l.key && admit(l.key) {
				jts += (1 / p) * l.val * r.val
			}
		}
	}
	if math.Abs(stj-jts) > 1e-6 {
		t.Errorf("sample-then-join %.1f != join-then-sample %.1f", stj, jts)
	}
}

func TestDistinctGuaranteesStrata(t *testing.T) {
	// Every distinct value of the stratification column must appear in
	// the output at least min(δ, freq) times.
	var rows []table.Row
	freqs := map[string]int{}
	for i := 0; i < 3000; i++ {
		g := int64(i % 30) // 100 rows per group
		rows = append(rows, table.Row{table.NewFloat(1), table.NewInt(g)})
		freqs[table.NewInt(g).Key()]++
	}
	// Plus some rare groups.
	for g := 100; g < 110; g++ {
		rows = append(rows, table.Row{table.NewFloat(1), table.NewInt(int64(g))})
		freqs[table.NewInt(int64(g)).Key()]++
	}
	const delta = 4
	s := newRowDistinct(NewDistinct(0.05, delta, 11), 1)
	got := map[string]int{}
	collect := func(r table.Row) { got[r[1].Key()]++ }
	for _, r := range rows {
		if pass, _ := s.Admit(r, 1); pass {
			collect(r)
		}
		for _, fl := range s.TakePending() {
			collect(fl.Row)
		}
	}
	for _, fl := range s.Flush() {
		collect(fl.Row)
	}
	for key, f := range freqs {
		want := delta
		if f < delta {
			want = f
		}
		if got[key] < want {
			t.Errorf("stratum %s got %d rows, want >= %d", key, got[key], want)
		}
	}
}

func TestDistinctUnbiased(t *testing.T) {
	// The reservoir de-biasing should make SUM estimates unbiased even
	// for values in the tricky (δ, δ+S/p] frequency band.
	var rows []table.Row
	var total float64
	for i := 0; i < 4000; i++ {
		v := float64(1 + i%3)
		rows = append(rows, table.Row{table.NewFloat(v), table.NewInt(int64(i % 80))}) // freq 50
		total += v
	}
	var sum float64
	const trials = 50
	for seed := 0; seed < trials; seed++ {
		s := newRowDistinct(NewDistinct(0.1, 5, uint64(seed)+1), 1)
		sum += estimateSum(s, rows)
	}
	mean := sum / trials
	if rel := math.Abs(mean-total) / total; rel > 0.04 {
		t.Errorf("distinct estimator biased: mean %.0f vs true %.0f (%.3f)", mean, total, rel)
	}
}

func TestDistinctReducesData(t *testing.T) {
	var rows []table.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, table.Row{table.NewFloat(1), table.NewInt(int64(i % 10))})
	}
	s := newRowDistinct(NewDistinct(0.05, 10, 3), 1)
	kept := 0
	for _, r := range rows {
		if pass, _ := s.Admit(r, 1); pass {
			kept++
		}
		kept += len(s.TakePending())
	}
	kept += len(s.Flush())
	if kept > 20000/5 {
		t.Errorf("distinct sampler kept %d of 20000 rows", kept)
	}
}

func TestDeltaForParallelism(t *testing.T) {
	if got := DeltaForParallelism(30, 1); got != 30 {
		t.Errorf("D=1: %d", got)
	}
	// ⌈δ/D⌉+ε with ε=δ/D (paper §4.1.2).
	if got := DeltaForParallelism(30, 3); got != 10+10 {
		t.Errorf("D=3: %d want 20", got)
	}
	if got := DeltaForParallelism(4, 8); got < 2 {
		t.Errorf("small delta: %d", got)
	}
}

func TestDistinctMemoryFootprintBounded(t *testing.T) {
	s := newRowDistinct(NewDistinct(0.01, 3, 5), 0)
	for i := 0; i < 200000; i++ {
		r := table.Row{table.NewString(fmt.Sprintf("k%d", i%100000))}
		s.Admit(r, 1)
		s.TakePending()
	}
	// The exact map is capped; the sketch holds O(1/eps log eps N).
	if fp := s.d.MemoryFootprint(); fp > 400000 {
		t.Errorf("memory footprint %d unbounded", fp)
	}
}

// Admit is the one-row definition of each sampler; AdmitBatch must make
// the same decisions and weights for the same live rows in the same
// order, whatever the batch boundaries and with dead lanes in between.
func TestAdmitBatchMatchesAdmit(t *testing.T) {
	const n = 5000
	rows := make([]table.Row, n)
	weights := make([]float64, n)
	var live []int32 // every third lane is dead
	for i := range rows {
		rows[i] = table.Row{table.NewInt(int64(i % 211)), table.NewString(fmt.Sprintf("s%d", i%17))}
		weights[i] = 1 + float64(i%5)
		if i%3 != 0 {
			live = append(live, int32(i))
		}
	}
	// mk returns a fresh sampler and its batch entry point.
	check := func(t *testing.T, mk func() (Sampler, func(sel []int32, w []float64) []int32)) {
		for _, size := range []int{1, 7, 256, len(live)} {
			one, _ := mk()
			_, batch := mk()
			w := append([]float64(nil), weights...)
			var got []int32
			for lo := 0; lo < len(live); lo += size {
				sel := append([]int32(nil), live[lo:min(lo+size, len(live))]...)
				got = append(got, batch(sel, w)...)
			}
			var want []int32
			for _, lane := range live {
				if pass, pw := one.Admit(rows[lane], weights[lane]); pass {
					want = append(want, lane)
					if math.Float64bits(pw) != math.Float64bits(w[lane]) {
						t.Fatalf("size %d lane %d: batch weight %v, Admit weight %v", size, lane, w[lane], pw)
					}
				}
			}
			if len(want) == 0 || len(want) == len(live) {
				t.Fatalf("size %d: degenerate sample of %d/%d lanes", size, len(want), len(live))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("size %d: batch admitted %d lanes, Admit %d, or different ones", size, len(got), len(want))
			}
		}
	}
	t.Run("uniform", func(t *testing.T) {
		check(t, func() (Sampler, func([]int32, []float64) []int32) {
			u := NewUniform(0.3, 99)
			return u, u.AdmitBatch
		})
	})
	t.Run("universe", func(t *testing.T) {
		check(t, func() (Sampler, func([]int32, []float64) []int32) {
			u := NewUniverse(0.3, []int{1, 0}, 7)
			hashes := make([]uint64, n)
			return u, func(sel []int32, w []float64) []int32 {
				for _, lane := range sel {
					hashes[lane] = HashValues([]table.Value{rows[lane][1], rows[lane][0]}, u.Seed)
				}
				return u.AdmitBatch(sel, w, hashes)
			}
		})
	})
	t.Run("distinct", testDistinctBatchMatchesRef)
}

// rowDistinct drives the production distinct sampler one row at a time
// through AdmitBatch, the way the executor's row reference does: the
// stratum id of a row comes from a first-met map of its key string (the
// column's AppendKey and a NUL), and held rows live in a slice indexed
// by handle. It implements Sampler and the reference's TakePending.
type rowDistinct struct {
	d       *Distinct
	col     int
	ids     map[string]int64
	held    []table.Row
	pending []Weighted
	em      []Emit
	lanes   []int32
}

func newRowDistinct(d *Distinct, col int) *rowDistinct {
	return &rowDistinct{d: d, col: col, ids: map[string]int64{}}
}

func (s *rowDistinct) Admit(r table.Row, w float64) (bool, float64) {
	key := string(append(r[s.col].AppendKey(nil), 0))
	id, ok := s.ids[key]
	if !ok {
		id = int64(len(s.ids))
		s.ids[key] = id
	}
	ws := []float64{w}
	var pass []int32
	pass, s.em, s.lanes = s.d.AdmitBatch([]int32{0}, []int64{id}, ws, s.em[:0], s.lanes[:0])
	if len(s.lanes) > 0 {
		s.held = append(s.held, r.Clone())
	}
	for _, e := range s.em {
		s.pending = append(s.pending, Weighted{Row: s.held[e.Ref], W: e.W})
	}
	if len(pass) > 0 {
		return true, ws[0]
	}
	return false, 0
}

func (s *rowDistinct) TakePending() []Weighted {
	p := s.pending
	s.pending = nil
	return p
}

func (s *rowDistinct) Flush() []Weighted {
	var out []Weighted
	for _, e := range s.d.Flush(nil) {
		out = append(out, Weighted{Row: s.held[e.Ref], W: e.W})
	}
	return out
}

// testDistinctBatchMatchesRef holds Distinct.AdmitBatch to the row
// definition (refDistinct): the same rows let through with bit-equal
// weights, in the same order — passing lanes and overflow drains
// interleaved as they happen — and the same flush, at batch sizes 1, 7,
// 256 and all lanes with every third lane dead. The input crosses every
// mode. First come ~66 000 one-row strata, so the exact counts give way
// to the sketch at the 65 537th, with a few rows of the r-strata that
// the sketch prunes. Then heavy strata cross δ, fill and overflow their
// reservoirs and go probabilistic, medium strata are still held at the
// flush, and the r-strata return, counted by the sketch from scratch
// where exact counts would remember their first rows. Strata are (key, ⌈bucket/2.5⌉) with the bucket column over
// ints, floats, negatives, NULLs and strings. Keys are NUL-free: the
// reference's string key would merge strata whose NULs line up.
func testDistinctBatchMatchesRef(t *testing.T) {
	const n, p, delta, width = 210000, 0.1, 3, 2.5
	rows := make([]table.Row, n)
	weights := make([]float64, n)
	var live []int32
	for i := range rows {
		var key, bucket table.Value
		switch {
		case i < 100000 && i%997 == 1:
			key = table.NewString(fmt.Sprintf("r%d", (i/997)%50))
		case i < 100000:
			key = table.NewInt(int64(i)) // one-row stratum
		case i%6 == 1:
			key = table.NewString(fmt.Sprintf("m%d", (i/6)%700))
		case i%6 == 3:
			key = table.NewString(fmt.Sprintf("r%d", (i/6)%50))
		default:
			key = table.NewString(fmt.Sprintf("h%d", (i/6)%37))
		}
		switch i % 9 {
		case 0, 1:
			bucket = table.NewInt(int64(i%7 - 3))
		case 2, 3:
			bucket = table.NewFloat(float64(i%11)*0.9 - 4)
		case 4:
			bucket = table.Null
		case 5:
			bucket = table.NewString("b")
		}
		rows[i] = table.Row{key, bucket, table.NewInt(int64(i))}
		weights[i] = 1 + float64(i%5)
		if i%3 != 0 {
			live = append(live, int32(i))
		}
	}
	bucketOf := func(r table.Row) table.Value {
		v := r[1]
		if !v.IsNumeric() {
			return v
		}
		return table.NewInt(int64(math.Ceil(v.Float() / width)))
	}
	// First-met stratum ids over the live lanes.
	ids := make([]int64, n)
	idOf := map[string]int64{}
	for _, lane := range live {
		r := rows[lane]
		k := string(append(bucketOf(r).AppendKey(append(r[0].AppendKey(nil), 0)), 0))
		id, ok := idOf[k]
		if !ok {
			id = int64(len(idOf))
			idOf[k] = id
		}
		ids[lane] = id
	}
	if len(idOf) <= 1<<16 {
		t.Fatalf("%d strata do not cross the exact-count limit", len(idOf))
	}

	// emitted renders a sequence of emitted rows as (row number, weight bits).
	type emitted struct {
		row int64
		w   uint64
	}
	ref := newRefDistinct(p, []int{0}, delta, 17)
	ref.KeyFuncs = []func(table.Row) table.Value{bucketOf}
	var want, wantFlush []emitted
	drains := 0
	for _, lane := range live {
		if pass, w := ref.Admit(rows[lane], weights[lane]); pass {
			want = append(want, emitted{int64(lane), math.Float64bits(w)})
		}
		for _, fl := range ref.TakePending() {
			want = append(want, emitted{fl.Row[2].Int(), math.Float64bits(fl.W)})
			drains++
		}
	}
	for _, fl := range ref.Flush() {
		wantFlush = append(wantFlush, emitted{fl.Row[2].Int(), math.Float64bits(fl.W)})
	}
	if drains == 0 || len(wantFlush) == 0 {
		t.Fatalf("degenerate input: %d overflow drains, %d flushed rows", drains, len(wantFlush))
	}

	for _, size := range []int{1, 7, 256, len(live)} {
		d := NewDistinct(p, delta, 17)
		w := append([]float64(nil), weights...)
		var store []int32 // handle -> lane
		var got []emitted
		var sel, pass []int32
		var em []Emit
		var held []int32
		for lo := 0; lo < len(live); lo += size {
			sel = append(sel[:0], live[lo:min(lo+size, len(live))]...)
			pass, em, held = d.AdmitBatch(sel, ids, w, em[:0], held[:0])
			store = append(store, held...)
			// Passing lanes and drained rows, interleaved by Emit.At.
			next := 0
			for i := 0; i <= len(pass); i++ {
				for ; next < len(em) && int(em[next].At) == i; next++ {
					got = append(got, emitted{int64(store[em[next].Ref]), math.Float64bits(em[next].W)})
				}
				if i < len(pass) {
					got = append(got, emitted{int64(pass[i]), math.Float64bits(w[pass[i]])})
				}
			}
		}
		var gotFlush []emitted
		for _, e := range d.Flush(nil) {
			gotFlush = append(gotFlush, emitted{int64(store[e.Ref]), math.Float64bits(e.W)})
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("size %d: batch emitted %d rows, Admit %d, or different ones or weights", size, len(got), len(want))
		}
		if fmt.Sprint(gotFlush) != fmt.Sprint(wantFlush) {
			t.Fatalf("size %d: batch flushed %d rows, Flush %d, or different ones, weights or order", size, len(gotFlush), len(wantFlush))
		}
		if a, b := d.MemoryFootprint(), ref.MemoryFootprint(); a != b {
			t.Fatalf("size %d: footprint %d, reference %d", size, a, b)
		}
	}
}

// TestDistinctSketchMatchesPerLaneAdd: while exact counts rule, the
// distinct sampler hands its lossy counter one total per stratum and
// prune window. Wherever the counter is read — a MemoryFootprint in the
// middle of a window, at the 65 537th stratum (also mid-window), after
// Flush — it must equal a counter fed the same ids one Add at a time:
// the same N, entries, counts and deltas. The stream spans several
// windows with strata repeating inside them, crosses the limit, and
// goes on over old and new strata on per-lane adds, at batch sizes 1,
// 7, 256 and all lanes.
func TestDistinctSketchMatchesPerLaneAdd(t *testing.T) {
	const mid, limit = 25000, 1 << 16
	var ids []int64
	next, met, crossed := int64(900), 900, -1
	for i := 0; i < 150000; i++ {
		switch {
		case i < 30000 || i%4 == 0:
			ids = append(ids, int64(i%900))
		case met <= limit || i%3 == 0:
			ids = append(ids, next)
			next++
			if met++; met == limit+1 {
				crossed = i
			}
		default:
			ids = append(ids, int64(i%50))
		}
	}
	window := sketch.NewLossyCounter[int32](1e-4).Room()
	if crossed < 0 || int64(crossed+1)%window == 0 || int64(mid)%window == 0 || int64(len(ids)) < 3*window {
		t.Fatalf("fixture: the limit is crossed at lane %d, the mid read at %d, %d lanes, windows of %d", crossed, mid, len(ids), window)
	}
	same := func(t *testing.T, label string, got, want *sketch.LossyCounter[int32]) {
		t.Helper()
		if got.N() != want.N() || got.EntryCount() != want.EntryCount() {
			t.Fatalf("%s: N %d, %d entries; per-lane adds N %d, %d entries", label, got.N(), got.EntryCount(), want.N(), want.EntryCount())
		}
		// At s = eps every entry is reported, with count + delta.
		hg, hw := got.HeavyHitters(1e-4), want.HeavyHitters(1e-4)
		if !slices.Equal(hg, hw) {
			t.Fatalf("%s: entries or count+delta differ", label)
		}
		for _, h := range hw {
			cg, okg := got.Count(h.Key)
			cw, okw := want.Count(h.Key)
			if cg != cw || okg != okw {
				t.Fatalf("%s: stratum %d counted %d, per-lane adds %d", label, h.Key, cg, cw)
			}
		}
	}
	for _, size := range []int{1, 7, 256, -1} {
		w := make([]float64, len(ids))
		var sel []int32
		var em []Emit
		var held []int32
		admit := func(d *Distinct, ref *sketch.LossyCounter[int32], lo, hi int) {
			step := size
			if step < 0 {
				step = hi - lo
			}
			for ; lo < hi; lo += step {
				sel = sel[:0]
				for i := lo; i < min(lo+step, hi); i++ {
					sel = append(sel, int32(i))
					w[i] = 1
					ref.Add(int32(ids[i]))
				}
				_, em, held = d.AdmitBatch(sel, ids, w, em[:0], held[:0])
			}
		}
		// Flush while exact counts rule, mid-window.
		d, ref := NewDistinct(0.1, 3, 9), sketch.NewLossyCounter[int32](1e-4)
		admit(d, ref, 0, mid)
		d.Flush(nil)
		same(t, fmt.Sprintf("batch %d, Flush at lane %d", size, mid), d.counts, ref)

		d, ref = NewDistinct(0.1, 3, 9), sketch.NewLossyCounter[int32](1e-4)
		admit(d, ref, 0, mid)
		d.MemoryFootprint()
		same(t, fmt.Sprintf("batch %d, read at lane %d", size, mid), d.counts, ref)
		admit(d, ref, mid, crossed+1)
		if d.exact != nil {
			t.Fatalf("batch %d: exact counts kept past %d strata", size, limit)
		}
		same(t, fmt.Sprintf("batch %d, at stratum %d", size, limit+1), d.counts, ref)
		admit(d, ref, crossed+1, len(ids))
		d.Flush(nil)
		same(t, fmt.Sprintf("batch %d, after Flush", size), d.counts, ref)
	}
}
