package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/sampler"
	"quickr/internal/table"
)

// vecOf builds a vector of vals in the representation a sink would pick:
// typed (with a NULL bitmap where vals hold NULLs) while the non-NULL
// values share a kind, VKAny once they mix, VKNull when all are NULL.
func vecOf(vals ...table.Value) Vector {
	bd := vecBuilder{mem: newLedger()}
	for _, v := range vals {
		bd.append(v)
	}
	return bd.build()
}

func intVals(ks ...int64) []table.Value {
	out := make([]table.Value, len(ks))
	for i, k := range ks {
		out[i] = table.NewInt(k)
	}
	return out
}

func intRange(lo, hi int64) []table.Value {
	var out []table.Value
	for k := lo; k <= hi; k++ {
		out = append(out, table.NewInt(k))
	}
	return out
}

// checkCoords computes the coordinates of every live lane of each batch
// (cols, all lanes or, with sparse, the lanes i%3 != 0) through u, in
// order, and holds them to sampler.HashValues of the lanes' values.
func checkCoords(t *testing.T, u *universeLanes, batches [][]Vector, sparse bool) {
	t.Helper()
	for bi, cols := range batches {
		b := Batch{cols: cols, n: cols[0].N}
		if sparse {
			b.sel = []int32{}
			for i := 0; i < b.n; i++ {
				if i%3 != 0 {
					b.sel = append(b.sel, int32(i))
				}
			}
		}
		live := b.liveSel(nil)
		u.coords(&b, live)
		vals := make([]table.Value, len(u.s.Cols))
		for _, i := range live {
			for j, c := range u.s.Cols {
				vals[j] = cols[c].Value(int(i))
			}
			if want := sampler.HashValues(vals, u.s.Seed); u.hashes[i] != want {
				t.Fatalf("batch %d lane %d %v: coordinate %#x, HashValues %#x", bi, i, vals, u.hashes[i], want)
			}
		}
	}
}

// TestUniverseHashMatchesHashValues holds the typed kernel and the memo
// to sampler.HashValues lane for lane, over dense and selected batches:
// integer keys the memo meets again across batches (negatives, ±1e9,
// MinInt64 and MaxInt64 among them); floats at every AppendKey boundary;
// strings with NULLs under dictionaries that change between batches;
// bools, mixed kinds, all-NULL vectors and two-column keys.
func TestUniverseHashMatchesHashValues(t *testing.T) {
	nextUp, nextDown := math.Nextafter(1e18, 0), math.Nextafter(-1e18, 0)
	floats := vecOf(table.NewFloat(3), table.NewFloat(2.5), table.NewFloat(0), table.NewFloat(math.Copysign(0, -1)),
		table.NewFloat(math.NaN()), table.NewFloat(math.Inf(1)), table.NewFloat(math.Inf(-1)),
		table.NewFloat(1e18), table.NewFloat(-1e18), table.NewFloat(nextUp), table.NewFloat(nextDown),
		table.NewFloat(1e300), table.Null, table.NewFloat(-7), table.NewFloat(0.1))
	if floats.K != VKFloat || floats.nulls == nil {
		t.Fatalf("float vector is %v", floats.K)
	}
	words := func(ws ...string) Vector {
		vals := make([]table.Value, len(ws))
		for i, w := range ws {
			if w != "-" {
				vals[i] = table.NewString(w)
			}
		}
		return vecOf(vals...)
	}
	// Three dictionaries of three strings, the second the first reversed.
	s1, s2, s3 := words("x", "y", "-", "z", "x"), words("z", "y", "x", "-", "z"), words("y", "x", "w", "v", "-", "w")
	mixed := vecOf(table.NewInt(5), table.NewFloat(2.5), table.NewString("s"), table.NewBool(true), table.Null,
		table.NewFloat(5), table.NewInt(-3))
	if mixed.K != VKAny {
		t.Fatalf("mixed vector is %v", mixed.K)
	}
	nullInts := vecOf(table.NewInt(4), table.Null, table.NewInt(-4), table.NewInt(4), table.Null, table.NewInt(1<<40))
	extremes := vecOf(intVals(math.MinInt64, math.MaxInt64, math.MinInt64+1, math.MaxInt64-1, 0, 1e9, -1e9, 7)...)
	cases := []struct {
		name    string
		width   int
		batches [][]Vector
	}{
		{"int", 1, [][]Vector{
			{vecOf(intRange(-50, 949)...)},
			{vecOf(intRange(0, 5000)...)}, // half met before
			{vecOf(intRange(-20000, -19000)...)},
			{extremes},
			{vecOf(intVals(3, -19500, 1e9, math.MaxInt64, -50, 5000, math.MinInt64, 3, 3)...)}, // all met before
		}},
		{"int-nulls", 1, [][]Vector{{nullInts}, {vecOf(intRange(0, 20)...)}, {nullInts}}},
		{"float", 1, [][]Vector{{floats}, {floats}}},
		{"string", 1, [][]Vector{{s1}, {s2}, {s2}, {s3}, {s1}}},
		{"bool", 1, [][]Vector{{vecOf(table.NewBool(true), table.NewBool(false), table.Null, table.NewBool(true))}}},
		{"mixed", 1, [][]Vector{{mixed}}},
		{"all-null", 1, [][]Vector{{vecOf(table.Null, table.Null, table.Null, table.Null)}}},
		{"int-string", 2, [][]Vector{
			{vecOf(intVals(1, 2, 3, 1, 2)...), s1},
			{vecOf(intVals(1, 2, 3, 1, 2)...), s2},
		}},
		{"float-mixed", 2, [][]Vector{{floats, vecOf(append(intVals(1, 2, 3, 4, 5, 6, 7, 8), mixed.Vals...)...)}}},
	}
	for _, tc := range cases {
		for _, sparse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sparse=%v", tc.name, sparse), func(t *testing.T) {
				cols := make([]int, tc.width)
				for k := range cols {
					cols[k] = k
				}
				const seed = 42
				u := &universeLanes{s: sampler.NewUniverse(0.5, cols, seed), memo: (&executor{mem: newLedger()}).memoFor(seed)}
				checkCoords(t, u, tc.batches, sparse)
			})
		}
	}

	// Two samplers of one seed (the two inputs of a join), four tasks
	// each, resolve overlapping integer keys through the one memo at once:
	// every coordinate matches, and the memo ends holding each distinct
	// key once, published.
	t.Run("shared-memo", func(t *testing.T) {
		const seed = 9
		memo := (&executor{mem: newLedger()}).memoFor(seed)
		var wg sync.WaitGroup
		for side := 0; side < 2; side++ {
			for task := 0; task < 4; task++ {
				wg.Add(1)
				go func(side, task int) {
					defer wg.Done()
					u := &universeLanes{s: sampler.NewUniverse(0.3, []int{side}, seed), memo: memo}
					for rep := 0; rep < 8; rep++ {
						lo := int64(rep*500 + task*100)
						keys := vecOf(intRange(lo, lo+999)...)
						cols := []Vector{keys, keys}
						b := Batch{cols: cols, n: keys.N}
						live := b.liveSel(nil)
						u.coords(&b, live)
						for _, i := range live {
							if want := sampler.HashValues([]table.Value{keys.Value(int(i))}, seed); u.hashes[i] != want {
								t.Errorf("side %d task %d key %d: coordinate %#x, HashValues %#x", side, task, keys.Ints[i], u.hashes[i], want)
								return
							}
						}
					}
				}(side, task)
			}
		}
		wg.Wait()
		memo.mu.Lock()
		defer memo.mu.Unlock()
		if n, distinct := memo.keys.len(), 7*500+3*100+1000; n != distinct {
			t.Errorf("memo holds %d keys, want each of the %d distinct keys once", n, distinct)
		}
		for id := 0; id < memo.keys.len(); id++ {
			if memo.done[id>>6]&(1<<(id&63)) == 0 {
				t.Fatalf("key id %d never published", id)
			}
		}
	})

	// A task that memoized keys and never published them (it failed
	// between claim and publish) leaves them unpublished: later tasks
	// hash those lanes themselves, and publish only their own keys.
	t.Run("unpublished", func(t *testing.T) {
		const seed = 5
		memo := (&executor{mem: newLedger()}).memoFor(seed)
		lanes := func(keys Vector) *universeLanes {
			u := &universeLanes{s: sampler.NewUniverse(0.5, []int{0}, seed), memo: memo}
			u.keys, u.hashes = []Vector{keys}, make([]uint64, keys.N)
			return u
		}
		stalled := vecOf(intVals(8, 9, 8, 10)...)
		if n0, ok := memo.claim(lanes(stalled), []int32{0, 1, 2, 3}); n0 != 0 || !ok {
			t.Fatalf("an empty memo claims from id %d (%v)", n0, ok)
		}
		for _, keys := range []Vector{vecOf(intVals(9, 11, 8, 11, 10, 9)...), vecOf(intVals(11, 10, 12)...)} {
			checkCoords(t, lanes(keys), [][]Vector{{keys}}, false)
			checkCoords(t, lanes(keys), [][]Vector{{keys}}, true)
		}
		memo.mu.Lock()
		defer memo.mu.Unlock()
		for id := 0; id < memo.keys.len(); id++ {
			if published := memo.done[id>>6]&(1<<(id&63)) != 0; published != (id >= 3) {
				t.Errorf("key id %d published %v, want only the ids from 3 (11, 12)", id, published)
			}
		}
	})

	// Past universeMemoKeys the memo stops taking keys in: the batch that
	// crosses the cap is memoized, later ones hash lane by lane, and all
	// match.
	t.Run("full", func(t *testing.T) {
		const seed = 6
		memo := (&executor{mem: newLedger()}).memoFor(seed)
		u := &universeLanes{s: sampler.NewUniverse(0.5, []int{0}, seed), memo: memo}
		over := vecOf(intRange(1, universeMemoKeys+10)...)
		checkCoords(t, u, [][]Vector{{over}}, false)
		checkCoords(t, u, [][]Vector{{vecOf(intRange(universeMemoKeys, universeMemoKeys+20)...)}, {over}}, true)
		if n, want := memo.keys.len(), universeMemoKeys+10; n != want {
			t.Errorf("memo holds %d keys, want the %d of the batch that crossed the cap", n, want)
		}
	})

	// A panic inside the critical section (a task's bug, which the pool
	// turns into ErrInternal) must leave the memo unlocked, not hang the
	// query's other tasks.
	t.Run("panic-unlocks", func(t *testing.T) {
		memo := (&executor{mem: newLedger()}).memoFor(3)
		u := &universeLanes{s: sampler.NewUniverse(0.5, []int{0}, 3), memo: memo,
			keys: []Vector{vecOf(intVals(1)...)}, hashes: make([]uint64, 6)}
		func() {
			defer func() { _ = recover() }()
			memo.ints(u, []int32{5}) // lane 5 has no key
			t.Fatal("no panic")
		}()
		if !memo.mu.TryLock() {
			t.Fatal("the panic left the memo locked")
		}
		memo.mu.Unlock()
	})
}

// TestUniversePairMatchesRowReference: a fact–fact join whose inputs are
// universe-sampled on the join key with one seed (the pair ASALQA places,
// TestUniversePairForFactFactJoin), broadcast and co-partitioned, over
// 1, 2 and 8 partitions, against the row reference at batch 1/7/256/−1.
// The integer keys (some ±2e9 away from the rest) take the memo, which
// the lanes of both inputs and of concurrent tasks share; a string-keyed
// pair takes the kernel.
func TestUniversePairMatchesRowReference(t *testing.T) {
	fact := func(name string, parts, rows, stride int, key func(i int) table.Value) *table.Table {
		kind := key(0).Kind()
		tbl := table.New(name, table.NewSchema(
			table.Column{Name: "k", Kind: kind}, table.Column{Name: "v", Kind: table.KindFloat}), parts)
		for i := 0; i < rows; i++ {
			tbl.Append(i, table.Row{key(i * stride), table.NewFloat(float64(i%17) / 4)})
		}
		return tbl
	}
	intKey := func(i int) table.Value {
		if i%23 == 0 {
			return table.NewInt(int64(i%5)*1e9 - 2e9) // far past the dense bound
		}
		return table.NewInt(int64(i%3000 - 200))
	}
	strKey := func(i int) table.Value { return table.NewString(fmt.Sprintf("c%04d", i%700)) }
	for _, parts := range []int{1, 2, 8} {
		for kname, key := range map[string]func(int) table.Value{"int": intKey, "string": strKey} {
			sales := fact("usales", parts, 6000, 1, key)
			returns := fact("ureturns", parts, 1500, 3, key)
			for _, broadcast := range []bool{true, false} {
				t.Run(fmt.Sprintf("parts=%d/%s/broadcast=%v", parts, kname, broadcast), func(t *testing.T) {
					sameAsReference(t, func() PNode {
						const p, seed = 0.3, 77
						sample := func(tbl *table.Table) (PNode, lplan.ColumnID) {
							scan := scanOf(tbl)
							k := scan.OutCols[0].ID
							var in PNode = &PSample{In: scan, Def: lplan.SamplerDef{
								Type: lplan.SamplerUniverse, P: p, Cols: []lplan.ColumnID{k}, Seed: seed}}
							if !broadcast {
								in = &PExchange{In: in, Keys: []lplan.ColumnID{k}, Parts: parts}
							}
							return in, k
						}
						l, lk := sample(sales)
						r, rk := sample(returns)
						return &PHashJoin{Kind: lplan.InnerJoin, Left: l, Right: r, Broadcast: broadcast,
							LeftKeys: []lplan.ColumnID{lk}, RightKeys: []lplan.ColumnID{rk}, SharedUniverseP: p}
					})
				})
			}
		}
	}
}

// TestSamplerAdmissionNests: under one seed, the rows a uniform or a
// universe sampler admits at p₁ are a subset of those it admits at
// p₂ > p₁, at every batch size — uniform admission is draw < p over the
// same seeded draws per lane, universe admission coordinate ≤ p·(2⁶⁴−1)
// over the same coordinates — so a contract escalating p₁ → p₂ keeps
// every row it had. The distinct sampler is excluded: its δ reservoirs
// overflow after S/p rows, so which rows they hold depends on p and its
// samples do not nest.
func TestSamplerAdmissionNests(t *testing.T) {
	tbl := table.New("nests", table.NewSchema(
		table.Column{Name: "id", Kind: table.KindInt}, table.Column{Name: "k", Kind: table.KindInt}), 3)
	for i := 0; i < 6000; i++ {
		tbl.Append(i, table.Row{table.NewInt(int64(i)), table.NewInt(int64(i * 7919 % 800))})
	}
	for _, typ := range []lplan.SamplerType{lplan.SamplerUniform, lplan.SamplerUniverse} {
		for _, bs := range []int{1, 7, 256} {
			t.Run(fmt.Sprintf("%v/batch=%d", typ, bs), func(t *testing.T) {
				var prev map[int64]bool
				for _, p := range []float64{0.02, 0.1, 0.35, 0.8} {
					scan := scanOf(tbl)
					plan := &PSample{In: scan, Seed: 11, Def: lplan.SamplerDef{
						Type: typ, P: p, Cols: []lplan.ColumnID{scan.OutCols[1].ID}, Seed: 11}}
					got := map[int64]bool{}
					for _, r := range runBatched(t, plan, bs).Rows {
						got[r[0].Int()] = true
					}
					for id := range prev {
						if !got[id] {
							t.Fatalf("p=%v drops row %d that a smaller p admitted", p, id)
						}
					}
					if len(got) <= len(prev) {
						t.Fatalf("p=%v admits %d rows, no more than the smaller p's %d", p, len(got), len(prev))
					}
					prev = got
				}
			})
		}
	}
}
