package exec

import (
	"fmt"
	"math"
	"testing"

	"quickr/internal/data"
	"quickr/internal/lplan"
	"quickr/internal/sampler"
	"quickr/internal/table"
)

// vecOf builds a vector of vals, whose non-NULL values share a kind, in
// the representation a sink would pick: typed (with a NULL bitmap where
// vals hold NULLs), VKNull when all are NULL.
func vecOf(vals ...table.Value) table.Vector {
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
func checkCoords(t *testing.T, u *universeLanes, batches [][]table.Vector, sparse bool) {
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

// TestUniverseHashMatchesHashValues holds the typed kernel to
// sampler.HashValues lane for lane, over dense and selected batches of
// every vector kind: integers (negatives, ±1e9, MinInt64 and MaxInt64
// among them) with and without NULLs; floats with NaN, ±0, ±Inf and
// either side of ±1e18; strings with NULLs under dictionaries that
// change between batches; bools, an int column whose batches mix its
// representations (all NULL, NULL-bearing, NULL-free), all-NULL vectors
// and two-column keys.
func TestUniverseHashMatchesHashValues(t *testing.T) {
	nextUp, nextDown := math.Nextafter(1e18, 0), math.Nextafter(-1e18, 0)
	floats := vecOf(table.NewFloat(3), table.NewFloat(2.5), table.NewFloat(0), table.NewFloat(math.Copysign(0, -1)),
		table.NewFloat(math.NaN()), table.NewFloat(math.Inf(1)), table.NewFloat(math.Inf(-1)),
		table.NewFloat(1e18), table.NewFloat(-1e18), table.NewFloat(nextUp), table.NewFloat(nextDown),
		table.NewFloat(1e300), table.Null, table.NewFloat(-7), table.NewFloat(0.1))
	if floats.K != table.VKFloat || floats.Nulls == nil {
		t.Fatalf("float vector is %v", floats.K)
	}
	words := func(ws ...string) table.Vector {
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
	nullInts := vecOf(table.NewInt(4), table.Null, table.NewInt(-4), table.NewInt(4), table.Null, table.NewInt(1<<40))
	extremes := vecOf(intVals(math.MinInt64, math.MaxInt64, math.MinInt64+1, math.MaxInt64-1, 0, 1e9, -1e9, 7)...)
	cases := []struct {
		name    string
		width   int
		batches [][]table.Vector
	}{
		{"int", 1, [][]table.Vector{{vecOf(intRange(-50, 949)...)}, {extremes}}},
		{"int-nulls", 1, [][]table.Vector{{nullInts}, {vecOf(intRange(0, 20)...)}}},
		{"float", 1, [][]table.Vector{{floats}}},
		{"string", 1, [][]table.Vector{{s1}, {s2}, {s3}}},
		{"bool", 1, [][]table.Vector{{vecOf(table.NewBool(true), table.NewBool(false), table.Null, table.NewBool(true))}}},
		{"mixed", 1, [][]table.Vector{{vecOf(table.Null, table.Null)}, {nullInts}, {vecOf(intVals(5, -3, 1e18)...)}}},
		{"all-null", 1, [][]table.Vector{{vecOf(table.Null, table.Null, table.Null, table.Null)}}},
		{"int-string", 2, [][]table.Vector{
			{vecOf(intVals(1, 2, 3, 1, 2)...), s1},
			{vecOf(intVals(1, 2, 3, 1, 2)...), s2},
		}},
		{"float-mixed", 2, [][]table.Vector{
			{floats, vecOf(append(intVals(1, 2, 3, 4, 5, 6), nullInts.Value(1), table.NewInt(1e18), table.Null, table.NewInt(-3),
				table.NewInt(5), table.NewInt(5), table.NewInt(-1e18), table.NewInt(0), table.NewInt(7))...)},
			{vecOf(table.Null, table.NewFloat(2.5)), vecOf(table.Null, table.Null)},
		}},
	}
	for _, tc := range cases {
		for _, sparse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sparse=%v", tc.name, sparse), func(t *testing.T) {
				cols := make([]int, tc.width)
				for k := range cols {
					cols[k] = k
				}
				checkCoords(t, &universeLanes{s: sampler.NewUniverse(0.5, cols, 42)}, tc.batches, sparse)
			})
		}
	}
}

// coordsOf returns the coordinate under seed of every lane of the lone
// key vector keys, computed as the sampler computes it.
func coordsOf(keys table.Vector, seed uint64) []uint64 {
	u := &universeLanes{s: sampler.NewUniverse(0.5, []int{0}, seed)}
	b := Batch{cols: []table.Vector{keys}, n: keys.N}
	u.coords(&b, b.liveSel(nil))
	return u.hashes
}

// chiSquareCrit is the χ² value with dof degrees of freedom that a
// uniform draw exceeds with probability about 1e-4 (Wilson–Hilferty).
func chiSquareCrit(dof int) float64 {
	k := float64(dof)
	c := 1 - 2/(9*k) + 3.719*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// tpcdsKeys returns the distinct values of the generator's surrogate
// key columns of store_sales, by column.
func tpcdsKeys(t *testing.T) map[string][]int64 {
	t.Helper()
	ss := data.GenerateTPCDS(data.DefaultTPCDS()).Tables["store_sales"]
	out := map[string][]int64{}
	for _, name := range []string{"ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_ticket_number"} {
		c := ss.Schema.Index(name)
		seen := map[int64]bool{}
		for _, r := range ss.AllRows() {
			if k := r[c].Int(); !seen[k] {
				seen[k] = true
				out[name] = append(out[name], k)
			}
		}
	}
	return out
}

// TestUniverseCoordinatesUniform: over sequential integers and the
// TPC-DS surrogate keys, under several seeds, the coordinates of the
// distinct keys fall into equal-width bins of [0, 2⁶⁴) as a uniform
// draw would, by a χ² test at about 1e-4 per key set and seed. The
// admitted share of a p-fraction subspace is then p per key, whatever
// the key's distribution.
func TestUniverseCoordinatesUniform(t *testing.T) {
	sets := tpcdsKeys(t)
	seq := make([]int64, 50000)
	for i := range seq {
		seq[i] = int64(i + 1)
	}
	sets["sequential"] = seq
	for name, keys := range sets {
		bins := 64
		for bins > 2 && len(keys)/bins < 20 {
			bins /= 2
		}
		vals := make([]table.Value, len(keys))
		for i, k := range keys {
			vals[i] = table.NewInt(k)
		}
		for _, seed := range []uint64{1, 2, 3, 7, 42, 1 << 40} {
			counts := make([]float64, bins)
			for _, h := range coordsOf(vecOf(vals...), seed) {
				counts[h/(math.MaxUint64/uint64(bins)+1)]++
			}
			want, chi := float64(len(keys))/float64(bins), 0.0
			for _, c := range counts {
				chi += (c - want) * (c - want) / want
			}
			if crit := chiSquareCrit(bins - 1); chi > crit {
				t.Errorf("%s (%d keys), seed %d: χ² %.1f over %d bins exceeds %.1f", name, len(keys), seed, chi, bins, crit)
			}
		}
	}
}

// TestUniverseIndependentOfRouting: among the keys an exchange routes to
// one destination (hashKeys under exchangeHashSeed, modulo the
// destination count), a universe sampler admits a p share of keys,
// within five binomial standard deviations — also under a universe seed
// equal to exchangeHashSeed, where both hash chains are the same word
// before the sampler mixes it.
func TestUniverseIndependentOfRouting(t *testing.T) {
	keys := vecOf(intRange(1, 40000)...)
	route := make([]uint64, keys.N)
	hashKeys(route, []table.Vector{keys}, nil, exchangeHashSeed, nil, keys.N)
	for _, seed := range []uint64{exchangeHashSeed, 1, 3} {
		coords := coordsOf(keys, seed)
		for _, p := range []float64{0.05, 0.3} {
			sel := make([]int32, keys.N)
			for i := range sel {
				sel[i] = int32(i)
			}
			sel = sampler.NewUniverse(p, []int{0}, seed).AdmitBatch(sel, make([]float64, keys.N), coords)
			for _, parts := range []int{2, 3, 8, 16} {
				n, admitted := make([]float64, parts), make([]float64, parts)
				for _, h := range route {
					n[h%uint64(parts)]++
				}
				for _, i := range sel {
					admitted[route[i]%uint64(parts)]++
				}
				for d := range n {
					if dev := math.Abs(admitted[d]/n[d] - p); dev > 5*math.Sqrt(p*(1-p)/n[d]) {
						t.Errorf("seed %d, %d destinations, p=%v: destination %d admits %.4f of its %v keys", seed, parts, p, d, admitted[d]/n[d], n[d])
					}
				}
			}
		}
	}
}

// TestUniverseJoinEqualKeysShareCoordinates: two paired samplers, one
// over each input of a join, give every pair of keys the join matches
// (Value.Equal and Hash64-equal) one coordinate, and so admit or drop
// both: an int and the equal integral float, at 10¹⁸ and 2⁵³ too, and
// −0 beside 0, each side a column of its own kind.
func TestUniverseJoinEqualKeysShareCoordinates(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pairs := [][2]table.Value{
		{table.NewInt(1e18), table.NewFloat(1e18)},
		{table.NewInt(-1e18), table.NewFloat(-1e18)},
		{table.NewInt(1 << 53), table.NewFloat(1 << 53)},
		{table.NewInt(0), table.NewFloat(negZero)},
		{table.NewFloat(0), table.NewFloat(negZero)},
		{table.NewInt(-5), table.NewFloat(-5)},
		{table.NewString("k"), table.NewString("k")},
		{table.NewBool(true), table.NewBool(true)},
	}
	for _, pr := range pairs {
		if !pr[0].Equal(pr[1]) || pr[0].Hash64() != pr[1].Hash64() {
			t.Fatalf("%v and %v do not join", pr[0], pr[1])
		}
		for _, seed := range []uint64{1, exchangeHashSeed, 31} {
			l, r := vecOf(pr[0]), vecOf(pr[1])
			if lc, rc := coordsOf(l, seed), coordsOf(r, seed); lc[0] != rc[0] {
				t.Errorf("seed %d: %v (%v) and %v (%v) have coordinates %#x and %#x", seed, pr[0], l.K, pr[1], r.K, lc[0], rc[0])
			}
		}
	}
}

// TestUniversePairMatchesRowReference: a fact–fact join whose inputs are
// universe-sampled on the join key with one seed (the pair ASALQA places,
// TestUniversePairForFactFactJoin), broadcast and co-partitioned, over
// 1, 2 and 8 partitions, against the row reference at batch 1/7/256/−1,
// with integer keys (some ±2e9 away from the rest) and string keys.
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
