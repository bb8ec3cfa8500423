package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

// TestHashIndexCollisions forces every entry onto one crafted 64-bit
// hash: the index must keep them distinct through the equality callback
// and resolve each probe to the right dense entry.
func TestHashIndexCollisions(t *testing.T) {
	const n = 100
	const h = uint64(0xdeadbeefcafef00d)
	idx := newHashIndex(4)
	keys := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if got := idx.probe(h, func(i int) bool { return keys[i] == k }); got != -1 {
			t.Fatalf("key %d found before insert (entry %d)", k, got)
		}
		keys = append(keys, k)
		if e := idx.add(h); e != k {
			t.Fatalf("add(%d) = entry %d", k, e)
		}
	}
	if idx.len() != n {
		t.Fatalf("len = %d want %d", idx.len(), n)
	}
	for k := 0; k < n; k++ {
		if got := idx.probe(h, func(i int) bool { return keys[i] == k }); got != k {
			t.Fatalf("probe key %d = %d", k, got)
		}
	}
	// A colliding-but-unequal key still reports a miss.
	if got := idx.probe(h, func(i int) bool { return false }); got != -1 {
		t.Fatalf("unequal collision probe = %d", got)
	}
}

// TestHashIndexGrowth inserts well past several doubling boundaries and
// checks every entry stays reachable, including hashes that only differ
// in bits above the initial mask.
func TestHashIndexGrowth(t *testing.T) {
	const n = 5000
	idx := newHashIndex(1)
	hash := func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }
	keys := make([]int, 0, n)
	for k := 0; k < n; k++ {
		h := hash(k)
		if got := idx.probe(h, func(i int) bool { return keys[i] == k }); got != -1 {
			t.Fatalf("key %d present before insert", k)
		}
		keys = append(keys, k)
		idx.add(h)
		// Spot-check mid-growth: everything inserted so far resolves.
		if k == 7 || k == 63 || k == 1023 {
			for j := 0; j <= k; j++ {
				hj := hash(j)
				if got := idx.probe(hj, func(i int) bool { return keys[i] == j }); got != j {
					t.Fatalf("after %d inserts, probe key %d = %d", k+1, j, got)
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		if got := idx.probe(hash(k), func(i int) bool { return keys[i] == k }); got != k {
			t.Fatalf("probe key %d = %d", k, got)
		}
	}
	if got := idx.probe(hash(n+1), func(i int) bool { return true }); got != -1 {
		t.Fatalf("absent key probe = %d", got)
	}
}

// TestRowKeyNullAndEmpty covers the degenerate key shapes a window's
// PARTITION BY hands newKeyIndex: an empty column list, NULL keys and an
// integral float beside the equal int, which must group exactly like
// the Value.Key() strings.
func TestRowKeyNullAndEmpty(t *testing.T) {
	group := func(n int, keys ...table.Vector) []int64 {
		lanes, ids := make([]int32, n), make([]int64, n)
		for i := range lanes {
			lanes[i] = int32(i)
		}
		newKeyIndex(newLedger(), ids, keys, lanes)
		return ids
	}
	x := table.NewString("x")
	for _, tc := range []struct {
		name string
		n    int
		keys []table.Vector
		want []int64
	}{
		{"empty key", 3, nil, []int64{0, 0, 0}},
		// NULL keys group together, unlike Value.Equal, where NULL≠NULL.
		{"NULL string", 4, []table.Vector{vecOf(table.Null, x, table.Null, x)}, []int64{0, 1, 0, 1}},
		{"NULL int", 4, []table.Vector{vecOf(table.NewInt(4), table.Null, table.NewInt(4), table.Null)}, []int64{0, 1, 0, 1}},
		{"float", 5, []table.Vector{vecOf(table.NewFloat(42), table.NewFloat(42), table.NewFloat(42.5), table.Null, table.NewFloat(7))},
			[]int64{0, 0, 1, 2, 3}},
		{"two keys", 4, []table.Vector{vecOf(table.Null, table.Null, table.NewInt(1), table.Null), vecOf(x, x, x, table.Null)},
			[]int64{0, 0, 1, 2}},
	} {
		if got := group(tc.n, tc.keys...); !slices.Equal(got, tc.want) {
			t.Errorf("%s: ids %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestKeyTableRoutedHashes feeds two key tables the lanes a routed
// exchange sends one destination, window by window as the aggregate's
// fold does: one table takes the routing pass's kept hashes, one hashes
// for itself, and one takes the kept hashes every other window (so the
// two must be interchangeable). All three must hand out the same ids and
// build the same key columns. The sources switch resolve's path between them: NULL-free
// ints then ints with a NULL, dictionary strings (a dictionary per
// source, some with NULLs), under either lone key and the pair.
// Every hash one destination meets shares its value modulo the
// destination count, and short strings differ in few bits: at every
// destination count and key, the entries of the destinations' group
// tables must sit on average under 0.6 slots past their hash's home
// slot. Linear probing expects at most 0.5 at the index's 50% load
// ceiling; starting from the low bits reads 8.8 at 64 destinations of
// the integer key and 1.6 at 8 of the pair, starting from the high half
// 20 for the lone string key at one.
func TestKeyTableRoutedHashes(t *testing.T) {
	const rows = 4096
	src := func(k func(i int) table.Value, s func(i int) table.Value) Part {
		pb := newPartBuilder(newLedger(), 2, rows)
		for i := 0; i < rows; i++ {
			pb.appendRow(table.Row{k(i), s(i)})
		}
		return pb.finish()
	}
	str := func(prefix string) func(int) table.Value {
		return func(i int) table.Value { return table.NewString(fmt.Sprintf("%s%d", prefix, i%37)) }
	}
	srcs := []Part{
		src(func(i int) table.Value { return table.NewInt(int64(i)) }, str("a")),
		src(func(i int) table.Value {
			if i%101 == 5 {
				return table.Null
			}
			return table.NewInt(int64(i * 7 % 5000))
		}, func(i int) table.Value {
			if i%13 == 0 {
				return table.Null
			}
			return str("b")(i)
		}),
		src(func(i int) table.Value { return table.NewInt(int64(i % 300)) }, str("a")),
		src(func(i int) table.Value {
			if i%3 == 1 {
				return table.Null
			}
			return table.NewInt(int64(i % 40))
		}, func(i int) table.Value {
			if i%3 == 1 {
				return table.Null
			}
			return str("c")(i)
		}),
	}
	const win = 64
	for _, keyIdx := range [][]int{{0}, {1}, {0, 1}} {
		for _, parts := range []int{1, 2, 3, 8, 64} {
			rt, err := routeParts(serialFan, newLedger(), srcs, 2, keyIdx, parts, win, true)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("keys %v parts %d", keyIdx, parts)
			var past, entries int
			for d := 0; d < parts; d++ {
				routed, own, mixed := newKeyTable(newLedger(), len(keyIdx)), newKeyTable(newLedger(), len(keyIdx)), newKeyTable(newLedger(), len(keyIdx))
				idsR, idsO, idsM := make([]int64, win), make([]int64, win), make([]int64, win)
				keys := make([]table.Vector, len(keyIdx))
				for i := range srcs {
					for w, pos := 0, 0; pos < rows; w, pos = w+1, pos+win {
						for k, ci := range keyIdx {
							keys[k] = srcs[i].Cols[ci].Slice(pos, win)
						}
						sel := rt.sel(i, w, d)
						hs := rt.hashes[i][pos : pos+win]
						routed.resolve(idsR, keys, sel, hs)
						own.resolve(idsO, keys, sel, nil)
						if w%2 == 1 {
							hs = nil
						}
						mixed.resolve(idsM, keys, sel, hs)
						for _, j := range sel {
							if idsR[j] != idsO[j] || idsM[j] != idsO[j] {
								t.Fatalf("%s destination %d source %d lane %d: id %d with routed hashes, %d hashing itself, %d mixing the two",
									label, d, i, pos+int(j), idsR[j], idsO[j], idsM[j])
							}
						}
					}
				}
				if routed.len() != own.len() || mixed.len() != own.len() {
					t.Fatalf("%s destination %d: %d ids with routed hashes, %d hashing itself, %d mixing the two",
						label, d, routed.len(), own.len(), mixed.len())
				}
				for k := range keyIdx {
					a, b := &routed.keys[k], &own.keys[k]
					if a.K != b.K || a.N != routed.len() || b.N != own.len() || !slices.Equal(a.Dict, b.Dict) {
						t.Fatalf("%s destination %d key %d: columns kind %d/%d, %d/%d lanes", label, d, k, a.K, b.K, a.N, b.N)
					}
					for e := 0; e < a.N; e++ {
						if !sameValue(a.Value(e), b.Value(e)) {
							t.Fatalf("%s destination %d key %d id %d: %v with routed hashes, %v hashing itself", label, d, k, e, a.Value(e), b.Value(e))
						}
					}
				}
				p, e := probeDistance(routed.idx)
				past, entries = past+p, entries+e
			}
			if mean := float64(past) / float64(entries); mean >= 0.6 {
				t.Errorf("%s: entries sit %.2f slots past their home slot on average", label, mean)
			}
		}
	}
}

// probeDistance returns how many slots past their hashes' home slots
// the entries of x sit, in total, and how many entries there are.
func probeDistance(x *hashIndex) (past, entries int) {
	for s, e := range x.slots {
		if e != 0 {
			past += int((uint64(s) - x.home(x.hash[s])) & x.mask)
			entries++
		}
	}
	return past, entries
}

// joinRowsFor builds an n-row build partition over (k, s, v) with keys
// cycling modulo dups so chains form, and the same rows boxed.
func joinRowsFor(n, dups int) (Part, []table.Row) {
	rows := make([]table.Row, n)
	pb := newPartBuilder(newLedger(), 3, n)
	for i := range rows {
		k := i % dups
		rows[i] = table.Row{
			table.NewInt(int64(k)),
			table.NewString(fmt.Sprintf("key-%04d", k)),
			table.NewFloat(float64(i)),
		}
		pb.appendRow(rows[i])
	}
	return pb.finish(), rows
}

// TestJoinTableChainOrder checks that chains visit build rows in global
// build order — the property that fixes the probe's output order — on a
// hashed two-column key, at 300 and 5 000 build rows, that ids go to
// keys in first-seen order, and that a lane's hash as table.HashRow has
// it under exchangeHashSeed is the one find looks it up by.
func TestJoinTableChainOrder(t *testing.T) {
	for _, n := range []int{300, 5000} {
		build, rows := joinRowsFor(n, 17)
		bt := buildJoinTable(newLedger(), &build, []int{0, 1}, asIs(2))
		if bt.keys.idx == nil || bt.keys.len() != 17 || len(bt.next) != n {
			t.Fatalf("n=%d: hashed=%v, %d ids, %d chained rows", n, bt.keys.idx != nil, bt.keys.len(), len(bt.next))
		}
		keys, lanes := build.Cols[:2], make([]int32, n)
		hashes, ids := make([]uint64, n), make([]int64, n)
		for i, r := range rows {
			lanes[i], hashes[i] = int32(i), table.HashRow(r, []int{0, 1}, exchangeHashSeed)
		}
		bt.keys.find(ids, keys, lanes, hashes)
		for i, id := range ids {
			if id != int64(i%17) {
				t.Fatalf("n=%d row %d: id %d, want %d", n, i, id, i%17)
			}
		}
		for k := 0; k < 17; k++ {
			var got, want []int
			for ri := bt.head[k]; ri >= 0; ri = bt.next[ri] {
				got = append(got, int(ri))
			}
			for i := k; i < n; i += 17 {
				want = append(want, i)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d key %d: chain %v, want %v", n, k, got, want)
			}
		}
		absent := []table.Vector{vectorOf(intKeys(3)), vectorOf([]table.Value{table.NewString("key-0004")})}
		hashKeys(hashes, absent, nil, exchangeHashSeed, nil, 1)
		if bt.keys.find(ids, absent, lanes[:1], hashes); ids[0] != -1 {
			t.Fatalf("n=%d: absent key found as id %d", n, ids[0])
		}
	}
}

// TestJoinTableHashCollisions forces distinct keys onto one hash through
// resolve's and find's hashes: an integer key (compared payload to
// payload), a string key and the pair (compared through keyLanesEqual)
// must each find every build key's own id, and nothing for a key the
// table never met, so key equality, not the hash, decides. Then NULL
// join keys, which all hash alike, chain no build row and match no probe
// lane, alone or in a pair.
func TestJoinTableHashCollisions(t *testing.T) {
	const n, h = 64, uint64(0xdeadbeefcafef00d)
	pb := newPartBuilder(newLedger(), 3, n)
	for i := 0; i < n; i++ {
		pb.appendRow(table.Row{table.NewInt(int64(i)), table.NewString(fmt.Sprintf("s%d", i)), table.Null})
	}
	build := pb.finish()
	cols := build.Cols
	lanes, same := make([]int32, n), make([]uint64, n)
	for i := range lanes {
		lanes[i], same[i] = int32(i), h
	}
	absent := []table.Vector{vectorOf(intKeys(n + 5)), vectorOf([]table.Value{table.NewString("s65")})}
	for _, idx := range [][]int{{0}, {1}, {0, 1}} {
		keys, miss := make([]table.Vector, len(idx)), make([]table.Vector, len(idx))
		for k, c := range idx {
			keys[k], miss[k] = cols[c], absent[c]
		}
		kt := newKeyTable(newLedger(), len(idx))
		ids, found := make([]int64, n), make([]int64, n)
		kt.resolve(ids, keys, lanes, same)
		kt.find(found, keys, lanes, same)
		if kt.len() != n || !slices.Equal(ids, found) {
			t.Fatalf("keys %v: %d ids for %d colliding keys; resolved %v, found %v", idx, kt.len(), n, ids, found)
		}
		for i, id := range found {
			if id != int64(i) {
				t.Fatalf("keys %v: key %d found as id %d", idx, i, id)
			}
		}
		if kt.find(found, miss, lanes[:1], same); found[0] != -1 {
			t.Fatalf("keys %v: a key never met found as id %d", idx, found[0])
		}
	}
	for _, idx := range [][]int{{2}, {2, 0}, {0, 2}} {
		bt := buildJoinTable(newLedger(), &build, idx, asIs(len(idx)))
		if bt.keys.len() != 0 {
			t.Fatalf("keys %v: %d ids over NULL keys", idx, bt.keys.len())
		}
		keys := make([]table.Vector, len(idx))
		for k, c := range idx {
			keys[k] = cols[c]
		}
		pl, pr := probeKeys(bt, keys, nil, true)
		if len(pl) != n || slices.ContainsFunc(pr, func(r int32) bool { return r != -1 }) {
			t.Fatalf("keys %v: NULL probe lanes paired %v %v", idx, pl, pr)
		}
	}
}

// TestJoinTableConcurrentProbes hammers three shared build tables — a
// direct-address int key, a hashed int pair and a hashed string key —
// with 32 concurrent probers, each with its own scratch (run under -race
// in CI): find must be read-only and every prober must see full chains.
func TestJoinTableConcurrentProbes(t *testing.T) {
	const n, dups, probers = 5000, 41, 32
	build, _ := joinRowsFor(n, dups)
	tables := []struct {
		idx    []int
		direct bool
	}{{[]int{0}, true}, {[]int{0, 1}, false}, {[]int{1}, false}}
	bts := make([]*joinTable, len(tables))
	for j, tc := range tables {
		bts[j] = buildJoinTable(newLedger(), &build, tc.idx, asIs(len(tc.idx)))
		if (bts[j].keys.idx == nil) != tc.direct {
			t.Fatalf("keys %v: direct=%v, want %v", tc.idx, bts[j].keys.idx == nil, tc.direct)
		}
	}
	var wantL, wantR []int32
	for k := 0; k < dups; k++ {
		for r := k; r < n; r += dups {
			wantL, wantR = append(wantL, int32(k)), append(wantR, int32(r))
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, probers)
	for p := 0; p < probers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each prober carries its keys as a one-partition probe side.
			pb := newPartBuilder(newLedger(), 2, dups)
			for k := 0; k < dups; k++ {
				pb.appendRow(table.Row{table.NewInt(int64(k)), table.NewString(fmt.Sprintf("key-%04d", k))})
			}
			probe := pb.finish()
			cols := probe.Cols
			for o := range tables {
				j := (o + p) % len(tables) // probers start on different tables
				tc := tables[j]
				keys := make([]table.Vector, len(tc.idx))
				for k, c := range tc.idx {
					keys[k] = cols[c]
				}
				pl, pr := probeKeys(bts[j], keys, nil, false)
				if !slices.Equal(pl, wantL) || !slices.Equal(pr, wantR) {
					errCh <- fmt.Errorf("prober %d keys %v: %d pairs, want %d", p, tc.idx, len(pl), len(wantL))
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// keyPart builds a one-partition build side over (k, u): the given keys
// and u = row index.
func keyPart(keys []table.Value) Part {
	pb := newPartBuilder(newLedger(), 2, len(keys))
	for i, k := range keys {
		pb.appendRow(table.Row{k, table.NewFloat(float64(i))})
	}
	return pb.finish()
}

// intKeys boxes ks as int values.
func intKeys(ks ...int64) []table.Value {
	out := make([]table.Value, len(ks))
	for i, k := range ks {
		out[i] = table.NewInt(k)
	}
	return out
}

// vectorOf builds one column from vals.
func vectorOf(vals []table.Value) table.Vector {
	pb := newPartBuilder(newLedger(), 1, len(vals))
	for _, v := range vals {
		pb.appendRow(table.Row{v})
	}
	p := pb.finish()
	return p.Cols[0]
}

// probePairs runs a probe of bt over one batch of the lone key column
// key (live lanes sel, nil = all) and returns the (probe lane, build
// row) pairs it recorded.
func probePairs(bt *joinTable, key table.Vector, sel []int32, outer bool) ([]int32, []int32) {
	return probeKeys(bt, []table.Vector{key}, sel, outer)
}

// asIs is the forms of n key pairs of one kind other than Float.
func asIs(n int) []keyForm { return make([]keyForm, n) }

// probeKeys is probePairs over the key columns keys, each paired with a
// build key of its own kind.
func probeKeys(bt *joinTable, keys []table.Vector, sel []int32, outer bool) ([]int32, []int32) {
	return probeForms(bt, keys, asIs(len(keys)), sel, outer)
}

// probeForms is probeKeys with the probe keys in the forms given.
func probeForms(bt *joinTable, keys []table.Vector, forms []keyForm, sel []int32, outer bool) ([]int32, []int32) {
	lIdx := make([]int, len(keys))
	for k := range lIdx {
		lIdx[k] = k
	}
	o := &colProbeOp{js: &joinSpec{p: &PHashJoin{}, lIdx: lIdx}, bt: bt, outer: outer,
		jk: newJoinKeys(forms), out: newPartBuilder(newLedger(), len(keys)+len(bt.cols), 0)}
	w := make([]float64, keys[0].N)
	for i := range w {
		w[i] = 1
	}
	o.probe(&Batch{cols: keys, n: keys[0].N, sel: sel, weights: w})
	return slices.Clone(o.pl), slices.Clone(o.pr)
}

// hashedJoinTable is buildJoinTable with the keys resolved through a
// hashIndex even where newKeyIndex would index them directly.
func hashedJoinTable(build *Part, keyIdx []int, forms []keyForm) *joinTable {
	mem := newLedger()
	t := &joinTable{cols: build.Cols, w: build.W, keys: newKeyTable(mem, len(keyIdx))}
	all := make([]int32, build.N)
	for i := range all {
		all[i] = int32(i)
	}
	jk := newJoinKeys(forms)
	lanes, ids := jk.set(t.cols, keyIdx, all), make([]int64, build.N)
	t.keys.resolve(ids, jk.keys, lanes, nil)
	t.thread(mem, ids, lanes)
	return t
}

// refPairs is the join's key match on boxed values, the row reference's:
// a probe lane pairs, in build order, with every build row whose key is
// Value.Equal to the lane's key (an int and a float compared in float
// space); under outer a lane with no match pairs with −1.
func refPairs(build []table.Value, key table.Vector, sel []int32, outer bool) ([]int32, []int32) {
	var pl, pr []int32
	for i := 0; i < key.N; i++ {
		if sel != nil && !slices.Contains(sel, int32(i)) {
			continue
		}
		x, matched := key.Value(i), false
		for r, k := range build {
			if x.Equal(k) {
				pl, pr, matched = append(pl, int32(i)), append(pr, int32(r)), true
			}
		}
		if !matched && outer {
			pl, pr = append(pl, int32(i)), append(pr, -1)
		}
	}
	return pl, pr
}

// TestDenseJoinMatchesHashJoin holds the direct-address join table to
// the hashed one over the same build side, pair for pair, and both to the join's key match on
// boxed values (refPairs): every probe kind, dense and selected batches,
// inner and outer pads must record identical (lane, build row) pairs,
// each key pair in the forms joinKeyForms gives its declared kinds.
// The integer build sides cover duplicates, negatives, one row, NULL
// keys, ranges exactly at the dense cutoff and one past it (hashed on
// both sides), narrow ranges at either end of int64 and integers at
// float precision's edge (1e18, 2⁶², the largest float below 2⁶³, the
// int next to 2⁵³); a float build side holds NaN, −0, 0.5, 1e18 and
// integral values. The probes are an int column with NULLs, floats that
// are integral, not, NaN, ±Inf, −0, in [1e18, 2⁶³) or beyond int64,
// and an all-NULL column. Then both join shapes run through the
// executor against the row reference, inner and left outer, with and
// without a residual, for probe keys of every kind against build keys
// they join.
func TestDenseJoinMatchesHashJoin(t *testing.T) {
	spaced := func(n int, lo, last int64) []table.Value {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = lo + int64(i)*8
		}
		ks[n-1] = last
		return intKeys(ks...)
	}
	var dups []table.Value
	for i := 0; i < 60; i++ {
		k := table.NewInt(int64(i%13 - 6))
		if i%5 == 2 {
			k = table.Null
		}
		dups = append(dups, k)
	}
	const below63 = 9223372036854774784 // the largest float64 below 2⁶³
	edges := []float64{1e18, -1e18, 0x1p62, below63, 0x1p63, 0x1p53}
	floats := func(fs ...float64) []table.Value {
		out := make([]table.Value, len(fs))
		for i, f := range fs {
			out[i] = table.NewFloat(f)
		}
		return out
	}
	builds := []struct {
		name  string
		kind  table.VecKind
		keys  []table.Value
		dense bool
	}{
		{"duplicates and negatives", table.VKInt, dups, true},
		{"one row", table.VKInt, intKeys(5), true},
		{"NULL rows", table.VKInt, []table.Value{table.Null, table.NewInt(3), table.Null, table.NewInt(3)}, true},
		{"4096 values", table.VKInt, intKeys(-100, 3995, -100, 17), true},
		{"4097 values", table.VKInt, intKeys(-100, 3996, -100, 17), false},
		{"8 values a row", table.VKInt, spaced(600, -1000, -1000+4799), true},
		{"past 8 values a row", table.VKInt, spaced(600, -1000, -1000+4800), false},
		{"top of int64", table.VKInt, intKeys(math.MaxInt64, math.MaxInt64-3, math.MaxInt64), true},
		{"bottom of int64", table.VKInt, intKeys(math.MinInt64+2, math.MinInt64, math.MinInt64+2), true},
		{"float precision", table.VKInt, intKeys(1e18, -1e18, 1<<62, below63, math.MaxInt64, 1<<53+1, 1e18), false},
		{"floats", table.VKFloat, append(floats(math.NaN(), math.Copysign(0, -1), 0.5, 1e18, 7, 7, 0x1p62, -0x1p63), table.Null), false},
	}
	for _, b := range builds {
		build := keyPart(b.keys)
		if k := build.Cols[0].K; k != b.kind {
			t.Fatalf("%s: build column of kind %d, want %d", b.name, k, b.kind)
		}
		var ints, floats []table.Value
		for _, k := range b.keys {
			if k.IsNull() {
				continue
			}
			if f := k.Float(); f == math.Trunc(f) && math.Abs(f) < 0x1p63 {
				x := int64(f)
				ints = append(ints, table.NewInt(x), table.NewInt(x-1), table.NewInt(x+1))
			}
			f := k.Float()
			floats = append(floats, table.NewFloat(f), table.NewFloat(f+0.5))
		}
		ints = append(ints, table.Null, table.NewInt(math.MinInt64), table.NewInt(math.MaxInt64), table.NewInt(0))
		floats = append(floats, table.Null, table.NewFloat(math.NaN()), table.NewFloat(math.Inf(1)),
			table.NewFloat(math.Inf(-1)), table.NewFloat(math.Copysign(0, -1)), table.NewFloat(0x1p63),
			table.NewFloat(-0x1p63), table.NewFloat(1e300), table.NewFloat(-0x1p63-4096))
		floats = append(floats, table.NewFloat(0.5), table.NewFloat(0)) // +0 meets the float build's −0
		for _, f := range edges {
			floats = append(floats, table.NewFloat(f))
		}
		probes := map[table.VecKind][]table.Value{
			table.VKInt: ints, table.VKFloat: floats,
			table.VKNull: {table.Null, table.Null, table.Null},
		}
		for kind, vals := range probes {
			key := vectorOf(vals)
			if key.K != kind {
				t.Fatalf("%s: probe column of kind %d, want %d", b.name, key.K, kind)
			}
			lf, rf := joinKeyForms([]table.Kind{table.Kind(kind)}, []table.Kind{table.Kind(b.kind)})
			dense, hashed := buildJoinTable(newLedger(), &build, []int{0}, rf), hashedJoinTable(&build, []int{0}, rf)
			if (rf[0] == formAsIs && (dense.keys.idx == nil) != b.dense) || hashed.keys.idx == nil {
				t.Fatalf("%s: built dense=%v, want %v", b.name, dense.keys.idx == nil, b.dense)
			}
			var every3 []int32
			for i := 0; i < key.N; i++ {
				if i%3 != 1 {
					every3 = append(every3, int32(i))
				}
			}
			for _, sel := range [][]int32{nil, every3} {
				for _, outer := range []bool{false, true} {
					dl, dr := probeForms(dense, []table.Vector{key}, lf, sel, outer)
					hl, hr := probeForms(hashed, []table.Vector{key}, lf, sel, outer)
					rl, rr := refPairs(b.keys, key, sel, outer)
					if !slices.Equal(dl, hl) || !slices.Equal(dr, hr) || !slices.Equal(dl, rl) || !slices.Equal(dr, rr) {
						t.Fatalf("%s, probe kind %d, sel %v, outer %v:\ndense  %v %v\nhashed %v %v\nrefPairs %v %v",
							b.name, kind, sel != nil, outer, dl, dr, hl, hr, rl, rr)
					}
				}
			}
		}
	}

	probe, build := denseJoinFixture("dj")
	for key := 0; key < 6; key++ {
		bkey := map[int]int{3: 2, 4: 3}[key] // ks and kb join the build's string and bool keys, the rest its int key
		for _, broadcast := range []bool{true, false} {
			for _, kind := range []lplan.JoinKind{lplan.InnerJoin, lplan.LeftOuterJoin} {
				for _, residual := range []bool{false, true} {
					t.Run(fmt.Sprintf("key=%s/broadcast=%v/%v/residual=%v", probe.Schema.Cols[key].Name, broadcast, kind, residual), func(t *testing.T) {
						sameAsReference(t, func() PNode {
							ls, rs := scanOf(probe), scanOf(build)
							lk, rk := []lplan.ColumnID{ls.OutCols[key].ID}, []lplan.ColumnID{rs.OutCols[bkey].ID}
							var l, r PNode = ls, rs
							if !broadcast {
								l = &PExchange{In: l, Keys: lk, Parts: 3}
								r = &PExchange{In: r, Keys: rk, Parts: 3}
							}
							j := &PHashJoin{Kind: kind, Left: l, Right: r, LeftKeys: lk, RightKeys: rk, Broadcast: broadcast}
							if residual {
								v, u := ls.OutCols[6], rs.OutCols[1]
								j.Residual = &lplan.Binary{Op: lplan.OpGt,
									L: &lplan.ColRef{ID: v.ID, Name: v.Name, Kind: v.Kind},
									R: &lplan.Binary{Op: lplan.OpMul, L: &lplan.Const{Val: table.NewInt(4)},
										R: &lplan.ColRef{ID: u.ID, Name: u.Name, Kind: u.Kind}}}
							}
							return j
						})
					})
				}
			}
		}
	}
}

// denseJoinFixture builds a probe table whose first six columns are join
// keys of every kind — ints with NULLs, floats (integral, not, NaN, ±Inf,
// −0, beyond int64), a float column appended ints and floats alike,
// strings, bools, all NULL — plus a payload v, and a build table over an
// int key with duplicates, negatives and NULLs, whose broadcast and
// co-partitioned tables are dense, plus a payload u and the string and
// bool keys the probe's string and bool keys join.
func denseJoinFixture(name string) (probe, build *table.Table) {
	probe = table.New(name+"_probe", table.NewSchema(
		table.Column{Name: "ki", Kind: table.KindInt},
		table.Column{Name: "kf", Kind: table.KindFloat},
		table.Column{Name: "km", Kind: table.KindFloat},
		table.Column{Name: "ks", Kind: table.KindString},
		table.Column{Name: "kb", Kind: table.KindBool},
		table.Column{Name: "kn", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindFloat},
	), 4)
	for i := 0; i < 400; i++ {
		x := int64(i%17 - 8)
		ki := table.NewInt(x)
		if i%9 == 4 {
			ki = table.Null
		}
		kf := []table.Value{table.NewFloat(float64(x)), table.NewFloat(float64(x) + 0.5), table.NewFloat(math.NaN()),
			table.NewFloat(math.Inf(1)), table.NewFloat(math.Inf(-1)), table.NewFloat(math.Copysign(0, -1)),
			table.NewFloat(1e19), table.NewFloat(-0x1p63), table.Null}[i%9]
		km := []table.Value{table.NewInt(x), table.NewFloat(float64(x)), table.NewFloat(float64(x) + 0.25),
			table.NewInt(x * 3), table.Null}[i%5] // Append widens the ints
		probe.Append(i, table.Row{ki, kf, km, table.NewString(fmt.Sprint(i % 5)), table.NewBool(i%2 == 0),
			table.Null, table.NewFloat(float64(i % 50))})
	}
	build = table.New(name+"_build", table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "u", Kind: table.KindFloat},
		table.Column{Name: "ks", Kind: table.KindString},
		table.Column{Name: "kb", Kind: table.KindBool},
	), 3)
	for i := 0; i < 120; i++ {
		k, ks, kb := table.NewInt(int64(i%13-6)), table.NewString(fmt.Sprint(i%7)), table.NewBool(i%3 == 0)
		if i%11 == 3 {
			k, ks, kb = table.Null, table.Null, table.Null
		}
		build.Append(i, table.Row{k, table.NewFloat(float64(i) / 8), ks, kb})
	}
	return probe, build
}

// TestJoinTableDenseChainOrder: a direct-address table's chains visit
// build rows in build order for duplicate keys, at 300 and 5 000 rows,
// with nothing hashed; NULL build keys sit on no chain and match
// nothing; a span that overflows int64 keeps the table hashed, while
// narrow ranges at either end of int64 index.
func TestJoinTableDenseChainOrder(t *testing.T) {
	for _, n := range []int{300, 5000} {
		build, _ := joinRowsFor(n, 17)
		bt := buildJoinTable(newLedger(), &build, []int{0}, asIs(1))
		if kt := bt.keys; kt.idx != nil || kt.lo != 0 || len(kt.slot) != 17 || kt.len() != 17 || kt.hashes != nil {
			t.Fatalf("n=%d: direct=%v lo=%d %d slots, %d ids, hashed %v", n, kt.idx == nil, kt.lo, len(kt.slot), kt.len(), kt.hashes != nil)
		}
		for k := 0; k < 17; k++ {
			var got, want []int
			for ri := bt.head[k]; ri >= 0; ri = bt.next[ri] {
				got = append(got, int(ri))
			}
			for i := k; i < n; i += 17 {
				want = append(want, i)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d key %d: chain %v, want %v", n, k, got, want)
			}
		}
	}

	build := keyPart([]table.Value{table.Null, table.NewInt(4), table.Null, table.NewInt(2), table.NewInt(4), table.Null})
	bt := buildJoinTable(newLedger(), &build, []int{0}, asIs(1))
	if kt := bt.keys; kt.idx != nil || kt.lo != 2 || len(kt.slot) != 3 || kt.len() != 2 {
		t.Fatalf("NULL-bearing build: direct=%v lo=%d %d slots, %d ids", kt.idx == nil, kt.lo, len(kt.slot), kt.len())
	}
	var chained []int32
	for _, h := range bt.head {
		for ri := h; ri >= 0; ri = bt.next[ri] {
			chained = append(chained, ri)
		}
	}
	if !slices.Equal(chained, []int32{1, 4, 3}) {
		t.Fatalf("chains hold build rows %v, want [1 4 3]", chained)
	}
	pl, pr := probePairs(bt, vectorOf([]table.Value{table.Null, table.NewInt(4), table.Null, table.NewInt(3)}), nil, true)
	if !slices.Equal(pl, []int32{0, 1, 1, 2, 3}) || !slices.Equal(pr, []int32{-1, 1, 4, -1, -1}) {
		t.Fatalf("NULL probe lanes: pairs %v %v, want [0 1 1 2 3] [-1 1 4 -1 -1]", pl, pr)
	}

	for _, c := range []struct {
		keys  []int64
		dense bool
	}{
		{[]int64{math.MinInt64, math.MaxInt64}, false},
		{[]int64{math.MinInt64, 0}, false},
		{[]int64{-1, math.MaxInt64}, false},
		{[]int64{math.MaxInt64, math.MaxInt64 - 1}, true},
		{[]int64{math.MinInt64 + 1, math.MinInt64}, true},
	} {
		build := keyPart(intKeys(c.keys...))
		bt := buildJoinTable(newLedger(), &build, []int{0}, asIs(1))
		if (bt.keys.idx == nil) != c.dense {
			t.Fatalf("keys %v: direct=%v, want %v", c.keys, bt.keys.idx == nil, c.dense)
		}
		pl, pr := probePairs(bt, vectorOf(intKeys(c.keys[1], c.keys[0])), nil, false)
		if !slices.Equal(pl, []int32{0, 1}) || !slices.Equal(pr, []int32{1, 0}) {
			t.Fatalf("keys %v: pairs %v %v, want [0 1] [1 0]", c.keys, pl, pr)
		}
	}
}

// aggAllocFixture builds an aggRunner with SUM and COUNT over a
// two-column (int, string) group key, optionally universe-estimated,
// plus the input to feed it: one partition of 64 groups, windowed into
// batches of 16 lanes that share the partition's dictionary.
func aggAllocFixture(est *EstimatorConfig) (*aggRunner, []Batch, error) {
	cols := []lplan.ColumnInfo{
		{ID: 9001, Name: "k", Kind: table.KindInt},
		{ID: 9002, Name: "s", Kind: table.KindString},
		{ID: 9003, Name: "v", Kind: table.KindFloat},
	}
	p := &PHashAgg{
		GroupCols: []lplan.ColumnID{9001, 9002},
		GroupInfo: cols[:2],
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggSum, Arg: 9003, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: 9004, Name: "sum_v", Kind: table.KindFloat}},
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: 9005, Name: "cnt", Kind: table.KindInt}},
		},
		Est: est,
	}
	r, err := newAggRunner(p, buildColMap(cols), newLedger())
	if err != nil {
		return nil, nil, err
	}
	const groups, lanes = 64, 16
	pb := newPartBuilder(newLedger(), len(cols), groups)
	for k := 0; k < groups; k++ {
		pb.appendRow(table.Row{
			table.NewInt(int64(k)),
			table.NewString(fmt.Sprintf("key-%04d", k)),
			table.NewFloat(float64(k) * 1.5),
		})
	}
	part := pb.finish()
	var batches []Batch
	for pos := 0; pos < part.N; pos += lanes {
		w := make([]float64, lanes)
		for i := range w {
			w[i] = 10
		}
		b := Batch{cols: part.window(nil, pos, lanes), n: lanes, weights: w}
		if pos == lanes {
			b.sel = []int32{1, 2, 3, 5, 8, 13} // one thinned batch
		}
		batches = append(batches, b)
	}
	return r, batches, nil
}

// aggSeenAllocs feeds every batch once, so that each group, subspace and
// the dictionary have been met, and returns the allocations of feeding
// a batch again.
func aggSeenAllocs(r *aggRunner, batches []Batch) float64 {
	for i := range batches {
		r.addBatch(&batches[i], nil)
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		r.addBatch(&batches[i%len(batches)], nil)
		i++
	})
}

// TestAggAddSeenGroupsZeroAllocs pins the aggregate's core allocation
// guarantee: once its groups and its dictionary have been met, folding
// another batch allocates nothing — no key strings, no table growth, no
// closure escapes, no scratch.
func TestAggAddSeenGroupsZeroAllocs(t *testing.T) {
	r, batches, err := aggAllocFixture(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := aggSeenAllocs(r, batches); got != 0 {
		t.Fatalf("aggRunner.addBatch on seen groups: %v allocs/batch, want 0", got)
	}
	// The two shapes with their own group-id path: a lone dictionary
	// string key and a lone integer key.
	for _, key := range []lplan.ColumnID{9002, 9001} {
		r, batches, _ := aggAllocFixture(nil)
		r.groupIdx, r.groups = []int{int(key - 9001)}, newKeyTable(newLedger(), 1)
		if got := aggSeenAllocs(r, batches); got != 0 {
			t.Fatalf("lone key #%d: %v allocs/batch on seen groups, want 0", key, got)
		}
	}
}

// TestAggUniverseSeenSubspacesZeroAllocs extends the zero-alloc
// guarantee to the universe-sampled variance path: seen subspaces fold
// into their per-group partial sums without allocating.
func TestAggUniverseSeenSubspacesZeroAllocs(t *testing.T) {
	est := &EstimatorConfig{Type: lplan.SamplerUniverse, P: 0.1, UniverseCols: []lplan.ColumnID{9001}}
	r, batches, err := aggAllocFixture(est)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.uniIdx) == 0 {
		t.Fatal("fixture: universe columns not resolved")
	}
	if got := aggSeenAllocs(r, batches); got != 0 {
		t.Fatalf("universe addBatch on seen subspaces: %v allocs/batch, want 0", got)
	}
}

// TestProbeKeepsSelAcrossBatches: one probe operator over a run of
// dense batches, the key NULL-free in some and not in others, drops a
// batch's NULL lanes into its own scratch, never into the batch's live
// lanes, which it reads again to pad and pair; inner and outer, for an
// int key and for a float key against an int build.
func TestProbeKeepsSelAcrossBatches(t *testing.T) {
	build := keyPart(intKeys(1, 2, 3, 2))
	for _, key := range []struct {
		kind    table.Kind
		batches [][]table.Value
	}{
		{table.KindInt, [][]table.Value{intKeys(1, 2, 3), {table.NewInt(1), table.Null, table.NewInt(2)}, intKeys(3, 9), {table.Null, table.NewInt(2)}}},
		{table.KindFloat, [][]table.Value{{table.NewFloat(1), table.NewFloat(2)}, {table.NewFloat(2.5), table.NewFloat(3), table.Null}, {table.NewFloat(2)}}},
	} {
		lf, rf := joinKeyForms([]table.Kind{key.kind}, []table.Kind{table.KindInt})
		bt := buildJoinTable(newLedger(), &build, []int{0}, rf)
		for _, outer := range []bool{false, true} {
			o := &colProbeOp{js: &joinSpec{p: &PHashJoin{}, lIdx: []int{0}}, bt: bt, outer: outer,
				jk: newJoinKeys(lf), out: newPartBuilder(newLedger(), 1+len(bt.cols), 0)}
			for bi, vals := range key.batches {
				v := vectorOf(vals)
				w := make([]float64, v.N)
				o.probe(&Batch{cols: []table.Vector{v}, n: v.N, weights: w})
				wl, wr := refPairs([]table.Value{table.NewInt(1), table.NewInt(2), table.NewInt(3), table.NewInt(2)}, v, nil, outer)
				if !slices.Equal(o.pl, wl) || !slices.Equal(o.pr, wr) {
					t.Fatalf("%v key, outer %v, batch %d %v: pairs %v %v, want %v %v", key.kind, outer, bi, vals, o.pl, o.pr, wl, wr)
				}
			}
		}
	}
}
