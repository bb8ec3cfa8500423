package exec

import (
	"fmt"
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

// TestRowKeyNullAndEmpty covers the degenerate key shapes: an empty
// column list (global aggregate) and NULL key columns, which must group
// together exactly like the legacy Value.Key() strings did.
func TestRowKeyNullAndEmpty(t *testing.T) {
	a := table.Row{table.NewInt(1), table.Null, table.NewString("x")}
	b := table.Row{table.NewInt(2), table.Null, table.NewString("y")}

	// Empty key: every row shares one group.
	if hashRowKey(a, nil) != hashRowKey(b, nil) {
		t.Fatal("empty-key hashes differ")
	}
	if !rowKeyEqualRows(a, b, nil) {
		t.Fatal("empty-key rows not equal")
	}
	if got := appendRowKey(nil, a, nil); len(got) != 0 {
		t.Fatalf("empty-key string = %q", got)
	}

	// NULL columns group together (unlike Value.Equal, where NULL≠NULL).
	idx := []int{1}
	if hashRowKey(a, idx) != hashRowKey(b, idx) {
		t.Fatal("NULL-key hashes differ")
	}
	if !rowKeyEqualRows(a, b, idx) {
		t.Fatal("NULL keys not equal")
	}

	// And the canonical string matches Value.Key() + NUL exactly.
	want := table.Null.Key() + "\x00" + table.NewString("x").Key() + "\x00"
	if got := string(appendRowKey(nil, a, []int{1, 2})); got != want {
		t.Fatalf("key string = %q want %q", got, want)
	}

	// Integral float and int keys collapse, as Value.Key() does.
	fi := table.Row{table.NewFloat(42)}
	ii := table.Row{table.NewInt(42)}
	if hashRowKey(fi, []int{0}) != hashRowKey(ii, []int{0}) {
		t.Fatal("float 42.0 and int 42 hash differently")
	}
	if !rowKeyEqualRows(fi, ii, []int{0}) {
		t.Fatal("float 42.0 and int 42 not key-equal")
	}
}

// TestKeyTableRoutedHashes feeds two key tables the lanes a routed
// exchange sends one destination, window by window as the aggregate's
// fold does: one table takes the routing pass's kept hashes, one hashes
// for itself, and one takes the kept hashes every other window (so the
// two must be interchangeable). All three must hand out the same ids and
// build the same key columns. The sources switch resolve's path between them: NULL-free
// ints then ints with a NULL, dictionary strings (a dictionary per
// source) then a mixed-kind column, under either lone key and the pair.
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
		pb := newPartBuilder(2, rows)
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
			if i%2 == 0 {
				return table.NewFloat(float64(i%50) / 2) // 1.0 is the int 1's key, 0.5 no int's
			}
			return table.NewInt(int64(i % 40))
		}, func(i int) table.Value {
			switch i % 3 {
			case 0:
				return table.NewInt(int64(i % 7))
			case 1:
				return table.Null
			}
			return str("a")(i)
		}),
	}
	const win = 64
	for _, keyIdx := range [][]int{{0}, {1}, {0, 1}} {
		for _, parts := range []int{1, 2, 3, 8, 64} {
			rt, err := routeParts(serialFan, srcs, 2, keyIdx, parts, win, true)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("keys %v parts %d", keyIdx, parts)
			var past, entries int
			for d := 0; d < parts; d++ {
				routed, own, mixed := newKeyTable(len(keyIdx)), newKeyTable(len(keyIdx)), newKeyTable(len(keyIdx))
				idsR, idsO, idsM := make([]int64, win), make([]int64, win), make([]int64, win)
				keys := make([]Vector, len(keyIdx))
				for i := range srcs {
					for w, pos := 0, 0; pos < rows; w, pos = w+1, pos+win {
						for k, ci := range keyIdx {
							keys[k] = window(&srcs[i].Cols[ci], pos, win)
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
	pb := newPartBuilder(3, n)
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
// build order — the property that fixes the probe's output order — for
// both the serial (1-shard) and the parallel (sharded) build sizes, and
// that the table's key-vector hashes are the row hashes probes look up.
func TestJoinTableChainOrder(t *testing.T) {
	for _, n := range []int{300, 5000} { // below and above the shard cutoff
		build, rows := joinRowsFor(n, 17)
		bt, err := buildJoinTable(&build, []int{0, 1}, serialFan)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if want := table.HashRow(r, []int{0, 1}, joinHashSeed); bt.hashes[i] != want {
				t.Fatalf("n=%d row %d: key-vector hash %x, HashRow %x", n, i, bt.hashes[i], want)
			}
		}
		for k := 0; k < 17; k++ {
			h := table.HashRow(rows[k], []int{0, 1}, joinHashSeed)
			var got []int
			for ri := bt.lookup(h); ri >= 0; ri = bt.next[ri] {
				got = append(got, int(ri))
			}
			var want []int
			for i := k; i < n; i += 17 {
				want = append(want, i)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d key %d: chain len %d want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d key %d: chain[%d]=%d want %d (order broken)", n, k, i, got[i], want[i])
				}
			}
		}
		if bt.lookup(0x1234) != -1 {
			t.Fatal("absent hash found")
		}
	}
}

// TestJoinTableHashCollisions forces distinct keys onto one chain: a
// column of values that all hash alike under HashRow (NULLs, which equal
// nothing) next to a real key. The probe's key compare, not the hash,
// must decide every match.
func TestJoinTableHashCollisions(t *testing.T) {
	const n = 64
	pb := newPartBuilder(2, n)
	for i := 0; i < n; i++ {
		pb.appendRow(table.Row{table.Null, table.NewInt(int64(i))})
	}
	build := pb.finish()
	bt, err := buildJoinTable(&build, []int{0}, serialFan) // every row: the same NULL-key hash
	if err != nil {
		t.Fatal(err)
	}
	chain := 0
	for ri := bt.lookup(bt.hashes[0]); ri >= 0; ri = bt.next[ri] {
		if int(ri) != chain {
			t.Fatalf("chain[%d] = %d", chain, ri)
		}
		chain++
	}
	if chain != n {
		t.Fatalf("colliding chain holds %d rows, want %d", chain, n)
	}
	// All n rows collide, none is key-equal to anything: NULL = NULL is false.
	probe := build.vectors()[:1]
	for ri := bt.lookup(bt.hashes[0]); ri >= 0; ri = bt.next[ri] {
		if lanesEqual(probe, 0, bt.keys, int(ri)) {
			t.Fatalf("NULL key matched build row %d", ri)
		}
	}
	// An int probe key whose hash equals no build hash finds no chain; one
	// compared against a colliding chain of other ints matches only itself.
	bt2, err := buildJoinTable(&build, []int{1}, serialFan)
	if err != nil {
		t.Fatal(err)
	}
	keys := build.vectors()[1:]
	for i := 0; i < n; i++ {
		matches := 0
		for ri := bt2.lookup(bt2.hashes[i]); ri >= 0; ri = bt2.next[ri] {
			if lanesEqual(keys, i, bt2.keys, int(ri)) {
				matches++
			}
		}
		if matches != 1 {
			t.Fatalf("key %d matched %d build rows, want 1", i, matches)
		}
	}
}

// TestJoinTableParallelBuildMatchesSerial builds the same sharded table
// through a genuinely concurrent fan-out and through serialFan; the
// resulting directories must be identical structures.
func TestJoinTableParallelBuildMatchesSerial(t *testing.T) {
	build, rows := joinRowsFor(6000, 113)
	concurrent := func(n int, fn func(i int) error) error {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fn(i)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	a, err := buildJoinTable(&build, []int{0, 1}, serialFan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildJoinTable(&build, []int{0, 1}, concurrent)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.next) != len(b.next) {
		t.Fatalf("next len %d vs %d", len(a.next), len(b.next))
	}
	for i := range a.next {
		if a.next[i] != b.next[i] {
			t.Fatalf("next[%d]: %d vs %d", i, a.next[i], b.next[i])
		}
	}
	for i := range rows {
		if a.hashes[i] != b.hashes[i] {
			t.Fatalf("hashes[%d]: %x vs %x", i, a.hashes[i], b.hashes[i])
		}
		if a.lookup(a.hashes[i]) != b.lookup(b.hashes[i]) {
			t.Fatalf("lookup(hashes[%d]) differs", i)
		}
	}
}

// TestJoinTableConcurrentProbes hammers one shared build table with 32
// concurrent probers (run under -race in CI): the read-only probe path
// must be free of data races and every prober must see full chains.
func TestJoinTableConcurrentProbes(t *testing.T) {
	const n, dups, probers = 5000, 41, 32
	build, _ := joinRowsFor(n, dups)
	bt, err := buildJoinTable(&build, []int{0, 1}, serialFan)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, probers)
	for p := 0; p < probers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each prober carries its keys as a one-partition probe side.
			pb := newPartBuilder(2, dups)
			for k := 0; k < dups; k++ {
				pb.appendRow(table.Row{table.NewInt(int64(k)), table.NewString(fmt.Sprintf("key-%04d", k))})
			}
			probe := pb.finish()
			keys := probe.vectors()
			hashes := make([]uint64, dups)
			hashKeys(hashes, keys, nil, joinHashSeed, nil, dups)
			for k := 0; k < dups; k++ {
				cnt := 0
				for ri := bt.lookup(hashes[k]); ri >= 0; ri = bt.next[ri] {
					if !lanesEqual(keys, k, bt.keys, int(ri)) {
						errCh <- fmt.Errorf("prober %d key %d: wrong row in chain", p, k)
						return
					}
					cnt++
				}
				want := n / dups
				if k < n%dups {
					want++
				}
				if cnt != want {
					errCh <- fmt.Errorf("prober %d key %d: %d matches want %d", p, k, cnt, want)
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
	r, err := newAggRunner(p, buildColMap(cols))
	if err != nil {
		return nil, nil, err
	}
	const groups, lanes = 64, 16
	pb := newPartBuilder(len(cols), groups)
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
		r.groupIdx, r.groups = []int{int(key - 9001)}, newKeyTable(1)
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
