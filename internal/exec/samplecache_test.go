package exec

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/table"
)

// sampleOver builds a uniform sampler fragment over the given input.
func sampleOver(in PNode, p float64, seed uint64) *PSample {
	return &PSample{In: in, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: p}, Seed: seed}
}

func TestCacheableFragmentShapes(t *testing.T) {
	tbl, _ := buildT("cf", 2, [][2]float64{{1, 10}, {2, 20}, {3, 30}})
	scan := scanOf(tbl)
	kCol := scan.OutCols[0]
	gt := &lplan.Binary{Op: lplan.OpGt,
		L: &lplan.ColRef{ID: kCol.ID, Name: "k", Kind: table.KindInt},
		R: &lplan.Const{Val: table.NewInt(1)}}

	cases := []struct {
		name string
		frag PNode
		want bool
	}{
		{"sampler over scan", sampleOver(scan, 0.5, 7), true},
		{"sampler over filter over scan", sampleOver(&PFilter{In: scan, Pred: gt}, 0.5, 7), true},
		{"sampler over sampler over scan", sampleOver(sampleOver(scan, 0.5, 1), 0.5, 2), true},
		{"pass-through sampler", &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerPassThrough, P: 1}}, false},
		{"p = 0", sampleOver(scan, 0, 7), false},
		{"p = 1", sampleOver(scan, 1, 7), false},
		{"bare scan", scan, false},
		{"sampler over breaker", sampleOver(&PExchange{In: scan, Parts: 1}, 0.5, 7), false},
	}
	for _, c := range cases {
		if got := CacheableFragment(c.frag); got != c.want {
			t.Errorf("%s: CacheableFragment = %v, want %v", c.name, got, c.want)
		}
	}
	if s := FragmentScan(sampleOver(&PFilter{In: scan, Pred: gt}, 0.5, 7)); s != scan {
		t.Errorf("FragmentScan did not find the base scan: %v", s)
	}
}

func TestFragmentKeySensitivity(t *testing.T) {
	tbl, _ := buildT("fk", 2, [][2]float64{{1, 10}, {2, 20}})
	build := func(mut func(s *PSample, sc *PScan)) string {
		sc := scanOf(tbl)
		frag := sampleOver(sc, 0.25, 9)
		mut(frag, sc)
		return FragmentKey(frag)
	}
	base := build(func(*PSample, *PScan) {})
	if again := build(func(*PSample, *PScan) {}); again != base {
		t.Fatalf("identical fragments produced different keys:\n%s\n%s", base, again)
	}
	variants := map[string]string{
		"different p":    build(func(s *PSample, _ *PScan) { s.Def.P = 0.5 }),
		"different seed": build(func(s *PSample, _ *PScan) { s.Seed = 10 }),
		"universe seed":  build(func(s *PSample, _ *PScan) { s.Def.Seed = 42 }),
		"sampler type": build(func(s *PSample, sc *PScan) {
			s.Def.Type = lplan.SamplerDistinct
			s.Def.Cols = []lplan.ColumnID{sc.OutCols[0].ID}
		}),
		"fewer scan cols": build(func(_ *PSample, sc *PScan) { sc.ColIdx = sc.ColIdx[:1]; sc.OutCols = sc.OutCols[:1] }),
	}
	for name, key := range variants {
		if key == base {
			t.Errorf("%s: key did not change from base %q", name, base)
		}
	}
}

// cachedFixture builds n single-column rows into a cache entry of a
// known, deterministic byte size for LRU tests.
func cachedFixture(n int) []Part {
	pb := newPartBuilder(newLedger(), 1, n)
	for i := 0; i < n; i++ {
		pb.appendRow(table.Row{table.NewFloat(float64(i))})
	}
	return []Part{pb.finish()}
}

// replayCached drains cached partitions through the chain's partition
// source at the given batch size into fresh partitions. Each batch's
// weights are overwritten after its rows are taken, the way downstream
// samplers scale them in place: a later replay must not see it.
func replayCached(cached []Part, batch int) []Part {
	parts := make([]Part, len(cached))
	for i := range cached {
		src := &partSource{p: &cached[i], size: resolveBatch(batch)}
		pb := newPartBuilder(newLedger(), len(cached[i].Cols), 0)
		for {
			b, _ := src.Next() // the partition source never fails
			if b.Len() == 0 {
				break
			}
			pb.appendBatch(&b)
			for j := range b.weights {
				b.weights[j] = -1
			}
		}
		parts[i] = pb.finish()
	}
	return parts
}

func TestSampleCacheLRUAndAdmission(t *testing.T) {
	parts := cachedFixture(10)
	entryBytes := cachedPartBytes(&parts[0]) + 2 // keys below are all 2 bytes
	// Budget fits exactly eight entries; admission rejects anything over
	// a quarter of the budget, so each entry is comfortably admitted.
	c := NewSampleCache(8 * entryBytes)

	c.Put("a0", cachedFixture(10), 0)
	c.Put("b0", cachedFixture(10), 0)
	if c.Len() != 2 || c.Bytes() != 2*entryBytes {
		t.Fatalf("after two puts: len=%d bytes=%d want 2 x %d", c.Len(), c.Bytes(), entryBytes)
	}
	if _, _, ok := c.Get("a0"); !ok {
		t.Fatal("a0 missing after put")
	}

	// Fill to the budget, then one more: the LRU victim must be b (a was
	// just touched).
	evict0 := metrics.SampleCacheEvictions.Load()
	for i := 0; i < 7; i++ {
		c.Put(fmt.Sprintf("f%d", i), cachedFixture(10), 0)
	}
	if _, _, ok := c.Get("b0"); ok {
		t.Error("b0 survived eviction although it was least recently used")
	}
	if _, _, ok := c.Get("a0"); !ok {
		t.Error("a0 evicted although it was most recently used")
	}
	if got := metrics.SampleCacheEvictions.Load() - evict0; got == 0 {
		t.Error("eviction gauge did not move")
	}
	if c.Bytes() > c.Budget() {
		t.Errorf("cache over budget: %d > %d", c.Bytes(), c.Budget())
	}

	// Admission control: an entry above budget/4 is rejected, not admitted.
	rej0 := metrics.SampleCacheRejects.Load()
	before := c.Len()
	c.Put("giant", cachedFixture(100), 0)
	if c.Len() != before {
		t.Error("oversized entry was admitted")
	}
	if metrics.SampleCacheRejects.Load() == rej0 {
		t.Error("reject gauge did not move for oversized entry")
	}
	if _, _, ok := c.Get("giant"); ok {
		t.Error("oversized entry retrievable after rejection")
	}

	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("purge left len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if _, _, ok := c.Get("a0"); ok {
		t.Error("a0 retrievable after purge")
	}
}

func TestCachedRoundTripBitIdentical(t *testing.T) {
	rows := []wrow{
		newWRow(table.Row{table.NewInt(7), table.NewFloat(1.5), table.NewString("x")}, 4.0),
		newWRow(table.Row{table.NewInt(-1), table.NewFloat(math.Inf(1)), table.NewString("")}, 0.125),
		newWRow(table.Row{table.NewInt(0), table.Null, table.NewString("y")}, 1.0),
	}
	pb := newPartBuilder(newLedger(), 3, 0)
	for _, r := range rows {
		pb.appendRow(r.row)
		pb.w[len(pb.w)-1] = r.w
	}
	cached := []Part{pb.finish(), emptyPart(3)}
	want := [][]wrow{rows, nil}
	for _, bs := range []int{1, 2, 0, -1} {
		// Replays copy weights per batch: trashing one replay's batches
		// must not corrupt the entry or a later replay.
		sameParts(t, want, replayCached(cached, bs), fmt.Sprintf("batch=%d first replay", bs))
		sameParts(t, want, replayCached(cached, bs), fmt.Sprintf("batch=%d second replay", bs))
	}
	sameParts(t, want, cached, "entry after replays")
}

// TestCachedPartBytesChargesPayloads pins the budget charge of a
// partition to its typed payloads: 8 B a lane of ints or floats, 8 B a
// NULL bitmap word, a dictionary string's length plus 16, 8 B a weight.
func TestCachedPartBytesChargesPayloads(t *testing.T) {
	const n = 100
	pb := newPartBuilder(newLedger(), 3, n)
	for i := 0; i < n; i++ {
		f := table.NewFloat(float64(i) + 0.5)
		if i%2 == 1 {
			f = table.Null
		}
		pb.appendRow(table.Row{table.NewInt(int64(i)), f, table.NewString([]string{"ab", "cde"}[i%2])})
	}
	part := pb.finish()
	if k := []table.VecKind{part.Cols[0].K, part.Cols[1].K, part.Cols[2].K}; k[0] != table.VKInt || k[1] != table.VKFloat || k[2] != table.VKStr {
		t.Fatalf("fixture: columns of kinds %v", k)
	}
	want := int64(n)*8 + int64(n)*8 + int64(len(part.Cols[1].Nulls))*8 + int64(n)*8 + (2 + 16) + (3 + 16) + int64(n)*8
	if got := cachedPartBytes(&part); got != want {
		t.Errorf("partition charged %d bytes, want %d", got, want)
	}
}

// cachedAggPlan builds SUM(v)/COUNT(*) over a cached uniform sampler on
// tbl, its cached node over sc (nil: no cache). Identical (seed, key)
// plans must produce identical results whether served cold, from the
// lazy fallback, or from a warm cache.
// Unfused, the cached node feeds an exchange; fused, a filter and the
// aggregate itself sit in the chain the cached node is the source of.
func cachedAggPlan(tbl *table.Table, sc *SampleCache, seed uint64, fused bool) PNode {
	scan := scanOf(tbl)
	v := scan.OutCols[1]
	frag := sampleOver(scan, 0.5, seed)
	cs := &PCachedSample{Frag: frag, Key: FragmentKey(frag), SamplerP: 0.5, Cache: sc}
	var in PNode = &PExchange{In: cs, Parts: 1}
	if fused {
		in = &PFilter{In: cs, Pred: &lplan.Binary{Op: lplan.OpGe,
			L: &lplan.ColRef{ID: v.ID, Name: "v", Kind: table.KindFloat},
			R: &lplan.Const{Val: table.NewFloat(100)}}}
	}
	nextID += 2
	return &PHashAgg{
		In: in,
		Aggs: []lplan.AggSpec{
			{Kind: lplan.AggCount, Arg: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "c", Kind: table.KindInt}},
			{Kind: lplan.AggSum, Arg: v.ID, Out: lplan.ColumnInfo{ID: nextID, Name: "s", Kind: table.KindFloat}},
		},
		Est: &EstimatorConfig{Type: lplan.SamplerUniform, P: 0.5},
		Top: true,
	}
}

func TestExecCachedSampleWarmReplayBitIdentical(t *testing.T) {
	var rows [][2]float64
	for i := 0; i < 4000; i++ {
		rows = append(rows, [2]float64{float64(i), float64(i) * 1.25})
	}
	tbl, _ := buildT("warm", 4, rows)

	for _, fused := range []bool{false, true} {
		for _, bs := range []int{0, 7, -1} {
			t.Run(fmt.Sprintf("fused=%v/batch=%d", fused, bs), func(t *testing.T) {
				runWith := func(sc *SampleCache, seed uint64) *Result {
					t.Helper()
					res, err := RunWithOptions(context.Background(), cachedAggPlan(tbl, sc, seed, fused), cluster.DefaultConfig(), nil,
						Options{BatchSize: bs})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				lazy := runWith(nil, 11) // no cache: the pure lazy path

				sc := NewSampleCache(64 << 20)
				hits0 := metrics.SampleCacheHits.Load()
				cold := runWith(sc, 11) // miss: runs the fragment, populates
				if sc.Len() != 1 {
					t.Fatalf("cache holds %d entries after cold run, want 1", sc.Len())
				}
				warm := runWith(sc, 11) // hit: replays materialized output
				if metrics.SampleCacheHits.Load() == hits0 {
					t.Fatal("warm run recorded no cache hit")
				}
				sameRows(t, lazy, cold, "cold vs lazy")
				sameEstimates(t, lazy, cold, "cold vs lazy")
				sameRows(t, cold, warm, "warm vs cold")
				sameEstimates(t, cold, warm, "warm vs cold")
				if fused {
					// The fused aggregate emits per partition, like the reference.
					ref := refRun(t, cachedAggPlan(tbl, nil, 11, true))
					sameRows(t, ref, warm, "warm vs row reference")
					sameEstimates(t, ref, warm, "warm vs row reference")
				}

				// A different sampler seed is a different key: no false sharing.
				res2 := runWith(sc, 12)
				if sc.Len() != 2 {
					t.Errorf("cache holds %d entries after second seed, want 2", sc.Len())
				}
				if fmt.Sprint(res2.Rows) == fmt.Sprint(warm.Rows) {
					t.Error("different seed produced identical sample (suspicious key collision)")
				}
			})
		}
	}
}

// TestSampleCacheTinyBudgetFallsBackLazily drives the eviction/rejection
// path: with a budget too small to admit anything, every run is a miss
// that still answers correctly off the lazy fragment.
func TestSampleCacheTinyBudgetFallsBackLazily(t *testing.T) {
	var rows [][2]float64
	for i := 0; i < 2000; i++ {
		rows = append(rows, [2]float64{float64(i), float64(i)})
	}
	tbl, _ := buildT("tiny", 4, rows)
	sc := NewSampleCache(1) // admission rejects everything (> budget/4)

	lazyRes, err := RunWithOptions(context.Background(), cachedAggPlan(tbl, nil, 5, false), cluster.DefaultConfig(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rej0 := metrics.SampleCacheRejects.Load()
	for i := 0; i < 3; i++ {
		res, err := RunWithOptions(context.Background(), cachedAggPlan(tbl, sc, 5, false), cluster.DefaultConfig(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", res.Rows) != fmt.Sprintf("%v", lazyRes.Rows) {
			t.Fatalf("run %d under rejecting cache diverges from lazy path", i)
		}
	}
	if sc.Len() != 0 {
		t.Errorf("cache admitted %d entries under a 1-byte budget", sc.Len())
	}
	if metrics.SampleCacheRejects.Load() == rej0 {
		t.Error("reject gauge did not move")
	}
}

// TestSampleCacheConcurrentHammer races Get/Put/Purge on one cache; run
// under -race it proves the cache's own synchronization.
func TestSampleCacheConcurrentHammer(t *testing.T) {
	c := NewSampleCache(1 << 20)
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(w+i)%len(keys)]
				switch {
				case i%17 == 0:
					c.Purge()
				case i%3 == 0:
					c.Put(k, cachedFixture(8), 0)
				default:
					if parts, _, ok := c.Get(k); ok {
						// A hit must always be replayable.
						if got := replayCached(parts, 3); len(got) != 1 || got[0].N != 8 {
							t.Errorf("corrupt hit for %s", k)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() < 0 {
		t.Errorf("negative byte accounting: %d", c.Bytes())
	}
}
