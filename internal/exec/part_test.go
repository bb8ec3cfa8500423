package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"quickr/internal/catalog"
	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/refimpl"
	"quickr/internal/table"
	"quickr/internal/testutil"
)

// awkwardValues are the payloads a column-major copy could corrupt:
// NULL, NaNs with distinct payloads, both zeros, infinities, integral
// and huge floats, extreme ints, empty and repeated strings, bools.
func awkwardValues() map[string][]table.Value {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff8000000000abc)
	return map[string][]table.Value{
		"float": {table.NewFloat(1.5), table.Null, table.NewFloat(nanA), table.NewFloat(nanB),
			table.NewFloat(math.Copysign(0, -1)), table.NewFloat(0), table.NewFloat(math.Inf(-1)),
			table.NewFloat(42), table.NewFloat(1e300), table.NewFloat(-7.25)},
		"int": {table.NewInt(0), table.NewInt(-1), table.Null, table.NewInt(math.MaxInt64),
			table.NewInt(math.MinInt64), table.NewInt(42)},
		"string": {table.NewString(""), table.NewString("x"), table.Null, table.NewString("a longer string"),
			table.NewString("x"), table.NewString("\x00")},
		"bool": {table.NewBool(true), table.NewBool(false), table.Null},
		"null": {table.Null},
	}
}

// columnOf draws n values of one family.
func columnOf(rng *rand.Rand, pool []table.Value, n int) []table.Value {
	out := make([]table.Value, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// batchOf packs columns (equal lengths) into a batch the way a source
// would hand them to a sink: one builder per column, a selection chosen
// by selMode (0 = dense, 1 = none live, 2 = one lane, 3 = random subset).
func batchOf(rng *rand.Rand, cols [][]table.Value, blds []vecBuilder, selMode int) Batch {
	n := len(cols[0])
	b := Batch{n: n, weights: make([]float64, n)}
	for c, vals := range cols {
		blds[c].reset()
		for _, v := range vals {
			blds[c].append(v)
		}
		b.cols = append(b.cols, blds[c].build())
	}
	for i := range b.weights {
		b.weights[i] = 1 + float64(rng.Intn(1000))/7
	}
	switch selMode {
	case 1:
		b.sel = []int32{}
	case 2:
		b.sel = []int32{int32(rng.Intn(n))}
	case 3:
		b.sel = []int32{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.sel = append(b.sel, int32(i))
			}
		}
	}
	return b
}

// TestPartBuilderRoundTrip is the sink's property test: whatever
// sequence of batches is appended — every value family, a column's
// batches changing representation (all-NULL then typed adopts, typed
// then all-NULL pads), a new source dictionary per batch,
// dense/empty/one-lane/random selections, empty and one-row partitions —
// the built Part reads back the appended live rows bit for bit, with
// their weights and the accounted bytes of the same rows boxed.
func TestPartBuilderRoundTrip(t *testing.T) {
	families := awkwardValues()
	names := []string{"float", "int", "string", "bool", "null"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(4)
		batches := rng.Intn(5) // 0 = empty partition
		pb := newPartBuilder(newLedger(), width, 0)
		blds := newPartBuilder(newLedger(), width, 0).cols
		var want []wrow
		for bi := 0; bi < batches; bi++ {
			n := 1 + rng.Intn(70)
			if seed%7 == 0 {
				n = 1 // one-row batches: the one-row partition when batches == 1
			}
			cols := make([][]table.Value, width)
			for c := range cols {
				// Column c keeps its family except where the seed asks for
				// all-NULL batches among the typed ones.
				fam := names[(int(seed)+c)%len(names)]
				if seed%3 == 0 && rng.Intn(2) == 0 {
					fam = "null"
				}
				cols[c] = columnOf(rng, families[fam], n)
			}
			b := batchOf(rng, cols, blds, rng.Intn(4))
			pb.appendBatch(&b)
			for _, lane := range b.liveSel(nil) {
				row := make(table.Row, width)
				for c := range cols {
					row[c] = cols[c][lane]
				}
				want = append(want, newWRow(row, b.weights[lane]))
			}
		}
		sameParts(t, [][]wrow{want}, []Part{pb.finish()}, fmt.Sprintf("seed %d", seed))
	}
}

// TestPartBuilderGatherSharesDictionary covers appendGather: negative
// indexes pad NULL, a string column gathered from one stored column
// shares its dictionary, and a second source dictionary forces a
// private copy without disturbing what was already appended.
func TestPartBuilderGatherSharesDictionary(t *testing.T) {
	mk := func(strs ...string) Part {
		pb := newPartBuilder(newLedger(), 1, len(strs))
		for _, s := range strs {
			if s == "<null>" {
				pb.appendRow(table.Row{table.Null})
			} else {
				pb.appendRow(table.Row{table.NewString(s)})
			}
		}
		return pb.finish()
	}
	a, b := mk("p", "q", "<null>", "r"), mk("r", "s")
	av, bv := a.Cols, b.Cols

	pb := newPartBuilder(newLedger(), 1, 0)
	pb.appendGather(av, []int32{3, -1, 0, 2, 3}, 0)
	pb.appendGather(av, nil, 0) // no lanes, not "all lanes"
	pb.w = append(pb.w, 1, 1, 1, 1, 1)
	one := pb.finish()
	if !sameDict(one.Cols[0].Dict, a.Cols[0].Dict) {
		t.Error("single-source gather did not share the source dictionary")
	}
	wantOne := []wrow{
		newWRow(table.Row{table.NewString("r")}, 1), newWRow(table.Row{table.Null}, 1),
		newWRow(table.Row{table.NewString("p")}, 1), newWRow(table.Row{table.Null}, 1),
		newWRow(table.Row{table.NewString("r")}, 1),
	}
	sameParts(t, [][]wrow{wantOne}, []Part{one}, "one source")

	pb = newPartBuilder(newLedger(), 1, 0)
	pb.appendGather(av, []int32{3, 1}, 0)
	pb.appendGather(bv, []int32{1, -1, 0}, 0)
	pb.appendGather(av, []int32{0}, 0)
	pb.w = append(pb.w, 1, 1, 1, 1, 1, 1)
	two := pb.finish()
	if sameDict(two.Cols[0].Dict, a.Cols[0].Dict) || len(a.Cols[0].Dict) != 3 {
		t.Errorf("second source wrote into the shared dictionary: %q", a.Cols[0].Dict)
	}
	var wantTwo []wrow
	for _, s := range []string{"r", "q", "s", "<null>", "r", "p"} {
		v := table.NewString(s)
		if s == "<null>" {
			v = table.Null
		}
		wantTwo = append(wantTwo, newWRow(table.Row{v}, 1))
	}
	sameParts(t, [][]wrow{wantTwo}, []Part{two}, "two sources")
}

// TestPartHeadAndGather checks the two reshaping views: head keeps the
// first k rows (NULL bitmap bits past k must not count), gather
// reorders.
func TestPartHeadAndGather(t *testing.T) {
	pb := newPartBuilder(newLedger(), 2, 0)
	var rows []wrow
	for i := 0; i < 130; i++ {
		row := table.Row{table.NewInt(int64(i)), table.NewString(fmt.Sprint("s", i%5))}
		if i%3 == 0 {
			row[0] = table.Null
		}
		pb.appendRow(row)
		rows = append(rows, newWRow(row, 1))
	}
	p := pb.finish()
	for _, k := range []int{0, 1, 64, 65, 130} {
		sameParts(t, [][]wrow{rows[:k]}, []Part{p.head(k)}, fmt.Sprintf("head(%d)", k))
	}
	perm := []int32{129, 0, 64, 3, 3}
	var want []wrow
	for _, i := range perm {
		want = append(want, rows[i])
	}
	sameParts(t, [][]wrow{want}, []Part{p.gather(newLedger(), perm)}, "gather")
}

// TestHashKeysMatchesHashRow pins the lane hash to table.HashRow for
// every value kind — integral floats, which must collide with the equal
// int, included — over one and several key columns, dense and through a
// selection, typed and boxed, at both seeds the executor uses, and the
// hashes the exchange's routing pass keeps to the same.
func TestHashKeysMatchesHashRow(t *testing.T) {
	families := awkwardValues()
	rng := rand.New(rand.NewSource(5))
	const n = 97
	var cols [][]table.Value
	var names []string
	for name, pool := range families {
		cols = append(cols, columnOf(rng, pool, n))
		names = append(names, name)
	}
	blds := newPartBuilder(newLedger(), len(cols), 0).cols
	b := batchOf(rng, cols, blds, 0)
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = make(table.Row, len(cols))
		for c := range cols {
			rows[i][c] = cols[c][i]
		}
	}
	sel := []int32{0, 5, 6, 40, 96}
	out := make([]uint64, n)
	check := func(idx []int, seed uint64) {
		t.Helper()
		keys := make([]table.Vector, len(idx))
		for k, ci := range idx {
			keys[k] = b.cols[ci]
		}
		hashKeys(out, keys, nil, seed, nil, n)
		for i := range rows {
			if want := table.HashRow(rows[i], idx, seed); out[i] != want {
				t.Fatalf("cols %v seed %d lane %d (%v): hash %x, HashRow %x", idx, seed, i, rows[i], out[i], want)
			}
		}
		clear(out)
		hashKeys(out, keys, nil, seed, sel, n)
		for _, i := range sel {
			if want := table.HashRow(rows[i], idx, seed); out[i] != want {
				t.Fatalf("cols %v seed %d selected lane %d: hash %x, HashRow %x", idx, seed, i, out[i], want)
			}
		}
	}
	all := make([]int, len(cols))
	for c := range cols {
		all[c] = c
		t.Logf("column %d: %s as %v", c, names[c], b.cols[c].K)
		check([]int{c}, exchangeHashSeed)
		check([]int{c}, 3) // a second seed
	}
	check(all, exchangeHashSeed)
	check(nil, 3)
	if table.HashFloat(42) != table.HashInt(42) {
		t.Error("integral float does not hash as the equal int")
	}

	// The routing pass keeps HashRow's hashes too: a string key hashed
	// once per code of a dictionary no longer than its source (NULL lanes
	// included), and per lane in a source holding fewer rows than its
	// dictionary. Keeping them routes the lanes as not keeping them does.
	pb := newPartBuilder(newLedger(), len(cols), n)
	for _, r := range rows {
		pb.appendRow(r)
	}
	full := pb.finish()
	srcs := []Part{full, full.head(3), full.head(0)}
	str := slices.Index(names, "string")
	if d := len(full.Cols[str].Dict); d > full.N || d <= srcs[1].N {
		t.Fatalf("fixture: dictionary of %d strings for sources of %d and %d rows", d, full.N, srcs[1].N)
	}
	route := func(idx []int) {
		t.Helper()
		kept, err := routeParts(serialFan, newLedger(), srcs, len(cols), idx, 5, 16, true)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := routeParts(serialFan, newLedger(), srcs, len(cols), idx, 5, 16, false)
		if err != nil {
			t.Fatal(err)
		}
		if plain.hashes != nil {
			t.Fatal("routing kept hashes nobody asked for")
		}
		for i := range srcs {
			if !slices.Equal(kept.lanes[i], plain.lanes[i]) || !slices.Equal(kept.offs[i], plain.offs[i]) {
				t.Fatalf("cols %v source %d: keeping the hashes changed the routing", idx, i)
			}
			for j, h := range kept.hashes[i] {
				if want := table.HashRow(rows[j], idx, exchangeHashSeed); h != want {
					t.Fatalf("cols %v source %d lane %d (%v): routed hash %x, HashRow %x", idx, i, j, rows[j], h, want)
				}
			}
		}
	}
	for c := range cols {
		route([]int{c})
		route([]int{str, c})
	}
	route(all)
}

// joinFixture builds probe (k, v, s) and build (k, u, s) tables whose
// keys overlap partly, repeat on both sides, and include NULLs (which
// match nothing). The probe's key is a Float column appended ints
// (integral floats, which match the equal ints) and, at every 13th row,
// a fractional float (which matches nothing); the build's is an Int
// column.
func joinFixture(name string) (probe, build *table.Table) {
	sc := func(key table.Kind, second string) *table.Schema {
		return table.NewSchema(
			table.Column{Name: "k", Kind: key},
			table.Column{Name: second, Kind: table.KindFloat},
			table.Column{Name: "s", Kind: table.KindString},
		)
	}
	probe = table.New(name+"_probe", sc(table.KindFloat, "v"), 4)
	for i := 0; i < 900; i++ {
		k := table.NewInt(int64(i % 61))
		switch {
		case i%17 == 0:
			k = table.Null
		case i%13 == 0:
			k = table.NewFloat(float64(i%61) + 0.5)
		}
		probe.Append(i, table.Row{k, table.NewFloat(float64(i)), table.NewString(fmt.Sprint("p", i%7))})
	}
	build = table.New(name+"_build", sc(table.KindInt, "u"), 3)
	for i := 0; i < 200; i++ {
		k := table.NewInt(int64(i % 40))
		if i%19 == 0 {
			k = table.Null
		}
		build.Append(i, table.Row{k, table.NewFloat(float64(i) / 4), table.NewString(fmt.Sprint("b", i%5))})
	}
	return probe, build
}

// TestExchangeMatchesRowReference: keyed exchanges over a chain (sunk
// into source partitions first) and over a breaker (its partitions are
// the sources), keyless and one-destination exchanges (whole partitions
// move), against table.HashRow routing of boxed rows.
func TestExchangeMatchesRowReference(t *testing.T) {
	tbl := mixedTable("xchg", 5, 1500)
	for _, keys := range [][]int{{0}, {2}, {1, 2}, {3}, nil} {
		for _, parts := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("keys=%v/parts=%d", keys, parts), func(t *testing.T) {
				mk := func(overBreaker bool) func() PNode {
					return func() PNode {
						scan := scanOf(tbl)
						var ids []lplan.ColumnID
						for _, k := range keys {
							ids = append(ids, scan.OutCols[k].ID)
						}
						var in PNode = &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.5}, Seed: 3}
						if overBreaker {
							in = &PExchange{In: in, Parts: 2} // a breaker's output feeds the keyed exchange
						}
						return &PExchange{In: in, Keys: ids, Parts: parts}
					}
				}
				sameAsReference(t, mk(false))
				sameAsReference(t, mk(true))
			})
		}
	}
}

// TestAggOverExchangeMatchesRowReference: a hash aggregate over a keyed
// exchange, whose runners fold the routed lanes where they lie (parts >
// 1) or read the moved partitions (parts == 1), over a chain, over a
// breaker's partitions and over a bare cached-sample source, against
// the row reference's exchange and aggregate — grouped on the exchange
// keys, so the runners take the routing hashes as group hashes, and on
// other columns (the exchange keys reversed, then one more), so they
// hash for themselves. COUNT(DISTINCT) counts a float column appended
// ints and floats, and an integer column, under a dictionary group key
// among others.
func TestAggOverExchangeMatchesRowReference(t *testing.T) {
	tbl := mixedTable("aggxchg", 5, 1500)
	for _, keys := range [][]int{{0}, {2}, {1, 2}, {3}} {
		for _, parts := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("keys=%v/parts=%d", keys, parts), func(t *testing.T) {
				aggOverExchangeCase(t, tbl, keys, keys, parts)
				group := append(slices.Clone(keys), 4)
				slices.Reverse(group)
				t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
					aggOverExchangeCase(t, tbl, keys, group, parts)
				})
			})
		}
	}
}

// aggOverExchangeCase is one TestAggOverExchangeMatchesRowReference case:
// the exchange routes on column positions keys, the aggregate groups on
// group.
func aggOverExchangeCase(t *testing.T, tbl *table.Table, keys, group []int, parts int) {
	mk := func(source int) func() PNode {
		return func() PNode {
			scan := scanOf(tbl)
			c := scan.OutCols
			var in PNode = &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.5}, Seed: 3}
			switch source {
			case 1:
				in = &PExchange{In: in, Parts: 2}
			case 2:
				in = &PCachedSample{Frag: in, Key: FragmentKey(in), SamplerP: 0.5}
			}
			x := &PExchange{In: in, Parts: parts}
			agg := &PHashAgg{In: x, Est: &EstimatorConfig{Type: lplan.SamplerUniform, P: 0.5}}
			for _, k := range keys {
				x.Keys = append(x.Keys, c[k].ID)
			}
			for _, k := range group {
				agg.GroupCols = append(agg.GroupCols, c[k].ID)
				agg.GroupInfo = append(agg.GroupInfo, c[k])
			}
			for _, spec := range []lplan.AggSpec{
				{Kind: lplan.AggSum, Arg: c[1].ID}, {Kind: lplan.AggCount, Arg: lplan.NoColumn},
				{Kind: lplan.AggAvg, Arg: c[0].ID}, {Kind: lplan.AggCountDistinct, Arg: c[4].ID},
				{Kind: lplan.AggMin, Arg: c[2].ID}, {Kind: lplan.AggCountDistinct, Arg: c[0].ID},
			} {
				nextID++
				spec.Cond = lplan.NoColumn
				spec.Out = lplan.ColumnInfo{ID: nextID, Kind: table.KindFloat}
				agg.Aggs = append(agg.Aggs, spec)
			}
			return agg
		}
	}
	for source := 0; source < 3; source++ {
		sameAsReference(t, mk(source))
		// What the exchange hands over is accounted as the reference's
		// destinations, built or not.
		agg := mk(source)().(*PHashAgg)
		ex := testExecutor(context.Background(), agg, 7)
		if _, err := ex.exec(agg); err != nil {
			t.Fatal(err)
		}
		st, op := ex.run.Stages[len(ex.run.Stages)-1], ex.qm.Op(agg.In)
		for d, rows := range refChain(t, agg.In) {
			var bytes float64
			for _, r := range rows {
				bytes += r.sz
			}
			sl := op.Slot(d)
			if st.Name != "aggregate" || st.TaskInRows[d] != int64(len(rows)) || st.TaskInBytes[d] != bytes ||
				sl.RowsOut != int64(len(rows)) || sl.PeakBytes != bytes {
				t.Fatalf("source %d destination %d: stage %q reads %d rows, %v bytes, the exchange sent %d, peak %v; want %d rows, %v bytes",
					source, d, st.Name, st.TaskInRows[d], st.TaskInBytes[d], sl.RowsOut, sl.PeakBytes, len(rows), bytes)
			}
		}
	}
}

// TestExchangeRoutingMatchesScatter is the routed exchange's property
// test: whatever the sources hold — every value family with its NULLs,
// a dictionary per source, a column all NULL in some sources and typed
// in others, empty sources,
// destinations nothing hashes to, zero-width rows, sources of exactly
// k windows and of one lane more — routing and gathering builds, column
// for column, the partitions the copy-and-concatenate oracle builds,
// and totals each destination's rows and bytes to what the oracle's
// pieces account.
func TestExchangeRoutingMatchesScatter(t *testing.T) {
	families := awkwardValues()
	names := []string{"float", "int", "string", "bool", "null"}
	emptyDests := 0
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := rng.Intn(5) // 0: zero-width rows, all to one destination
		parts := 2 + rng.Intn(7)
		window := []int{1, 3, 8, 64}[rng.Intn(4)]
		keyIdx := []int{}
		for c := 0; c < width; c++ {
			if c == 0 || rng.Intn(3) == 0 {
				keyIdx = append(keyIdx, c)
			}
		}
		srcs := make([]Part, 1+rng.Intn(4))
		for i := range srcs {
			n := []int{0, 2 * window, 2*window + 1, rng.Intn(150)}[rng.Intn(4)]
			pb := newPartBuilder(newLedger(), width, 0)
			cols := make([][]table.Value, width)
			for c := range cols {
				fam := names[(int(seed)+c)%len(names)]
				if seed%4 == 0 && rng.Intn(2) == 0 {
					fam = "null"
				}
				cols[c] = columnOf(rng, families[fam], n)
			}
			for r := 0; r < n; r++ {
				row := make(table.Row, width)
				for c := range cols {
					row[c] = cols[c][r]
				}
				pb.appendRow(row)
				pb.w[r] = 1 + float64(rng.Intn(1000))/7
			}
			srcs[i] = pb.finish()
		}
		label := fmt.Sprintf("seed %d", seed)
		want := refExchange(srcs, width, keyIdx, parts, window)
		rt, err := routeParts(serialFan, newLedger(), srcs, width, keyIdx, parts, window, false)
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			got, err := rt.gather(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			if want[d].N == 0 {
				emptyDests++
			}
			if rt.rows[d] != int64(want[d].N) || rt.bytes[d] != want[d].bytes {
				t.Fatalf("%s: destination %d routed %d rows, %v bytes; the oracle's pieces hold %d, %v",
					label, d, rt.rows[d], rt.bytes[d], want[d].N, want[d].bytes)
			}
			samePartCols(t, &want[d], &got, fmt.Sprintf("%s destination %d", label, d))
		}
	}
	if emptyDests == 0 {
		t.Error("no case left a destination empty")
	}
}

// samePartCols asserts two partitions hold the same columns in the same
// representation: kind, NULL lanes, payload bits and dictionary order,
// plus weights and accounted bytes.
func samePartCols(t *testing.T, want, got *Part, label string) {
	t.Helper()
	if got.N != want.N || len(got.Cols) != len(want.Cols) || got.bytes != want.bytes {
		t.Fatalf("%s: %d rows x %d columns, %v bytes; want %d x %d, %v",
			label, got.N, len(got.Cols), got.bytes, want.N, len(want.Cols), want.bytes)
	}
	for i := range want.W {
		if math.Float64bits(got.W[i]) != math.Float64bits(want.W[i]) {
			t.Fatalf("%s: row %d weight %v, want %v", label, i, got.W[i], want.W[i])
		}
	}
	for c := range want.Cols {
		w, g := &want.Cols[c], &got.Cols[c]
		if g.K != w.K || g.N != w.N || !slices.Equal(g.Dict, w.Dict) {
			t.Fatalf("%s: column %d is kind=%v len=%d dict=%q, want kind=%v len=%d dict=%q",
				label, c, g.K, g.N, g.Dict, w.K, w.N, w.Dict)
		}
		for i := 0; i < want.N; i++ {
			if !sameValue(g.Value(i), w.Value(i)) {
				t.Fatalf("%s: column %d lane %d = %v, want %v", label, c, i, g.Value(i), w.Value(i))
			}
		}
	}
}

// TestBytesAllMatchesLaneBytes holds the dense byte accounting's tight
// loops (strings without NULLs, fixed-width NULL counts a word at a
// time) to the per-lane definition, Value.ByteSize, over windows of
// every column of mixedTable at offsets that straddle bitmap words, and
// over the same columns with their NULLs taken away. The same windows of a built
// Part's vectors, cut through Part.head and then Vector.Slice (a NULL
// bitmap offset on top of another), must also read back the rows the
// Part was built from.
func TestBytesAllMatchesLaneBytes(t *testing.T) {
	tbl := mixedTable("bytes", 1, 700)
	dense := table.New("bytes_dense", tbl.Schema, 1)
	for _, r := range tbl.Rows(0) {
		if !r[0].IsNull() && !r[1].IsNull() && !r[2].IsNull() && !r[3].IsNull() {
			dense.Append(0, r)
		}
	}
	for _, cp := range []*table.ColPartition{tbl.Columnar(0), dense.Columnar(0)} {
		for c := range cp.Cols {
			for _, win := range [][2]int{{0, cp.NumRows}, {0, 0}, {1, 63}, {63, 2}, {64, 64}, {100, 300}, {cp.NumRows - 1, 1}} {
				v := cp.Cols[c].Slice(win[0], win[1])
				want := 0
				sel := make([]int32, v.N)
				for i := 0; i < v.N; i++ {
					want += v.Value(i).ByteSize()
					sel[i] = int32(i)
				}
				if got := v.BytesAll(); got != float64(want) {
					t.Errorf("column %d window %v: BytesAll %v, lanes sum to %d", c, win, got, want)
				}
				if got := v.BytesSel(sel); got != float64(want) {
					t.Errorf("column %d window %v: BytesSel %v, lanes sum to %d", c, win, got, want)
				}
			}
		}
	}

	rows := tbl.Rows(0)
	pb := newPartBuilder(newLedger(), tbl.Schema.Len(), len(rows))
	for _, r := range rows {
		pb.appendRow(r)
	}
	part := pb.finish()
	if part.Cols[4].K != table.VKFloat || part.Cols[0].Nulls == nil {
		t.Fatalf("fixture: widened column is kind %v, int column NULL bitmap %v", part.Cols[4].K, part.Cols[0].Nulls)
	}
	const cut = 37 // head's and the first slice's offset into the bitmap
	head := part.head(len(rows) - 5)
	if want := partBytes(head.Cols, head.N); head.bytes != want {
		t.Errorf("head accounts %v bytes, its lanes sum to %v", head.bytes, want)
	}
	for c := range head.Cols {
		outer := head.Cols[c].Slice(cut, head.N-cut)
		for _, win := range [][2]int{{0, outer.N}, {0, 0}, {27, 1}, {26, 40}, {27, 64}, {91, 200}, {outer.N - 1, 1}} {
			v := outer.Slice(win[0], win[1])
			want := 0
			for i := 0; i < v.N; i++ {
				want += v.Value(i).ByteSize()
				r := rows[cut+win[0]+i]
				if !sameValue(v.Value(i), r[c]) || v.IsNull(i) != r[c].IsNull() {
					t.Fatalf("column %d window %v lane %d reads %v, built from %v", c, win, i, v.Value(i), r[c])
				}
			}
			if got := v.BytesAll(); got != float64(want) {
				t.Errorf("part column %d window %v: BytesAll %v, lanes sum to %d", c, win, got, want)
			}
		}
	}
}

// TestBytesAllSumsToPartitionBytes: the scan charges a stored
// partition's Bytes once instead of summing its windows' BytesAll batch
// by batch, so the two must agree for every way a partition is built:
// Columnarize, a tail sealed onto a snapshot, an all-NULL column that a
// later seal types, a NULL-free column that a later seal gives NULLs
// and string columns with NULLs, cut at every batch size.
func TestBytesAllSumsToPartitionBytes(t *testing.T) {
	mixed := mixedTable("bytes_mixed", 1, 700)
	sc := table.NewSchema(
		table.Column{Name: "i", Kind: table.KindInt},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "n", Kind: table.KindInt},
	)
	grown := table.New("bytes_grown", sc, 1)
	add := func(lo, hi int) *table.ColPartition {
		for i := lo; i < hi; i++ {
			s := table.NewString(fmt.Sprintf("w%d", i%9))
			if i%5 == 2 {
				s = table.Null
			}
			grown.Append(0, table.Row{table.NewInt(int64(i)), s, table.Null})
		}
		return grown.Columnar(0)
	}
	cps := map[string]*table.ColPartition{
		"columnarize": table.Columnarize(mixed.Rows(0), mixed.Schema.Len()),
		"first-seal":  add(0, 300),
		"sealed-tail": add(300, 500),
	}
	grown.Append(0, table.Row{table.Null, table.Null, table.NewInt(7)})
	cps["late-nulls-and-values"] = add(500, 640)
	if cp := cps["late-nulls-and-values"]; cp.Cols[0].Nulls == nil || cp.Cols[1].Nulls == nil || cp.Cols[2].K != table.VKInt {
		t.Fatalf("fixture: int NULL bitmap %v, string NULL bitmap %v, late-typed column kind %v", cp.Cols[0].Nulls, cp.Cols[1].Nulls, cp.Cols[2].K)
	}
	for name, cp := range cps {
		for _, bs := range refBatchSizes {
			size := bs
			if size < 0 {
				size = cp.NumRows
			}
			var sum float64
			for pos := 0; pos < cp.NumRows; pos += size {
				for c := range cp.Cols {
					v := cp.Cols[c].Slice(pos, min(size, cp.NumRows-pos))
					sum += v.BytesAll()
				}
			}
			if sum != float64(cp.Bytes) {
				t.Errorf("%s batch=%d: windows sum to %v bytes, partition holds %d", name, bs, sum, cp.Bytes)
			}
		}
	}
}

// TestPartScanAliasesStorage: a scan batch's columns are slices of the
// stored vectors, not copies. For int, float, dictionary, all-NULL and
// NULL-free int columns, carried whole or pruned and reordered, every batch's
// payload starts at the stored array's lane pos, shares its dictionary
// and NULL bitmap (offset by pos), and reads the stored lanes.
func TestPartScanAliasesStorage(t *testing.T) {
	sc := table.NewSchema(
		table.Column{Name: "i", Kind: table.KindInt},
		table.Column{Name: "f", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
		table.Column{Name: "n", Kind: table.KindInt},
		table.Column{Name: "m", Kind: table.KindInt},
	)
	tbl := table.New("alias", sc, 1)
	for i := 0; i < 300; i++ {
		iv, mv := table.NewInt(int64(i)), table.NewInt(int64(i))
		if i%9 == 4 {
			iv = table.Null
		}

		tbl.Append(0, table.Row{iv, table.NewFloat(float64(i) / 8), table.NewString(fmt.Sprintf("w%d", i%5)), table.Null, mv})
	}
	cp := tbl.Columnar(0)
	for c, k := range []table.VecKind{table.VKInt, table.VKFloat, table.VKStr, table.VKNull, table.VKInt} {
		if cp.Cols[c].K != k {
			t.Fatalf("fixture: column %d is kind %v, want %v", c, cp.Cols[c].K, k)
		}
	}
	st := cluster.NewRun(cluster.DefaultConfig()).NewStage("scan", 1)
	for _, idx := range [][]int{nil, {4, 3, 0, 2, 1}} {
		var raw float64
		src := &colScanSource{p: &PScan{Tbl: tbl, ColIdx: idx, WeightIdx: -1}, cp: cp, size: 64, st: st, slot: &metrics.Slot{}, raw: &raw}
		for pos := 0; ; {
			b, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b.n == 0 {
				break
			}
			for j := range b.cols {
				ci := j
				if idx != nil {
					ci = idx[j]
				}
				v, stored := &b.cols[j], &cp.Cols[ci]
				if v.K != stored.K || v.N != b.n {
					t.Fatalf("columns %v pos %d: column %d is kind %v with %d lanes, stored kind %v, batch %d", idx, pos, ci, v.K, v.N, stored.K, b.n)
				}
				aliased := false
				switch v.K {
				case table.VKNull:
					aliased = v.Ints == nil && v.Floats == nil && v.Nulls == nil
				case table.VKFloat:
					aliased = &v.Floats[0] == &stored.Floats[pos]
				default:
					aliased = &v.Ints[0] == &stored.Ints[pos] && sameDict(v.Dict, stored.Dict)
				}
				if stored.Nulls != nil {
					aliased = aliased && &v.Nulls[0] == &stored.Nulls[0] && v.NullOff == pos
				}
				if !aliased {
					t.Fatalf("columns %v pos %d: column %d (kind %v) does not alias the stored vector", idx, pos, ci, v.K)
				}
				for i := 0; i < b.n; i++ {
					if !sameValue(v.Value(i), stored.Value(pos+i)) {
						t.Fatalf("columns %v pos %d: column %d lane %d reads %v, stored %v", idx, pos, ci, i, v.Value(i), stored.Value(pos+i))
					}
				}
			}
			pos += b.n
		}
	}
}

// TestSortMatchesRowSort holds the sort's lane comparators to the row
// definition: a PSort over mixedTable's columns (NULLs, strings, a float
// column appended ints and floats) plus a float key holding NaN, −0, +0
// and NULL must emit
// each partition's rows() stably sorted by the keys (Value.Order) and
// then by table.CompareRows, bit for bit, at every batch size. The few-valued
// columns come first so that the tie-break reaches every column.
func TestSortMatchesRowSort(t *testing.T) {
	src := mixedTable("sort_src", 3, 900)
	order := []int{3, 2, 4, 0, 1} // b, s, m, i, f behind k
	cols := []table.Column{{Name: "k", Kind: table.KindFloat}}
	for _, c := range order {
		cols = append(cols, src.Schema.Cols[c])
	}
	tbl := table.New("sort", table.NewSchema(cols...), 3)
	kvals := []table.Value{table.NewFloat(math.NaN()), table.NewFloat(math.Copysign(0, -1)), table.NewFloat(0),
		table.Null, table.NewFloat(1.5), table.NewFloat(math.Inf(-1)), table.NewFloat(-2)}
	for p := 0; p < 3; p++ {
		for i, r := range src.Rows(p) {
			row := table.Row{kvals[(i*5+p)%len(kvals)]}
			for _, c := range order {
				row = append(row, r[c])
			}
			tbl.Append(p, row)
		}
	}
	scan := scanOf(tbl)
	in := execParts(t, scan, -1)
	type key struct {
		pos  int // schema position: k, b, s, m, i, f
		desc bool
	}
	for _, ks := range [][]key{{{0, false}}, {{3, true}, {0, false}}, {{2, false}, {1, true}}} {
		var keys []lplan.SortKey
		for _, k := range ks {
			keys = append(keys, lplan.SortKey{Col: scan.OutCols[k.pos].ID, Desc: k.desc})
		}
		want := &Result{}
		for i := range in {
			rows := table.RowsOf(in[i].Cols, in[i].N, 0)
			sort.SliceStable(rows, func(a, b int) bool {
				for _, k := range ks {
					c := rows[a][k.pos].Order(rows[b][k.pos])
					if k.desc {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return table.CompareRows(rows[a], rows[b]) < 0
			})
			want.Rows = append(want.Rows, rows...)
		}
		for _, batch := range []int{1, 7, 256, -1} {
			got, err := RunWithOptions(context.Background(), &PSort{In: scan, Keys: keys}, cluster.DefaultConfig(), nil, Options{BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, want, got, fmt.Sprintf("keys %v batch %d", ks, batch))
		}
	}
}

// TestOrderByNaNMatchesRefimpl: ORDER BY and window ORDER BY over a
// float column holding NaN sort by Value.Order (NaN after every number,
// equal to NaN) in the executor and in refimpl alike, bit for bit at
// every batch size. Under Value.Compare, which finds NaN equal to every
// number, a one-partition sort over 2, NaN, 1 returned [2, NaN, 1]. The
// window case is NaN-heavy (three lanes in five), with ints, −0, +0 and
// NULLs beside it, in both directions, for ROW_NUMBER, RANK (NaN peers
// only NaN) and a running SUM.
func TestOrderByNaNMatchesRefimpl(t *testing.T) {
	sc := table.NewSchema(
		table.Column{Name: "k", Kind: table.KindFloat},
		table.Column{Name: "g", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindInt},
	)
	nan := table.NewFloat(math.NaN())
	small := table.New("nan_small", sc, 1)
	for i, k := range []table.Value{table.NewFloat(2), nan, table.NewFloat(1)} {
		small.Append(0, table.Row{k, table.NewInt(0), table.NewInt(int64(i))})
	}
	heavy := table.New("nan_heavy", sc, 1)
	others := []table.Value{table.NewFloat(2.5), table.NewInt(1), table.NewFloat(math.Copysign(0, -1)), table.NewFloat(0), table.Null, table.NewFloat(-1)}
	for i := 0; i < 240; i++ {
		k := nan
		if i%5 >= 3 {
			k = others[i%len(others)]
		}
		heavy.Append(0, table.Row{k, table.NewInt(int64(i % 3)), table.NewInt(int64(i))})
	}
	cat := catalog.New()
	cat.Register(small)
	cat.Register(heavy)
	refRun := func(t *testing.T, n lplan.Node) *Result {
		t.Helper()
		rows, err := refimpl.Run(cat, n)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{Rows: rows}
	}
	for _, desc := range []bool{false, true} {
		scan := scanOf(small)
		keys := []lplan.SortKey{{Col: scan.OutCols[0].ID, Desc: desc}}
		want := refRun(t, &lplan.Sort{Input: &lplan.Scan{Table: small.Name, Cols: scan.OutCols}, Keys: keys})
		order := []int64{2, 0, 1} // v of 1, 2, NaN
		if desc {
			order = []int64{1, 0, 2}
		}
		for i, r := range want.Rows {
			if r[2].Int() != order[i] {
				t.Fatalf("desc=%v: refimpl sorted %v, want v order %v", desc, want.Rows, order)
			}
		}
		for _, bs := range refBatchSizes {
			got, err := RunWithOptions(context.Background(), &PSort{In: scan, Keys: keys}, cluster.DefaultConfig(), nil, Options{BatchSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, want, got, fmt.Sprintf("sort desc=%v batch=%d", desc, bs))
		}

		scan = scanOf(heavy)
		k, g, v := scan.OutCols[0], scan.OutCols[1], scan.OutCols[2]
		by := []lplan.SortKey{{Col: k.ID, Desc: desc}, {Col: v.ID}}
		var specs []lplan.WinSpec
		for _, kind := range []lplan.WinKind{lplan.WinRowNumber, lplan.WinRank, lplan.WinSum} {
			nextID++
			spec := lplan.WinSpec{Kind: kind, Arg: lplan.NoColumn, PartitionBy: []lplan.ColumnID{g.ID}, OrderBy: by[:1],
				Out: lplan.ColumnInfo{ID: nextID, Name: fmt.Sprint("w", kind), Kind: table.KindInt}}
			if kind == lplan.WinSum {
				spec.Arg, spec.OrderBy = v.ID, by
			}
			specs = append(specs, spec)
		}
		want = refRun(t, &lplan.Window{Input: &lplan.Scan{Table: heavy.Name, Cols: scan.OutCols}, Specs: specs})
		for _, bs := range refBatchSizes {
			got, err := RunWithOptions(context.Background(), &PWindow{In: scan, Specs: specs}, cluster.DefaultConfig(), nil, Options{BatchSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, want, got, fmt.Sprintf("window desc=%v batch=%d", desc, bs))
		}
	}
}

// TestAggOverExchangeCancel cancels a query between the exchange's
// routing pass and the aggregate's fold: the fold's stripe tasks report
// the typed error and nothing is left running.
func TestAggOverExchangeCancel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	scan := scanOf(mixedTable("aggxchg_cancel", 5, 1500))
	k := scan.OutCols[0]
	nextID++
	x := &PExchange{In: scan, Keys: []lplan.ColumnID{k.ID}, Parts: 4}
	agg := &PHashAgg{In: x, GroupCols: []lplan.ColumnID{k.ID}, GroupInfo: []lplan.ColumnInfo{k},
		Aggs: []lplan.AggSpec{{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn,
			Out: lplan.ColumnInfo{ID: nextID, Kind: table.KindInt}}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := testExecutor(ctx, agg, 7)
	rt, s, err := ex.routeExchange(x, true)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := ex.aggRoutes(agg, rt, s.deps); err != ErrCanceled {
		t.Errorf("aggregate over canceled routes: %v, want ErrCanceled", err)
	}
	if err := rt.fold(ctx, 0, 1, nil); err != ErrCanceled {
		t.Errorf("fold: %v, want ErrCanceled", err)
	}
	if _, err := rt.gather(ctx, 0); err != ErrCanceled {
		t.Errorf("gather: %v, want ErrCanceled", err)
	}
}

// TestJoinMatchesRowReference: both join shapes (broadcast and
// co-partitioned behind exchanges), inner and left outer, with and
// without a residual, with SharedUniverseP, against a map of boxed
// build rows probed with Value.Equal — first as bare joins, then as
// broadcast probes inside fused chains (starCases).
func TestJoinMatchesRowReference(t *testing.T) {
	probe, build := joinFixture("jr")
	for _, broadcast := range []bool{true, false} {
		for _, kind := range []lplan.JoinKind{lplan.InnerJoin, lplan.LeftOuterJoin} {
			for _, variant := range []string{"plain", "residual", "shared-universe", "string-key"} {
				t.Run(fmt.Sprintf("broadcast=%v/%v/%s", broadcast, kind, variant), func(t *testing.T) {
					sameAsReference(t, func() PNode {
						ls, rs := scanOf(probe), scanOf(build)
						key := 0
						if variant == "string-key" {
							key = 2 // no string matches ("p…" vs "b…"): outer joins pad every row
						}
						lk, rk := []lplan.ColumnID{ls.OutCols[key].ID}, []lplan.ColumnID{rs.OutCols[key].ID}
						var l, r PNode = ls, rs
						// Weighted inputs, so the output weight product is visible.
						l = &PSample{In: l, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.6}, Seed: 11}
						r = &PSample{In: r, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.7}, Seed: 12}
						if !broadcast {
							l = &PExchange{In: l, Keys: lk, Parts: 3}
							r = &PExchange{In: r, Keys: rk, Parts: 3}
						}
						j := &PHashJoin{Kind: kind, Left: l, Right: r, LeftKeys: lk, RightKeys: rk, Broadcast: broadcast}
						switch variant {
						case "residual":
							// v > 8*u: passes for some pairs of a probe row and not
							// others, and for none of some rows (outer join pads those).
							j.Residual = &lplan.Binary{Op: lplan.OpGt,
								L: &lplan.ColRef{ID: ls.OutCols[1].ID, Name: "v", Kind: table.KindFloat},
								R: &lplan.Binary{Op: lplan.OpMul,
									L: &lplan.Const{Val: table.NewInt(8)},
									R: &lplan.ColRef{ID: rs.OutCols[1].ID, Name: "u", Kind: table.KindFloat}}}
						case "shared-universe":
							j.SharedUniverseP = 0.25
						}
						return j
					})
				})
			}
		}
	}
	fact, dims := starTables("jrc", 600)
	for _, c := range starCases() {
		t.Run("chain/"+c.String(), func(t *testing.T) {
			sameAsReference(t, func() PNode { return c.plan(fact, dims) })
		})
	}
}

// starTables builds a star schema: a fact table over six partitions, the
// last two of them empty, whose foreign keys f1, f2 and f3 reference
// three dimension tables of two partitions each. d1 holds every key three
// times (one probe lane meets three build rows, so a probe batch emits
// more rows than the batch size) and a string column s equal to the
// fact's s for all but one of the fact's strings; d2 lacks two of the
// fact's f2 keys; d3 holds a NULL key. Fact keys include NULLs and a key
// no dimension has.
func starTables(name string, factRows int) (fact *table.Table, dims []*table.Table) {
	fact = table.New(name+"_fact", table.NewSchema(
		table.Column{Name: "f1", Kind: table.KindInt},
		table.Column{Name: "f2", Kind: table.KindInt},
		table.Column{Name: "f3", Kind: table.KindInt},
		table.Column{Name: "m", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString},
	), 6)
	for i := 0; i < factRows; i++ {
		f1 := table.NewInt(int64(i % 11)) // d1 has keys 0..9
		if i%23 == 0 {
			f1 = table.Null
		}
		fact.Append(i%4, table.Row{f1, table.NewInt(int64(i % 7)), table.NewInt(int64(i % 5)),
			table.NewFloat(float64(i) / 2), table.NewString(fmt.Sprint("s", i%11))})
	}
	d1 := table.New(name+"_d1", table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "name", Kind: table.KindString},
		table.Column{Name: "s", Kind: table.KindString},
	), 2)
	for i := 0; i < 30; i++ {
		d1.Append(i, table.Row{table.NewInt(int64(i % 10)), table.NewString(fmt.Sprint("n", i%4)),
			table.NewString(fmt.Sprint("s", i%10))})
	}
	d2 := table.New(name+"_d2", table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "g", Kind: table.KindInt},
	), 2)
	for _, k := range []int64{0, 1, 2, 4, 6} {
		d2.Append(int(k), table.Row{table.NewInt(k), table.NewInt(k % 3)})
	}
	d3 := table.New(name+"_d3", table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "w", Kind: table.KindFloat},
	), 2)
	for k := 0; k < 5; k++ {
		d3.Append(k, table.Row{table.NewInt(int64(k)), table.NewFloat(float64(k) / 4)})
	}
	d3.Append(5, table.Row{table.Null, table.NewFloat(9)})
	return fact, []*table.Table{d1, d2, d3}
}

// starCase is one plan shape over starTables: one to three broadcast
// joins stacked on the fact side, with operators below the lowest probe
// and above the top one.
type starCase struct {
	kind     lplan.JoinKind
	residual bool   // a residual m > 4·d1.k on the lowest join
	shared   bool   // SharedUniverseP on every join
	strKey   bool   // the lowest join keys on the strings f.s = d1.s
	source   string // the fact side: "scan", "exchange" (behind a keyed exchange) or "cached"
	below    string // under the lowest probe: "", "filter", "uniform", "universe" or "distinct"
	joins    int    // 1–3
	above    string // over the top probe: "", "project", "uniform" or "agg" (Project → Exchange → HashAgg)
}

func (c starCase) String() string {
	s := fmt.Sprintf("%v/%s/joins=%d", c.kind, c.source, c.joins)
	for _, f := range []struct {
		on   bool
		name string
	}{{c.residual, "residual"}, {c.shared, "shared"}, {c.strKey, "strkey"},
		{c.below != "", "below=" + c.below}, {c.above != "", "above=" + c.above}} {
		if f.on {
			s += "/" + f.name
		}
	}
	return s
}

// starCases crosses join kind, residual, what runs below the probes and
// what runs above them; the fact side's source, the number of joins,
// SharedUniverseP and string keys rotate through the cross product.
func starCases() []starCase {
	var cases []starCase
	for _, kind := range []lplan.JoinKind{lplan.InnerJoin, lplan.LeftOuterJoin} {
		for _, residual := range []bool{false, true} {
			for _, below := range []string{"", "filter", "uniform", "universe", "distinct"} {
				for _, above := range []string{"", "project", "uniform", "agg"} {
					i := len(cases)
					cases = append(cases, starCase{kind: kind, residual: residual, shared: i%4 == 1, strKey: i%5 == 2,
						source: []string{"scan", "exchange", "cached"}[(i/3)%3], below: below, joins: 1 + i%3, above: above})
				}
			}
		}
	}
	return cases
}

// plan builds the case's plan over fresh scans of fact and dims.
func (c starCase) plan(fact *table.Table, dims []*table.Table) PNode {
	ref := func(ci lplan.ColumnInfo) *lplan.ColRef { return &lplan.ColRef{ID: ci.ID, Name: ci.Name, Kind: ci.Kind} }
	fs := scanOf(fact)
	f := fs.OutCols
	var in PNode = fs
	switch c.source {
	case "exchange":
		in = &PExchange{In: in, Keys: []lplan.ColumnID{f[1].ID}, Parts: 3}
	case "cached":
		s := &PSample{In: in, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.8}, Seed: 21}
		in = &PCachedSample{Frag: s, Key: FragmentKey(s), SamplerP: 0.8}
	}
	switch c.below {
	case "filter":
		in = &PFilter{In: in, Pred: &lplan.Binary{Op: lplan.OpGt, L: ref(f[3]), R: &lplan.Const{Val: table.NewInt(20)}}}
	case "uniform":
		in = &PSample{In: in, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.5}, Seed: 31}
	case "universe":
		in = &PSample{In: in, Def: lplan.SamplerDef{Type: lplan.SamplerUniverse, P: 0.5, Cols: []lplan.ColumnID{f[0].ID}, Seed: 99}}
	case "distinct":
		in = distinctOver(in, 0.3, 3, []int{1}, nil, nil)
	}
	var last []lplan.ColumnInfo
	for j := 0; j < c.joins; j++ {
		ds := scanOf(dims[j])
		d := ds.OutCols
		lk, rk := f[j].ID, d[0].ID
		if j == 0 && c.strKey {
			lk, rk = f[4].ID, d[2].ID
		}
		var right PNode = ds
		if j == 0 {
			// A weighted build side, so the weight product shows.
			right = &PSample{In: ds, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.7}, Seed: 12}
		}
		jn := &PHashJoin{Kind: c.kind, Left: in, Right: right, Broadcast: true,
			LeftKeys: []lplan.ColumnID{lk}, RightKeys: []lplan.ColumnID{rk}}
		if c.shared {
			jn.SharedUniverseP = 0.5
		}
		if j == 0 && c.residual {
			jn.Residual = &lplan.Binary{Op: lplan.OpGt, L: ref(f[3]),
				R: &lplan.Binary{Op: lplan.OpMul, L: &lplan.Const{Val: table.NewInt(4)}, R: ref(d[0])}}
		}
		in, last = jn, d
	}
	switch c.above {
	case "uniform":
		return &PSample{In: in, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.6}, Seed: 41}
	case "project", "agg":
		nextID += 2
		m2 := lplan.ColumnInfo{ID: nextID - 1, Name: "m2", Kind: table.KindFloat}
		g := lplan.ColumnInfo{ID: nextID, Name: "g", Kind: last[1].Kind}
		proj := &PProject{In: in, Exprs: []lplan.Expr{
			&lplan.Binary{Op: lplan.OpMul, L: ref(f[3]), R: &lplan.Const{Val: table.NewInt(2)}},
			ref(last[1]), ref(f[0]),
		}, OutCols: []lplan.ColumnInfo{m2, g, f[0]}}
		if c.above == "project" {
			return proj
		}
		nextID += 2
		return &PHashAgg{
			In:        &PExchange{In: proj, Keys: []lplan.ColumnID{g.ID}, Parts: 3},
			GroupCols: []lplan.ColumnID{g.ID}, GroupInfo: []lplan.ColumnInfo{g},
			Aggs: []lplan.AggSpec{
				{Kind: lplan.AggSum, Arg: m2.ID, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID - 1, Name: "sum_m2", Kind: table.KindFloat}},
				{Kind: lplan.AggCount, Arg: lplan.NoColumn, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: nextID, Name: "cnt", Kind: table.KindInt}},
			},
		}
	}
	return in
}

// TestStarJoinStageAccounting pins what the simulated cluster is charged
// for a star plan (fact filtered, three broadcast probes, Project →
// Exchange → HashAgg) at one batch per partition: the stages in creation
// order with their dependencies, and per task the CPU units, input rows
// and input bytes. The literals are what the executor charged when every
// join materialized its probe side and its output; the probes moving
// into the chain must not change them.
func TestStarJoinStageAccounting(t *testing.T) {
	fact, dims := starTables("star", 600)
	p := starCase{kind: lplan.InnerJoin, source: "scan", below: "filter", joins: 3, above: "agg"}.plan(fact, dims)
	ex := testExecutor(context.Background(), p, -1)
	if _, err := ex.exec(p); err != nil {
		t.Fatal(err)
	}
	type stage struct {
		name  string
		deps  []int
		cpu   []float64
		rows  []int64
		bytes []float64
	}
	want := []stage{
		{"scan:star_d3", []int{}, []float64{3, 3}, []int64{3, 3}, []float64{48, 41}},
		{"scan:star_d2", []int{}, []float64{4, 1}, []int64{4, 1}, []float64{64, 16}},
		{"scan:star_d1", []int{}, []float64{30, 30}, []int64{15, 15}, []float64{420, 420}},
		{"scan:star_fact", []int{2, 1, 0}, []float64{1785.8, 1743, 1772.8, 1785, 64, 64},
			[]int64{182, 182, 182, 182, 32, 32}, []float64{7277, 7285, 7278, 7277, 1013, 1013}},
		{"aggregate", []int{3}, []float64{588, 584, 286}, []int64{294, 292, 143}, []float64{9408, 9344, 4576}},
	}
	if len(ex.run.Stages) != len(want) {
		t.Fatalf("%d stages, want %d:\n%s", len(ex.run.Stages), len(want), ex.run.String())
	}
	for i, w := range want {
		st := ex.run.Stages[i]
		got := stage{st.Name, st.Deps, st.TaskCPU, st.TaskInRows, st.TaskInBytes}
		if got.name != w.name || !slices.Equal(got.deps, w.deps) || !slices.Equal(got.cpu, w.cpu) ||
			!slices.Equal(got.rows, w.rows) || !slices.Equal(got.bytes, w.bytes) {
			t.Errorf("stage %d = %v, want %v", i, got, w)
		}
	}
}

// TestStarJoinChargesEveryTask: every probe task is charged the whole
// build side — input rows and bytes on the stage, 2 CPU units per build
// row, build_rows and in= on the join's slot — whether its probe
// partition is empty (the fact's last two are) or the build side is (the
// upper join's).
func TestStarJoinChargesEveryTask(t *testing.T) {
	fact, dims := starTables("every", 120)
	empty := table.New("every_empty", dims[1].Schema, 2)
	for _, kind := range []lplan.JoinKind{lplan.InnerJoin, lplan.LeftOuterJoin} {
		mk := func() PNode {
			return starCase{kind: kind, source: "scan", joins: 2}.plan(fact, []*table.Table{dims[0], empty})
		}
		sameAsReference(t, mk)
		for _, bs := range refBatchSizes {
			p := mk()
			ex := testExecutor(context.Background(), p, bs)
			if _, err := ex.exec(p); err != nil {
				t.Fatal(err)
			}
			var st *cluster.Stage
			for _, s := range ex.run.Stages {
				if s.Name == "scan:every_fact" {
					st = s
				}
			}
			upper := p.(*PHashJoin)
			lower := upper.Left.(*PHashJoin)
			var buildRows int64
			var buildBytes float64
			for _, j := range []*PHashJoin{lower, upper} {
				var bytes float64
				var n int64
				for _, part := range refChain(t, j.Right) {
					for _, r := range part {
						n, bytes = n+1, bytes+r.sz
					}
				}
				buildRows, buildBytes = buildRows+n, buildBytes+bytes
				for i, probe := range refChain(t, j.Left) {
					sl := ex.qm.Op(j).Slot(i)
					if sl.BuildRows != n || sl.ProbeRows != int64(len(probe)) || sl.RowsIn != n+int64(len(probe)) {
						t.Fatalf("%v batch=%d: %s task %d: build=%d probe=%d in=%d, want %d, %d, %d",
							kind, bs, j.Describe(), i, sl.BuildRows, sl.ProbeRows, sl.RowsIn, n, len(probe), n+int64(len(probe)))
					}
				}
			}
			for i := range st.TaskInRows {
				scanned := int64(fact.Columnar(i).NumRows)
				if st.TaskInRows[i] != scanned+buildRows {
					t.Fatalf("%v batch=%d: task %d reads %d rows, want %d scanned + %d built", kind, bs, i, st.TaskInRows[i], scanned, buildRows)
				}
				if scanned == 0 && (st.TaskCPU[i] != 2*float64(buildRows) || st.TaskInBytes[i] != buildBytes) {
					t.Fatalf("%v batch=%d: empty task %d charged cpu %v, %v bytes; want %v, %v",
						kind, bs, i, st.TaskCPU[i], st.TaskInBytes[i], 2*float64(buildRows), buildBytes)
				}
			}
		}
	}
}

// TestProbeEmitsPastBatchSize: at batch size 7 a probe over d1, whose
// keys repeat three times, emits batches of more than 7 rows.
func TestProbeEmitsPastBatchSize(t *testing.T) {
	fact, dims := starTables("past", 600)
	p := starCase{kind: lplan.InnerJoin, source: "scan", joins: 1}.plan(fact, dims)
	ex := testExecutor(context.Background(), p, 7)
	if _, err := ex.exec(p); err != nil {
		t.Fatal(err)
	}
	tot := ex.qm.Op(p).Total()
	if tot.RowsOut <= 7*tot.Batches {
		t.Fatalf("%d rows in %d batches: no batch exceeded the batch size", tot.RowsOut, tot.Batches)
	}
}

// cancelAfter cancels the query once its child has handed out n batches.
type cancelAfter struct {
	child  colOperator
	n      int
	pulls  *int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (Batch, error) {
	*c.pulls++
	if *c.pulls == c.n {
		c.cancel()
	}
	return c.child.Next()
}

// TestProbeCancelMidJoin cancels a selective star join in the middle of
// a probe partition: the probe stops at its next pull and the query
// reports ErrCanceled with no goroutine left behind; the next run of the
// plan is bit-identical to one before the cancel.
func TestProbeCancelMidJoin(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fact, dims := starTables("cancel", 600)
	mk := func() PNode {
		// m = i/2 meets d1's keys 0..9 only in the fact's first rows.
		p := starCase{kind: lplan.InnerJoin, source: "scan", joins: 1}.plan(fact, dims).(*PHashJoin)
		p.LeftKeys = []lplan.ColumnID{p.Left.Cols()[3].ID}
		return p
	}
	before := runBatched(t, mk(), 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := mk()
	ex := testExecutor(ctx, p, 7)
	cc, err := ex.buildColChain(p)
	if err != nil {
		t.Fatal(err)
	}
	pulls := make([]int, cc.parts)
	err = ex.parallel(cc.parts, func(i int) error {
		op, err := cc.operatorFor(i)
		if err != nil {
			return err
		}
		if i == 0 {
			probe := op.(*colProbeOp)
			probe.child = &cancelAfter{child: probe.child, n: 4, pulls: &pulls[0], cancel: cancel}
		}
		return pull(ex.ctx, op, func(*Batch) {})
	})
	if err != ErrCanceled {
		t.Fatalf("canceled star join: %v, want ErrCanceled", err)
	}
	if batches := (fact.Columnar(0).NumRows + 6) / 7; pulls[0] != 4 || batches <= 4 {
		t.Fatalf("partition 0 pulled %d of its %d batches, want 4", pulls[0], batches)
	}
	sameRows(t, before, runBatched(t, mk(), 7), "after cancel")
}

// TestJoinEmptySides: an empty build side pads (outer) or drops (inner)
// every probe row; an empty probe side yields nothing.
func TestJoinEmptySides(t *testing.T) {
	probe, build := joinFixture("je")
	empty := table.New("je_empty", build.Schema, 2)
	for _, kind := range []lplan.JoinKind{lplan.InnerJoin, lplan.LeftOuterJoin} {
		for _, emptyBuild := range []bool{true, false} {
			sameAsReference(t, func() PNode {
				ls, rs := scanOf(probe), scanOf(empty)
				if !emptyBuild {
					ls, rs = scanOf(empty), scanOf(build)
				}
				return &PHashJoin{Kind: kind, Left: ls, Right: rs, Broadcast: true,
					LeftKeys: []lplan.ColumnID{ls.OutCols[0].ID}, RightKeys: []lplan.ColumnID{rs.OutCols[0].ID}}
			})
		}
	}
}

// serialFan runs fn(0..n-1) on the calling goroutine, in order: a
// routeParts fan-out without the pool.
func serialFan(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
