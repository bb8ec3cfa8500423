package exec

import (
	"fmt"
	"math"
	"testing"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

// The aggregate runner against refAggregate (ref_test.go): the same
// partition, once as boxed rows through the string-keyed reference and
// once as hand-built batches through addBatch. Group order, every value,
// every standard error and every support count must be identical.

// Column positions of the aggregate test input.
const (
	aggColKey  = iota // group key; its kind is the test's subject
	aggColKey2        // second key of the two-column case (string)
	aggColX           // float argument with NULLs
	aggColI           // int argument
	aggColM           // integral float / fractional float / NULL
	aggColS           // string argument with NULLs
	aggColC           // boolean condition with NULLs
	aggColU           // universe column
	aggCols
)

const aggFirstID = 7000 // column IDs are aggFirstID + position

func aggColID(pos int) lplan.ColumnID { return lplan.ColumnID(aggFirstID + pos) }

// aggKeyKinds are the group-key columns the matrix runs over: what the
// key column holds at row i.
var aggKeyKinds = []struct {
	name string
	at   func(i int) table.Value
}{
	{"int", func(i int) table.Value { return table.NewInt(int64(i*7%23 - 5)) }},
	{"int-null", func(i int) table.Value {
		if i%9 == 4 {
			return table.Null
		}
		return table.NewInt(int64(i * 7 % 23)) // 0 included: NULL's payload
	}},
	{"float", func(i int) table.Value {
		switch i % 8 {
		case 3:
			return table.NewFloat(math.Copysign(0, -1)) // groups with 0
		case 5:
			return table.NewFloat(math.NaN())
		case 6:
			return table.Null
		}
		return table.NewFloat(float64(i%13) / 2) // integral and fractional
	}},
	{"str", func(i int) table.Value {
		if i%10 == 7 {
			return table.Null
		}
		// New strings keep arriving, so the dictionary grows mid-partition.
		return table.NewString(fmt.Sprintf("g%02d", (i%17)*(1+i/40)))
	}},
	{"bool", func(i int) table.Value {
		if i%7 == 2 {
			return table.Null
		}
		return table.NewBool(i%3 == 0)
	}},
	{"any", func(i int) table.Value { // an int key whose batches take any representation: all NULL, NULL-bearing, NULL-free
		switch {
		case i < 60:
			return table.Null
		case i < 100 && i%4 == 0:
			return table.Null
		}
		return table.NewInt(int64(i % 5))
	}},
	{"null", func(int) table.Value { return table.Null }},
}

// aggTestRows builds n weighted rows whose key column follows key.
func aggTestRows(n int, key func(int) table.Value, weighted bool) []wrow {
	rows := make([]wrow, n)
	for i := range rows {
		r := make(table.Row, aggCols)
		r[aggColKey] = key(i)
		r[aggColKey2] = table.NewString(fmt.Sprintf("k2-%d", i%3))
		if i%6 != 1 {
			r[aggColX] = table.NewFloat(float64(i%31)*1.7 - 11.3)
		}
		r[aggColI] = table.NewInt(int64(i%19 - 4))
		switch i % 5 {
		case 0, 1:
			r[aggColM] = table.NewFloat(float64(i % 7))
		case 2:
			r[aggColM] = table.NewFloat(float64(i%7) + 0.25)
		case 3:
			r[aggColM] = table.NewFloat(float64(i%3) - 1)
		}
		if i%8 != 3 {
			r[aggColS] = table.NewString(fmt.Sprintf("s%03d", (i*13)%41))
		}
		if i%11 != 6 {
			r[aggColC] = table.NewBool(i%3 != 1)
		}
		r[aggColU] = table.NewInt(int64(i % 9))
		w := 1.0
		if weighted {
			w = []float64{4, 2.5, 4, 7.75}[i%4]
		}
		rows[i] = newWRow(r, w)
	}
	return rows
}

// aggTestPlan aggregates with every AggKind over the given group
// columns (positions).
func aggTestPlan(group []int, est *EstimatorConfig) (*PHashAgg, colMap) {
	cols := make([]lplan.ColumnInfo, aggCols)
	for i := range cols {
		cols[i] = lplan.ColumnInfo{ID: aggColID(i), Name: fmt.Sprintf("c%d", i)}
	}
	p := &PHashAgg{Est: est, Top: true}
	for _, g := range group {
		p.GroupCols = append(p.GroupCols, aggColID(g))
		p.GroupInfo = append(p.GroupInfo, cols[g])
	}
	add := func(kind lplan.AggKind, arg, cond int, out table.Kind) {
		spec := lplan.AggSpec{Kind: kind, Arg: lplan.NoColumn, Cond: lplan.NoColumn,
			Out: lplan.ColumnInfo{ID: lplan.ColumnID(aggFirstID + 100 + len(p.Aggs)), Kind: out}}
		if arg >= 0 {
			spec.Arg = aggColID(arg)
		}
		if cond >= 0 {
			spec.Cond = aggColID(cond)
		}
		p.Aggs = append(p.Aggs, spec)
	}
	add(lplan.AggCount, -1, -1, table.KindInt)
	add(lplan.AggCount, aggColX, -1, table.KindInt)
	add(lplan.AggCountIf, -1, aggColC, table.KindInt)
	add(lplan.AggSum, aggColX, -1, table.KindFloat)
	add(lplan.AggSum, aggColI, -1, table.KindInt)
	add(lplan.AggSum, aggColM, -1, table.KindFloat)
	add(lplan.AggSumIf, aggColX, aggColC, table.KindFloat)
	add(lplan.AggAvg, aggColX, -1, table.KindFloat)
	add(lplan.AggAvg, aggColM, aggColC, table.KindFloat)
	add(lplan.AggCountDistinct, aggColM, -1, table.KindInt)
	add(lplan.AggCountDistinct, aggColS, -1, table.KindInt)
	add(lplan.AggCountDistinct, aggColU, -1, table.KindInt) // scaled by 1/p under the universe estimator
	add(lplan.AggMin, aggColM, -1, table.KindFloat)
	add(lplan.AggMax, aggColM, -1, table.KindFloat)
	add(lplan.AggMin, aggColS, -1, table.KindString)
	add(lplan.AggMax, aggColX, -1, table.KindFloat)
	add(lplan.AggSum, -1, -1, table.KindFloat) // no argument: adds nothing
	return p, buildColMap(cols)
}

// aggDict is a string dictionary shared by the batches of one column,
// growing as the partition goes.
type aggDict struct {
	strs []string
	code map[string]int64
}

// aggTestVector renders vals as one batch column. Strings go through d,
// so that consecutive batches see one dictionary that grows (in place or
// reallocated, as append decides); everything else through a vecBuilder,
// which types the column by what the batch holds.
func aggTestVector(vals []table.Value, d *aggDict) table.Vector {
	strs, nonNull := true, false // all-NULL batches of any column come out VKNull
	for _, v := range vals {
		strs = strs && (v.IsNull() || v.Kind() == table.KindString)
		nonNull = nonNull || !v.IsNull()
	}
	if !strs || !nonNull || d == nil {
		bd := &vecBuilder{mem: newLedger()}
		for _, v := range vals {
			bd.append(v)
		}
		return bd.build()
	}
	v := table.Vector{K: table.VKStr, N: len(vals), Ints: make([]int64, len(vals)), Nulls: make([]uint64, (len(vals)+63)/64)}
	for i, val := range vals {
		if val.IsNull() {
			v.Nulls[i>>6] |= 1 << (uint(i) & 63)
			continue
		}
		c, ok := d.code[val.Str()]
		if !ok {
			c = int64(len(d.strs))
			d.strs = append(d.strs, val.Str())
			d.code[val.Str()] = c
		}
		v.Ints[i] = c
	}
	v.Dict = d.strs
	return v
}

// aggTestBatches cuts rows into batches of size live rows. With thin,
// every live lane is followed by a dead one outside sel, whose payload
// would show if read: another group's key, an out-of-range dictionary
// code, NaN.
func aggTestBatches(rows []wrow, size int, thin bool) []Batch {
	dicts := make([]*aggDict, aggCols)
	for c := range dicts {
		dicts[c] = &aggDict{code: map[string]int64{}}
	}
	var out []Batch
	for lo := 0; lo < len(rows); lo += size {
		chunk := rows[lo:min(lo+size, len(rows))]
		b := Batch{cols: make([]table.Vector, aggCols)}
		for _, r := range chunk {
			if thin {
				b.sel = append(b.sel, int32(b.n))
				b.weights = append(b.weights, r.w, math.NaN())
				b.n += 2
			} else {
				b.weights = append(b.weights, r.w)
				b.n++
			}
		}
		for c := range b.cols {
			var vals []table.Value
			for _, r := range chunk {
				vals = append(vals, r.row[c])
				if thin {
					vals = append(vals, r.row[c]) // same kind; poisoned below
				}
			}
			v := aggTestVector(vals, dicts[c])
			for d := 1; thin && d < v.N; d += 2 {
				switch v.K {
				case table.VKInt, table.VKBool:
					v.Ints[d] ^= 1
				case table.VKStr:
					v.Ints[d] = int64(len(v.Dict)) + 5
				case table.VKFloat:
					v.Floats[d] = math.NaN()
				}
			}
			b.cols[c] = v
		}
		out = append(out, b)
	}
	return out
}

// sameAggOutput asserts the runner's emit equals the reference's rows and
// estimates exactly.
func sameAggOutput(t *testing.T, label string, wantRows []table.Row, wantEsts []GroupEstimate, got Part, gotEsts []GroupEstimate) {
	t.Helper()
	want := make([]wrow, len(wantRows))
	for i, r := range wantRows {
		want[i] = newWRow(r, 1)
	}
	sameParts(t, [][]wrow{want}, []Part{got}, label)
	if len(gotEsts) != len(wantEsts) {
		t.Fatalf("%s: %d estimates, want %d", label, len(gotEsts), len(wantEsts))
	}
	for i, w := range wantEsts {
		g := gotEsts[i]
		if g.SampleRows != w.SampleRows || len(g.Key) != len(w.Key) || len(g.Values) != len(w.Values) || len(g.StdErr) != len(w.StdErr) {
			t.Fatalf("%s: estimate %d is %+v, want %+v", label, i, g, w)
		}
		for k := range w.Key {
			if !sameValue(g.Key[k], w.Key[k]) {
				t.Fatalf("%s: estimate %d key %d = %v, want %v", label, i, k, g.Key[k], w.Key[k])
			}
		}
		for j := range w.Values {
			if !sameValue(g.Values[j], w.Values[j]) {
				t.Fatalf("%s: estimate %d value %d = %v, want %v", label, i, j, g.Values[j], w.Values[j])
			}
			if math.Float64bits(g.StdErr[j]) != math.Float64bits(w.StdErr[j]) {
				t.Fatalf("%s: estimate %d stderr %d = %v, want %v", label, i, j, g.StdErr[j], w.StdErr[j])
			}
		}
	}
}

// TestAggMatchesRowReference: every AggKind × dense and sel-thinned
// batches × every key representation (typed, dictionary-coded with a
// growing dictionary, kind-changing, all-NULL, two columns, none) ×
// no estimator, the uniform one and the universe one.
func TestAggMatchesRowReference(t *testing.T) {
	ests := map[string]*EstimatorConfig{
		"exact":    nil,
		"uniform":  {Type: lplan.SamplerUniform, P: 0.25},
		"universe": {Type: lplan.SamplerUniverse, P: 0.25, UniverseCols: []lplan.ColumnID{aggColID(aggColU)}},
	}
	type keyCase struct {
		name  string
		at    func(int) table.Value
		group []int
	}
	var keys []keyCase
	for _, k := range aggKeyKinds {
		keys = append(keys, keyCase{k.name, k.at, []int{aggColKey}})
	}
	keys = append(keys,
		keyCase{"int+str", aggKeyKinds[1].at, []int{aggColKey, aggColKey2}},
		keyCase{"global", aggKeyKinds[0].at, nil})
	for _, kc := range keys {
		for estName, est := range ests {
			t.Run(kc.name+"/"+estName, func(t *testing.T) {
				rows := aggTestRows(240, kc.at, est != nil)
				p, cm := aggTestPlan(kc.group, est)
				wantRows, wantEsts := refAggregate(t, p, cm, rows)
				if len(kc.group) > 0 && len(wantRows) < 2 && kc.name != "null" {
					t.Fatalf("fixture: only %d groups", len(wantRows))
				}
				for _, size := range []int{1, 7, 64, len(rows)} {
					for _, thin := range []bool{false, true} {
						r, err := newAggRunner(p, cm, newLedger())
						if err != nil {
							t.Fatal(err)
						}
						n := 0
						for _, b := range aggTestBatches(rows, size, thin) {
							n += r.addBatch(&b, nil)
						}
						if n != len(rows) {
							t.Fatalf("addBatch folded %d rows of %d", n, len(rows))
						}
						part, gotEsts := r.emit()
						sameAggOutput(t, fmt.Sprintf("batch=%d thin=%v", size, thin), wantRows, wantEsts, part, gotEsts)
					}
				}
			})
		}
	}
}

// TestAggCountDistinctMixedKinds: over a Float column appended ints and
// floats alike (Append widens the ints), the typed distinct set counts
// what the map keyed by Value.Key() counts — 2 and 2.0 once, −0 and 0
// once, a fractional float apart, NULL never.
func TestAggCountDistinctMixedKinds(t *testing.T) {
	in := []table.Value{
		table.NewInt(2), table.NewFloat(2), table.Null, table.NewFloat(2.5), table.NewInt(-2),
		table.NewFloat(-2), table.Null, table.NewInt(2), table.NewFloat(1e18),
		table.NewInt(1e18), table.NewFloat(math.Copysign(0, -1)), table.NewInt(0),
	}
	tbl := table.New("cd", table.NewSchema(table.Column{Name: "x", Kind: table.KindFloat}), 1)
	for _, v := range in {
		tbl.Append(0, table.Row{v})
	}
	col := tbl.Columnar(0).Cols[0]
	vals := make([]table.Value, col.N)
	for i := range vals {
		vals[i] = col.Value(i)
	}
	byKey := map[string]bool{}
	for _, v := range vals {
		if !v.IsNull() {
			byKey[v.Key()] = true
		}
	}
	cols := []lplan.ColumnInfo{{ID: 1, Name: "x"}}
	p := &PHashAgg{Aggs: []lplan.AggSpec{{Kind: lplan.AggCountDistinct, Arg: 1, Cond: lplan.NoColumn, Out: lplan.ColumnInfo{ID: 2, Kind: table.KindInt}}}}
	for _, size := range []int{1, 3, len(vals)} {
		r, err := newAggRunner(p, buildColMap(cols), newLedger())
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(vals); lo += size {
			chunk := vals[lo:min(lo+size, len(vals))]
			w := make([]float64, len(chunk))
			r.addBatch(&Batch{cols: []table.Vector{aggTestVector(chunk, nil)}, n: len(chunk), weights: w}, nil)
		}
		part, _ := r.emit()
		if got := table.RowsOf(part.Cols, part.N, 0)[0][0]; got.Int() != int64(len(byKey)) {
			t.Fatalf("batch=%d: COUNT(DISTINCT) = %v, the Key() map holds %d", size, got, len(byKey))
		}
	}
}

// TestAggPlanMatchesRowReference runs grouped aggregates through the
// executor — one runner per partition, in parallel on the pool, fed by
// the fused chain at every batch size — against the row reference.
func TestAggPlanMatchesRowReference(t *testing.T) {
	tbl := mixedTable("aggplan", 6, 3000) // i, f, s, b, m: NULLs everywhere, m appended ints and floats
	for _, keys := range [][]int{{2}, {0}, {4}, {3, 2}, nil} {
		mk := func() PNode {
			scan := scanOf(tbl)
			c := scan.OutCols
			smp := &PSample{In: scan, Def: lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.5}, Seed: 21}
			agg := &PHashAgg{In: smp, Est: &EstimatorConfig{Type: lplan.SamplerUniform, P: 0.5}, Top: true}
			for _, k := range keys {
				agg.GroupCols = append(agg.GroupCols, c[k].ID)
				agg.GroupInfo = append(agg.GroupInfo, c[k])
			}
			for _, spec := range []lplan.AggSpec{
				{Kind: lplan.AggSum, Arg: c[1].ID}, {Kind: lplan.AggCount, Arg: lplan.NoColumn},
				{Kind: lplan.AggAvg, Arg: c[0].ID}, {Kind: lplan.AggCountDistinct, Arg: c[4].ID},
				{Kind: lplan.AggMin, Arg: c[2].ID}, {Kind: lplan.AggCountIf, Arg: lplan.NoColumn, Cond: c[3].ID},
			} {
				nextID++
				if spec.Kind != lplan.AggCountIf {
					spec.Cond = lplan.NoColumn
				}
				spec.Out = lplan.ColumnInfo{ID: nextID, Kind: table.KindFloat}
				agg.Aggs = append(agg.Aggs, spec)
			}
			return agg
		}
		want := refRun(t, mk())
		for _, bs := range refBatchSizes {
			label := fmt.Sprintf("keys=%v batch=%d", keys, bs)
			got := runBatched(t, mk(), bs)
			sameRows(t, want, got, label)
			sameEstimates(t, want, got, label)
		}
	}
}
