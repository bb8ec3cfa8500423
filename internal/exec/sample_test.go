package exec

import (
	"context"
	"fmt"
	"testing"

	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/table"
)

// distinctOver builds Sample DISTINCT over in, stratified on the columns
// cols and bucketed on the columns bkts (by position in in's output).
func distinctOver(in PNode, p float64, delta int, cols, bkts []int, widths []float64) *PSample {
	c := in.Cols()
	def := lplan.SamplerDef{Type: lplan.SamplerDistinct, P: p, Delta: delta, BucketWidths: widths}
	for _, i := range cols {
		def.Cols = append(def.Cols, c[i].ID)
	}
	for _, i := range bkts {
		def.BucketCols = append(def.BucketCols, c[i].ID)
	}
	return &PSample{In: in, Def: def, Seed: 5}
}

// TestDistinctMatchesRowReference holds the distinct sampler's key
// vectors, bucket vectors, stratum ids, hold store and emission builder
// to the row reference (refSample) at batch 1/7/256/−1, behind a filter
// so batches carry dead lanes: strata over a dictionary string (heavy
// enough to overflow reservoirs and go probabilistic) and over a bool
// with ⌈v/width⌉ buckets of an int column with negatives and NULLs, a
// float column and a mixed int/float/string/NULL column (width 0 falls
// back to 1; five partitions over its four-row cycle make every
// partition's column mixed). mixedTable's strings are NUL-free, which
// the reference's string key needs.
func TestDistinctMatchesRowReference(t *testing.T) {
	tbl := mixedTable("distref", 5, 20000)
	for name, mk := range map[string]func(PNode) PNode{
		"strings": func(in PNode) PNode { return distinctOver(in, 0.05, 4, []int{2}, nil, nil) },
		"buckets": func(in PNode) PNode {
			return distinctOver(in, 0.05, 4, []int{3}, []int{0, 1, 4}, []float64{40, 2000, 0})
		},
	} {
		t.Run(name, func(t *testing.T) {
			sameAsReference(t, func() PNode {
				scan := scanOf(tbl)
				f := scan.OutCols[1]
				return mk(&PFilter{In: scan, Pred: &lplan.Binary{Op: lplan.OpGt,
					L: &lplan.ColRef{ID: f.ID, Name: f.Name, Kind: f.Kind}, R: &lplan.Const{Val: table.NewInt(3)}}})
			})
		})
	}
}

// TestDistinctDegenerateInputs: the distinct sampler against the row
// reference where its modes degenerate — empty and one-row partitions,
// a stratum column that is all NULL, δ at least every partition's row
// count (everything passes in frequency mode), and p at the planner's
// MaxP (0.1).
func TestDistinctDegenerateInputs(t *testing.T) {
	sc := table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "n", Kind: table.KindString},
		table.Column{Name: "v", Kind: table.KindFloat},
	)
	tbl := table.New("distdegen", sc, 5)
	// Partition 0 stays empty, 1 and 3 hold one row, 2 and 4 the rest.
	tbl.Append(1, table.Row{table.NewInt(1), table.Null, table.NewFloat(1)})
	tbl.Append(3, table.Row{table.NewInt(2), table.Null, table.NewFloat(2)})
	for i := 0; i < 3000; i++ {
		tbl.Append(2+2*(i%2), table.Row{table.NewInt(int64(i % 7)), table.Null, table.NewFloat(float64(i))})
	}
	for name, mk := range map[string]func(PNode) PNode{
		"small-partitions": func(in PNode) PNode { return distinctOver(in, 0.05, 3, []int{0}, nil, nil) },
		"all-null-stratum": func(in PNode) PNode { return distinctOver(in, 0.05, 3, []int{1}, []int{1}, []float64{10}) },
		"delta-covers-all": func(in PNode) PNode { return distinctOver(in, 0.05, 5000, []int{0}, nil, nil) },
		"p-at-max":         func(in PNode) PNode { return distinctOver(in, 0.1, 3, []int{0}, []int{2}, []float64{500}) },
	} {
		t.Run(name, func(t *testing.T) {
			sameAsReference(t, func() PNode { return mk(scanOf(tbl)) })
		})
	}
}

// TestDistinctStrataKeepTheirGuarantee: every stratum gets min(δ, freq)
// rows (§4.1.2), also strata whose NUL-joined canonical key strings
// coincide — ("x\x00sy", "z") and ("x", "y\x00sz") both render as
// "sx\x00sy\x00sz\x00". Under a string key the two shared one δ, and the
// rare one lost its guarantee to the frequent one met first.
func TestDistinctStrataKeepTheirGuarantee(t *testing.T) {
	sc := table.NewSchema(
		table.Column{Name: "a", Kind: table.KindString},
		table.Column{Name: "b", Kind: table.KindString},
		table.Column{Name: "v", Kind: table.KindFloat},
	)
	tbl := table.New("distnul", sc, 1)
	freq := map[[2]string]int{}
	add := func(a, b string, n int) {
		for i := 0; i < n; i++ {
			tbl.Append(0, table.Row{table.NewString(a), table.NewString(b), table.NewFloat(float64(i))})
		}
		freq[[2]string{a, b}] += n
	}
	add("x\x00sy", "z", 200)
	add("x", "y\x00sz", 5)
	add("x", "y", 3)
	const delta = 5
	for _, bs := range refBatchSizes {
		res := runBatched(t, distinctOver(scanOf(tbl), 0.01, delta, []int{0, 1}, nil, nil), bs)
		got := map[[2]string]int{}
		for _, r := range res.Rows {
			got[[2]string{r[0].Str(), r[1].Str()}]++
		}
		for k, f := range freq {
			if want := min(delta, f); got[k] < want {
				t.Errorf("batch=%d: stratum %q got %d rows, want >= %d", bs, fmt.Sprint(k), got[k], want)
			}
		}
	}
}

// lastBatch hands on its child's batches and remembers the last one.
type lastBatch struct {
	child colOperator
	b     Batch
}

func (l *lastBatch) Next() (Batch, error) {
	b, err := l.child.Next()
	l.b = b
	return b, err
}

// TestDistinctPassesInPlaceWithoutDrain: a batch in which no reservoir
// drains leaves the distinct sampler as its input batch — the same
// column vectors and weights, the selection thinned in place — and a
// batch in which one drains is built densely in emission order. Batch
// by batch, rows, weights and accounted bytes together are the row
// reference's, at batch 1/7/256/−1 (a whole partition is one batch at
// −1, so there every batch drains).
func TestDistinctPassesInPlaceWithoutDrain(t *testing.T) {
	tbl := mixedTable("distinplace", 2, 12000)
	scan := scanOf(tbl)
	plan := distinctOver(scan, 0.05, 4, []int{2}, nil, nil)
	src := execParts(t, scan, -1)
	want := refChain(t, plan)
	sp, err := (&executor{qm: metrics.NewQuery(), mem: newLedger()}).compilePipeOp(plan, len(src))
	if err != nil {
		t.Fatal(err)
	}
	st := cluster.NewRun(cluster.DefaultConfig()).NewStage("sample", len(src))
	for _, bs := range refBatchSizes {
		got := make([]Part, len(src))
		inPlace, drained := 0, 0
		for p := range src {
			size := bs
			if size < 0 {
				size = src[p].N
			}
			in := &lastBatch{child: &partSource{p: &src[p], size: size}}
			op := sp.newSampler(newLedger(), p)
			op.ctx, op.child, op.st, op.task, op.slot = context.Background(), in, st, p, &metrics.Slot{}
			pb := newPartBuilder(newLedger(), len(scan.OutCols), 0)
			var bytes float64
			for {
				b, err := op.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b.Len() == 0 {
					break
				}
				switch {
				case op.done: // the flush
				case len(op.dist.em) == 0:
					inPlace++
					if b.sel == nil || &b.cols[0] != &in.b.cols[0] || &b.weights[0] != &in.b.weights[0] {
						t.Fatalf("batch=%d: a batch without a drain was copied", bs)
					}
				default:
					drained++
					if b.sel != nil || &b.cols[0] == &in.b.cols[0] {
						t.Fatalf("batch=%d: a batch with a drain was not gathered", bs)
					}
				}
				pb.appendBatch(&b)
				bytes += b.bytes
			}
			got[p] = pb.finishSized(bytes)
		}
		if drained == 0 || inPlace == 0 && bs > 0 {
			t.Fatalf("batch=%d: %d batches in place, %d with a drain", bs, inPlace, drained)
		}
		sameParts(t, want, got, fmt.Sprintf("batch=%d", bs))
	}
}
