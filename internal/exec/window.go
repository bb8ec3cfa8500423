package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

// PWindow computes window functions (paper Table 1 "Others"): each
// input row gains one column per spec. The planner co-partitions the
// input on the shared PARTITION BY columns (or gathers when the specs
// have none/different ones), so each task sees whole window partitions.
type PWindow struct {
	In    PNode
	Specs []lplan.WinSpec
}

// Cols implements PNode.
func (p *PWindow) Cols() []lplan.ColumnInfo {
	out := append([]lplan.ColumnInfo{}, p.In.Cols()...)
	for _, s := range p.Specs {
		out = append(out, s.Out)
	}
	return out
}

// Kids implements PNode.
func (p *PWindow) Kids() []PNode { return []PNode{p.In} }

// Describe implements PNode.
func (p *PWindow) Describe() string {
	parts := make([]string, len(p.Specs))
	for i, s := range p.Specs {
		parts[i] = s.Kind.String()
	}
	return "Window [" + strings.Join(parts, ",") + "]"
}

// Breaker implements PNode: window functions sort whole partitions.
func (p *PWindow) Breaker() bool { return true }

func (ex *executor) execWindow(p *PWindow) (*stream, error) {
	s, err := ex.exec(p.In)
	if err != nil {
		return nil, err
	}
	ex.ensureStage(s, "window")
	cm := buildColMap(p.In.Cols())
	op := ex.opFor(p)
	op.Grow(len(s.parts))
	t0 := time.Now()
	if err := ex.parallel(len(s.parts), func(i int) error {
		part := &s.parts[i]
		// The window functions sort and scan the partition's lanes in
		// place. The output keeps the input's columns and row order and
		// gains one column per spec.
		out := Part{N: part.N, Cols: slices.Clip(part.Cols), W: part.W}
		for _, spec := range p.Specs {
			vals, err := computeWindow(ex.mem, spec, cm, part.Cols, part.N)
			if err != nil {
				return err
			}
			bd := vecBuilder{mem: ex.mem, hint: len(vals)}
			for _, v := range vals {
				bd.append(v)
			}
			out.Cols = append(out.Cols, bd.build())
		}
		out.bytes = partBytes(out.Cols, out.N)
		s.parts[i] = out
		cost := float64(out.N)
		if cost > 1 {
			s.stage.AddCPU(i, 2*cost*logf(out.N))
		}
		sl := op.Slot(i)
		sl.RowsIn += int64(out.N)
		sl.RowsOut += int64(out.N)
		if out.N > 0 {
			sl.NoteBatch(out.bytes)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	op.AddWall(time.Since(t0))
	return s, nil
}

// computeWindow returns, for one spec, the output value for each of the
// n input rows, whose columns are cols, with its scratch on mem.
func computeWindow(mem *ledger, spec lplan.WinSpec, cm colMap, cols []table.Vector, n int) ([]table.Value, error) {
	partIdx := make([]int, len(spec.PartitionBy))
	for i, id := range spec.PartitionBy {
		pos, ok := cm[id]
		if !ok {
			return nil, fmt.Errorf("exec: window partition column #%d missing", id)
		}
		partIdx[i] = pos
	}
	orderIdx := make([]int, len(spec.OrderBy))
	for i, k := range spec.OrderBy {
		pos, ok := cm[k.Col]
		if !ok {
			return nil, fmt.Errorf("exec: window order column #%d missing", k.Col)
		}
		orderIdx[i] = pos
	}
	argIdx := -1
	if spec.Arg != lplan.NoColumn {
		pos, ok := cm[spec.Arg]
		if !ok {
			return nil, fmt.Errorf("exec: window argument column #%d missing", spec.Arg)
		}
		argIdx = pos
	}

	// Bucket the rows by window partition, each partition's rows in row
	// order: a keyTable hands every PARTITION BY key tuple a dense id.
	// Every output lands at its row's index, so the order the partitions
	// run in cannot change an answer.
	keys := make([]table.Vector, len(partIdx))
	for k, pos := range partIdx {
		keys[k] = cols[pos]
	}
	lanes, ids := slab[int32](mem, n), slab[int64](mem, n)
	for i := range lanes {
		lanes[i] = int32(i)
	}
	nparts := newKeyIndex(mem, ids, keys, lanes).len()
	start := make([]int, nparts+1)
	for _, id := range ids {
		start[id+1]++
	}
	for id := range nparts {
		start[id+1] += start[id]
	}
	next, byPart := slices.Clone(start[:nparts]), make([]int, n)
	for j, id := range ids {
		byPart[next[id]] = j
		next[id]++
	}

	out := make([]table.Value, n)
	for id := range nparts {
		idxs := byPart[start[id]:start[id+1]]
		// Sort partition rows by the ORDER BY keys (stable; ties broken
		// by full row compare for determinism).
		sort.SliceStable(idxs, func(a, b int) bool {
			ra, rb := idxs[a], idxs[b]
			for oi, key := range spec.OrderBy {
				c := compareLane(&cols[orderIdx[oi]], ra, rb)
				if key.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return compareLanes(cols, ra, rb) < 0
		})
		computePartition(spec, cols, idxs, orderIdx, argIdx, out)
	}
	return out, nil
}

// computePartition fills out[...] for one sorted window partition.
func computePartition(spec lplan.WinSpec, cols []table.Vector, idxs []int, orderIdx []int, argIdx int, out []table.Value) {
	peers := func(a, b int) bool {
		// Rows are peers when all ORDER BY keys are equal.
		for _, oi := range orderIdx {
			if compareLane(&cols[oi], idxs[a], idxs[b]) != 0 {
				return false
			}
		}
		return true
	}

	switch spec.Kind {
	case lplan.WinRowNumber:
		for n, j := range idxs {
			out[j] = table.NewInt(int64(n + 1))
		}
		return
	case lplan.WinRank:
		rank := 1
		for n, j := range idxs {
			if n > 0 && !peers(n-1, n) {
				rank = n + 1
			}
			out[j] = table.NewInt(int64(rank))
		}
		return
	}

	// Aggregate window functions. Without ORDER BY the frame is the
	// whole partition; with ORDER BY it is the running prefix including
	// the current row's peers (RANGE UNBOUNDED PRECEDING..CURRENT ROW).
	running := len(spec.OrderBy) > 0
	var sum float64
	var cnt int64
	minV, maxV := table.Null, table.Null
	consume := func(j int) {
		var v table.Value = table.Null
		if argIdx >= 0 {
			v = cols[argIdx].Value(j)
		}
		switch spec.Kind {
		case lplan.WinCount:
			if argIdx < 0 || !v.IsNull() {
				cnt++
			}
		default:
			if v.IsNull() {
				return
			}
			sum += v.Float()
			cnt++
			if minV.IsNull() || v.Compare(minV) < 0 {
				minV = v
			}
			if maxV.IsNull() || v.Compare(maxV) > 0 {
				maxV = v
			}
		}
	}
	emit := func() table.Value {
		switch spec.Kind {
		case lplan.WinSum:
			if cnt == 0 {
				return table.Null
			}
			if spec.Out.Kind == table.KindInt {
				return table.NewInt(int64(sum))
			}
			return table.NewFloat(sum)
		case lplan.WinCount:
			return table.NewInt(cnt)
		case lplan.WinAvg:
			if cnt == 0 {
				return table.Null
			}
			return table.NewFloat(sum / float64(cnt))
		case lplan.WinMin:
			return minV
		case lplan.WinMax:
			return maxV
		}
		return table.Null
	}

	if !running {
		for _, j := range idxs {
			consume(j)
		}
		v := emit()
		for _, j := range idxs {
			out[j] = v
		}
		return
	}
	// Running frame: advance in peer groups.
	n := 0
	for n < len(idxs) {
		end := n + 1
		for end < len(idxs) && peers(n, end) {
			end++
		}
		for m := n; m < end; m++ {
			consume(idxs[m])
		}
		v := emit()
		for m := n; m < end; m++ {
			out[idxs[m]] = v
		}
		n = end
	}
}
