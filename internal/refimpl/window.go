package refimpl

import (
	"fmt"
	"sort"
	"strings"

	"quickr/internal/lplan"
	"quickr/internal/table"
)

// evalWindow is the reference window-function evaluator: for every spec
// it materializes each partition, sorts it, and recomputes the frame
// aggregate from scratch per row — O(n²) per partition on purpose.
func (e *evaluator) evalWindow(w *lplan.Window) (*relation, error) {
	in, err := e.eval(w.Input)
	if err != nil {
		return nil, err
	}
	cm := in.colIndex()
	out := &relation{cols: w.Columns()}
	extras := make([][]table.Value, len(w.Specs))
	for si, spec := range w.Specs {
		vals, err := refWindow(spec, cm, in.rows)
		if err != nil {
			return nil, err
		}
		extras[si] = vals
	}
	for j, row := range in.rows {
		r := append(table.Row{}, row...)
		for si := range w.Specs {
			r = append(r, extras[si][j])
		}
		out.rows = append(out.rows, r)
	}
	return out, nil
}

func refWindow(spec lplan.WinSpec, cm map[lplan.ColumnID]int, rows []table.Row) ([]table.Value, error) {
	pIdx := make([]int, len(spec.PartitionBy))
	for i, id := range spec.PartitionBy {
		pos, ok := cm[id]
		if !ok {
			return nil, fmt.Errorf("refimpl: window partition column #%d missing", id)
		}
		pIdx[i] = pos
	}
	oIdx := make([]int, len(spec.OrderBy))
	for i, k := range spec.OrderBy {
		pos, ok := cm[k.Col]
		if !ok {
			return nil, fmt.Errorf("refimpl: window order column #%d missing", k.Col)
		}
		oIdx[i] = pos
	}
	aIdx := -1
	if spec.Arg != lplan.NoColumn {
		pos, ok := cm[spec.Arg]
		if !ok {
			return nil, fmt.Errorf("refimpl: window arg column #%d missing", spec.Arg)
		}
		aIdx = pos
	}

	key := func(j int) string {
		var b strings.Builder
		for _, pi := range pIdx {
			b.WriteString(rows[j][pi].Key())
			b.WriteByte(0)
		}
		return b.String()
	}
	less := func(a, b int) bool {
		for i, k := range spec.OrderBy {
			c := rows[a][oIdx[i]].Order(rows[b][oIdx[i]])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return table.CompareRows(rows[a], rows[b]) < 0
	}
	sameOrderKeys := func(a, b int) bool {
		for _, oi := range oIdx {
			if rows[a][oi].Order(rows[b][oi]) != 0 {
				return false
			}
		}
		return true
	}

	parts := map[string][]int{}
	for j := range rows {
		k := key(j)
		parts[k] = append(parts[k], j)
	}
	out := make([]table.Value, len(rows))
	for _, idxs := range parts {
		sort.SliceStable(idxs, func(a, b int) bool { return less(idxs[a], idxs[b]) })
		for n, j := range idxs {
			switch spec.Kind {
			case lplan.WinRowNumber:
				out[j] = table.NewInt(int64(n + 1))
			case lplan.WinRank:
				rank := 1
				for m := 0; m < n; m++ {
					if !sameOrderKeys(idxs[m], j) {
						rank = m + 2
					}
				}
				out[j] = table.NewInt(int64(rank))
			default:
				// Frame: whole partition without ORDER BY, else all rows up
				// to and including the current row's peers.
				var sum float64
				var cnt int64
				minV, maxV := table.Null, table.Null
				for m, mj := range idxs {
					inFrame := len(spec.OrderBy) == 0 || m <= n || sameOrderKeys(mj, j)
					if len(spec.OrderBy) > 0 && m > n && !sameOrderKeys(mj, j) {
						inFrame = false
					}
					if !inFrame {
						continue
					}
					var v table.Value = table.Null
					if aIdx >= 0 {
						v = rows[mj][aIdx]
					}
					if spec.Kind == lplan.WinCount {
						if aIdx < 0 || !v.IsNull() {
							cnt++
						}
						continue
					}
					if v.IsNull() {
						continue
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
				switch spec.Kind {
				case lplan.WinSum:
					if cnt == 0 {
						out[j] = table.Null
					} else if spec.Out.Kind == table.KindInt {
						out[j] = table.NewInt(int64(sum))
					} else {
						out[j] = table.NewFloat(sum)
					}
				case lplan.WinCount:
					out[j] = table.NewInt(cnt)
				case lplan.WinAvg:
					if cnt == 0 {
						out[j] = table.Null
					} else {
						out[j] = table.NewFloat(sum / float64(cnt))
					}
				case lplan.WinMin:
					out[j] = minV
				case lplan.WinMax:
					out[j] = maxV
				}
			}
		}
	}
	return out, nil
}
