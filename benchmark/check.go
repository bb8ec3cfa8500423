package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"quickr"
	"quickr/internal/exec"
	"quickr/internal/refimpl"
	"quickr/internal/table"
)

// fnv is an FNV-1a 64 running digest of an answer's bits.
type fnv uint64

const fnvOffset fnv = 14695981039346656037

func (h *fnv) u64(x uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv(x&0xff)) * 1099511628211
		x >>= 8
	}
}

func (h *fnv) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv(s[i])) * 1099511628211
	}
}

func (h *fnv) value(v table.Value) {
	h.u64(uint64(v.Kind()))
	switch v.Kind() {
	case table.KindInt, table.KindBool:
		h.u64(uint64(v.Int()))
	case table.KindFloat:
		h.u64(math.Float64bits(v.Float()))
	case table.KindString:
		h.str(v.Str())
	}
}

func (h *fnv) rows(rows []table.Row) {
	h.u64(uint64(len(rows)))
	for _, r := range rows {
		for _, v := range r {
			h.value(v)
		}
	}
}

func (h *fnv) errorBars(stderr []float64, support int64) {
	for _, se := range stderr {
		h.u64(math.Float64bits(se))
	}
	h.u64(uint64(support))
}

// resultDigest digests everything an engine answer carries that depends
// on the sample drawn: the rows in output order, and the standard error
// and support of every group of the top aggregate.
func resultDigest(res *quickr.Result) uint64 {
	h := fnvOffset
	h.rows(res.InternalRows)
	for _, g := range res.Estimates {
		h.errorBars(g.StdErr, g.SampleRows)
	}
	return uint64(h)
}

// execDigest is resultDigest for the executor's own result type, which
// the staged replay gets from exec.RunWithOptions.
func execDigest(res *exec.Result) uint64 {
	h := fnvOffset
	h.rows(res.Rows)
	for _, g := range res.Estimates {
		h.errorBars(g.StdErr, g.SampleRows)
	}
	return uint64(h)
}

// sortKey renders a row for ordering, floats to 6 significant digits
// only, so that two evaluators that sum in different orders still sort
// their rows alike.
func sortKey(r table.Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.Kind() == table.KindFloat {
			b.WriteString(strconv.FormatFloat(v.Float(), 'g', 6, 64))
		} else {
			b.WriteString(v.String())
		}
		b.WriteByte('|')
	}
	return b.String()
}

// floatTol is the relative difference two evaluators' float sums may
// show: 8 significant digits.
const floatTol = 1e-8

func sameValue(a, b table.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.IsNumeric() && b.IsNumeric() && (a.Kind() == table.KindFloat || b.Kind() == table.KindFloat) {
		x, y := a.Float(), b.Float()
		if x == y || (math.IsNaN(x) && math.IsNaN(y)) {
			return true
		}
		return math.Abs(x-y) <= floatTol*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}

// sameRows reports whether two answers hold the same rows: bit for bit
// in the same order or, failing that, as multisets with floats compared
// to 8 significant digits.
func sameRows(got, want []table.Row) error {
	hg, hw := fnvOffset, fnvOffset
	hg.rows(got)
	hw.rows(want)
	if hg == hw {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	sorted := func(rows []table.Row) []table.Row {
		keys := make([]string, len(rows))
		idx := make([]int, len(rows))
		for i, r := range rows {
			keys[i], idx[i] = sortKey(r), i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		out := make([]table.Row, len(rows))
		for i, k := range idx {
			out[i] = rows[k]
		}
		return out
	}
	g, w := sorted(got), sorted(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return fmt.Errorf("row %d is %v, want %v", i, g[i], w[i])
			}
		}
	}
	return nil
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// finiteEstimates rejects an answer whose estimates or error bars are
// not numbers, or whose error bars are negative.
func finiteEstimates(res *quickr.Result) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	for _, g := range res.Estimates {
		for _, v := range g.Values {
			if f, ok := asFloat(v); ok && bad(f) {
				return fmt.Errorf("group %v: estimate %v", g.Key, f)
			}
		}
		for i, se := range g.StdErr {
			if bad(se) || se < 0 || bad(g.CI95[i]) || g.CI95[i] < 0 {
				return fmt.Errorf("group %v: stderr %v ci95 %v", g.Key, se, g.CI95[i])
			}
		}
	}
	return nil
}

func groupKey(key []any) string {
	var b strings.Builder
	for _, v := range key {
		fmt.Fprintf(&b, "%v\x00", v)
	}
	return b.String()
}

// errorPool pools, over sampled approx answers, how each aggregate cell
// compares with the exact answer's. Percentages throughout.
type errorPool struct {
	groups, found int
	relErr        []float64 // |approx-exact|/|exact|, cells with exact != 0
	ciCells       int       // cells that carry a confidence interval
	ciCovered     int       // ... whose interval holds the exact value
	ciWidth       []float64 // CI95/|exact| of those cells, exact != 0
}

// add compares the full (pre-LIMIT) aggregate outputs group by group.
func (a *errorPool) add(exact, approx *quickr.Result) {
	byKey := make(map[string]*quickr.GroupEstimate, len(approx.Estimates))
	for i := range approx.Estimates {
		g := &approx.Estimates[i]
		byKey[groupKey(g.Key)] = g
	}
	for _, eg := range exact.Estimates {
		a.groups++
		ag, ok := byKey[groupKey(eg.Key)]
		if !ok {
			continue
		}
		a.found++
		for j := 0; j < len(eg.Values) && j < len(ag.Values); j++ {
			ev, eok := asFloat(eg.Values[j])
			av, aok := asFloat(ag.Values[j])
			if !eok || !aok {
				continue
			}
			diff := math.Abs(av - ev)
			if ev != 0 {
				a.relErr = append(a.relErr, 100*diff/math.Abs(ev))
			}
			// MIN, MAX and COUNT DISTINCT report no standard error; a
			// zero-width interval is not a claim to check.
			if j < len(ag.CI95) && ag.CI95[j] > 0 {
				a.ciCells++
				if diff <= ag.CI95[j] {
					a.ciCovered++
				}
				if ev != 0 {
					a.ciWidth = append(a.ciWidth, 100*ag.CI95[j]/math.Abs(ev))
				}
			}
		}
	}
}

func (a *errorPool) merge(o *errorPool) {
	a.groups += o.groups
	a.found += o.found
	a.relErr = append(a.relErr, o.relErr...)
	a.ciCells += o.ciCells
	a.ciCovered += o.ciCovered
	a.ciWidth = append(a.ciWidth, o.ciWidth...)
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// reference evaluates the statement with the reference evaluator, which
// shares no operator code with the executor, over the engine's tables.
func reference(eng *quickr.Engine, sqlText string) ([]table.Row, error) {
	plan, err := eng.BoundPlan(sqlText)
	if err != nil {
		return nil, err
	}
	return refimpl.Run(eng.Catalog(), plan)
}

// crossCheck runs every exact query through the engine and through the
// reference evaluator and returns one error per query whose answers
// differ.
func crossCheck(eng *quickr.Engine, queries []query) []error {
	var errs []error
	for _, q := range queries {
		got, err := eng.Exec(q.SQL)
		var want []table.Row
		if err == nil {
			want, err = reference(eng, q.SQL)
		}
		if err == nil {
			err = sameRows(got.InternalRows, want)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("refimpl cross-check %s: %w", q.ID, err))
		}
	}
	return errs
}
