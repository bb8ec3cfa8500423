// Package blinkdb implements the apriori input-sampling baseline the
// paper compares against in §5.5 (BlinkDB, EuroSys 2013): a set of
// stratified samples of one large fact table, chosen under a storage
// budget, with per-row weights so aggregates computed over a sample are
// unbiased.
//
// Substitutions versus the original (documented in DESIGN.md): the MILP
// that picks which column sets to stratify on is replaced by a greedy
// knapsack over the same objective (maximize the number of covered
// queries within the budget) — the Go standard library has no MILP
// solver — and, exactly as §5.5 does, query-to-sample matching is made
// perfect by running each query on every stored sample and keeping the
// best qualifying answer.
package blinkdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"quickr/internal/table"
)

// Config controls sample construction.
type Config struct {
	// K caps the number of rows stored per stratum (the paper's default
	// K=M=1e5; the "tuned for small group size" variant uses K=M=10).
	K int
	// BudgetFactor is the storage budget as a multiple of the base
	// table's row count (paper sweeps 0.5×, 1×, 4×, 10×).
	BudgetFactor float64
	Seed         int64
}

// Candidate is one potential stratified sample: a column set to
// stratify the base table on.
type Candidate struct {
	Cols []string
	// Queries lists the query ids whose QCS this candidate covers.
	Queries []string
	// Rows is the size of the stratified sample under the K cap.
	Rows int
}

// Sample is one stored stratified sample.
type Sample struct {
	Cols []string
	// Table holds the sampled rows; its schema is the base schema plus
	// a trailing `_w` weight column consumed by the weighted scan.
	Table *table.Table
}

// Store is the set of samples chosen for one base table.
type Store struct {
	Base       *table.Table
	Samples    []*Sample
	Candidates []Candidate
	BudgetRows int
	UsedRows   int
}

// strataCount computes, per distinct value combination of cols, the
// row count of the base table.
func strataCount(base *table.Table, cols []string) map[string]int {
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		if i := base.Schema.Index(c); i >= 0 {
			idx = append(idx, i)
		}
	}
	counts := map[string]int{}
	var sb strings.Builder
	for p := range base.Partitions {
		for _, row := range base.Rows(p) {
			sb.Reset()
			for _, i := range idx {
				sb.WriteString(row[i].Key())
				sb.WriteByte(0)
			}
			counts[sb.String()]++
		}
	}
	return counts
}

// SampleSize returns the stored size of a stratified sample on cols
// with per-stratum cap k.
func SampleSize(base *table.Table, cols []string, k int) int {
	total := 0
	for _, n := range strataCount(base, cols) {
		if n > k {
			n = k
		}
		total += n
	}
	return total
}

// BuildCandidates sizes one candidate per distinct QCS in the query
// workload. qcsByQuery maps query id to its QCS on the base table.
func BuildCandidates(base *table.Table, qcsByQuery map[string][]string, k int) []Candidate {
	type cand struct {
		cols    []string
		queries []string
	}
	byKey := map[string]*cand{}
	for qid, cols := range qcsByQuery {
		if len(cols) == 0 {
			continue
		}
		sorted := append([]string{}, cols...)
		sort.Strings(sorted)
		key := strings.Join(sorted, ",")
		c, ok := byKey[key]
		if !ok {
			c = &cand{cols: sorted}
			byKey[key] = c
		}
		c.queries = append(c.queries, qid)
	}
	var out []Candidate
	for _, c := range byKey {
		out = append(out, Candidate{
			Cols:    c.cols,
			Queries: c.queries,
			Rows:    SampleSize(base, c.cols, k),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Cols, ",") < strings.Join(out[j].Cols, ",")
	})
	return out
}

// coversQCS reports whether a sample stratified on sampleCols serves a
// query with the given QCS (the sample's strata must refine the
// query's: QCS ⊆ sampleCols).
func coversQCS(sampleCols, qcs []string) bool {
	set := map[string]bool{}
	for _, c := range sampleCols {
		set[c] = true
	}
	for _, c := range qcs {
		if !set[c] {
			return false
		}
	}
	return true
}

// Build selects candidates greedily under the budget (most newly
// covered queries per stored row first) and materializes the samples.
func Build(base *table.Table, qcsByQuery map[string][]string, cfg Config) *Store {
	if cfg.K <= 0 {
		cfg.K = 100000
	}
	cands := BuildCandidates(base, qcsByQuery, cfg.K)
	budget := int(cfg.BudgetFactor * float64(base.NumRows()))
	st := &Store{Base: base, Candidates: cands, BudgetRows: budget}

	covered := map[string]bool{}
	remaining := append([]Candidate{}, cands...)
	for {
		bestIdx := -1
		bestScore := 0.0
		for i, c := range remaining {
			if c.Rows == 0 || c.Rows > budget-st.UsedRows {
				continue
			}
			// A sample nearly as large as the input can never produce a
			// benefit (the paper's Fig. 1 point: stratifying store_sales
			// on {item, date, customer} "is likely as large as the input
			// ... leading to zero performance gains"); storing it only
			// burns budget.
			if float64(c.Rows) >= 0.9*float64(base.NumRows()) {
				continue
			}
			newCov := 0
			for q, qcs := range qcsByQuery {
				if !covered[q] && coversQCS(c.Cols, qcs) {
					newCov++
				}
			}
			if newCov == 0 {
				continue
			}
			score := float64(newCov) / float64(c.Rows)
			if score > bestScore {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		smp := materialize(base, chosen.Cols, cfg.K, cfg.Seed+int64(len(st.Samples)))
		st.Samples = append(st.Samples, smp)
		st.UsedRows += chosen.Rows
		for q, qcs := range qcsByQuery {
			if coversQCS(chosen.Cols, qcs) {
				covered[q] = true
			}
		}
	}
	return st
}

// materialize draws the stratified sample: per stratum, a uniform
// random subset of up to k rows, each weighted by stratumSize/kept.
func materialize(base *table.Table, cols []string, k int, seed int64) *Sample {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		if i := base.Schema.Index(c); i >= 0 {
			idx = append(idx, i)
		}
	}
	// Reservoir per stratum.
	type res struct {
		rows []table.Row
		seen int
	}
	strata := map[string]*res{}
	var sb strings.Builder
	for p := range base.Partitions {
		for _, row := range base.Rows(p) {
			sb.Reset()
			for _, i := range idx {
				sb.WriteString(row[i].Key())
				sb.WriteByte(0)
			}
			key := sb.String()
			r, ok := strata[key]
			if !ok {
				r = &res{}
				strata[key] = r
			}
			r.seen++
			if len(r.rows) < k {
				r.rows = append(r.rows, row)
			} else if j := rng.Intn(r.seen); j < k {
				r.rows[j] = row
			}
		}
	}

	sc := &table.Schema{Cols: append(append([]table.Column{}, base.Schema.Cols...),
		table.Column{Name: "_w", Kind: table.KindFloat})}
	name := fmt.Sprintf("%s_strat_k%d_%s", base.Name, k, strings.Join(cols, "_"))
	out := table.New(name, sc, len(base.Partitions))
	keys := make([]string, 0, len(strata))
	for key := range strata {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	n := 0
	for _, key := range keys {
		r := strata[key]
		w := float64(r.seen) / float64(len(r.rows))
		for _, row := range r.rows {
			out.Append(n, append(append(table.Row{}, row...), table.NewFloat(w)))
			n++
		}
	}
	return &Sample{Cols: cols, Table: out}
}
