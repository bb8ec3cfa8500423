// Package experiments regenerates every table and figure from the
// paper's evaluation (§5) on the synthetic workloads: it runs each
// benchmark query through the Baseline plan (no samplers) and the
// Quickr plan (ASALQA), measures the paper's performance metrics
// (machine-hours, runtime, intermediate data, shuffled data) and error
// metrics (missed groups, aggregation error, with and without LIMIT),
// and renders the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"

	"quickr"
	"quickr/internal/data"
	"quickr/internal/workload"
)

// Env bundles an engine loaded with the benchmark datasets.
type Env struct {
	Eng *quickr.Engine
	DS  *data.TPCDS
}

// NewTPCDSEnv builds an engine with the TPC-DS-like schema at the given
// scale factor. Its sample cache is off: the evaluation reproduces the
// paper's lazy system, which shares no sample across queries.
func NewTPCDSEnv(sf float64) *Env {
	cfg := data.DefaultTPCDS()
	cfg.ScaleFactor = sf
	ds := data.GenerateTPCDS(cfg)
	eng := quickr.New()
	eng.SetSampleCache(0)
	for name, t := range ds.Tables {
		eng.RegisterStored(t, ds.PKs[name]...)
	}
	return &Env{Eng: eng, DS: ds}
}

// NewFullEnv additionally loads the TPC-H-like and log datasets.
func NewFullEnv(sf float64) *Env {
	env := NewTPCDSEnv(sf)
	hcfg := data.DefaultTPCH()
	hcfg.ScaleFactor = sf
	h := data.GenerateTPCH(hcfg)
	for name, t := range h.Tables {
		env.Eng.RegisterStored(t, h.PKs[name]...)
	}
	env.Eng.RegisterStored(data.Logs(int(20000*sf), 777, 8))
	return env
}

// Outcome is the measured result of one query under both plans.
type Outcome struct {
	Query workload.Query

	Exact  *quickr.Result
	Approx *quickr.Result
	Err    error

	// Gains are Baseline/Quickr ratios (>1 means Quickr wins).
	GainMachineHours float64
	GainRuntime      float64
	GainIntermediate float64
	GainShuffled     float64

	// MissedGroups is the fraction of exact answer rows (post-LIMIT)
	// whose group is absent from the approximate answer; Full uses the
	// pre-LIMIT aggregate output.
	MissedGroups     float64
	MissedGroupsFull float64
	// AggError is the mean relative error of aggregate values over
	// matched groups (post-LIMIT answer); Full uses the pre-LIMIT
	// aggregate output.
	AggError     float64
	AggErrorFull float64

	// Sampled and Unapproximable echo the plan decision.
	Sampled        bool
	Unapproximable bool

	// RateChecks are the sampler pass-rate invariants measured on the
	// approximate run (empty when the plan had no samplers).
	RateChecks []RateCheck
}

var limitRe = regexp.MustCompile(`(?is)\s+ORDER\s+BY\s+[^()]*?\s+LIMIT\s+\d+\s*$|\s+LIMIT\s+\d+\s*$`)

// stripLimit removes a trailing ORDER BY ... LIMIT clause, producing
// the paper's "full answer" variant.
func stripLimit(sqlText string) string {
	return limitRe.ReplaceAllString(sqlText, "")
}

// RunQuery executes one query under both plans and measures errors.
func RunQuery(env *Env, q workload.Query) Outcome {
	out := Outcome{Query: q}
	exact, err := env.Eng.Exec(q.SQL)
	if err != nil {
		out.Err = fmt.Errorf("%s exact: %w", q.ID, err)
		return out
	}
	approx, err := env.Eng.ExecApprox(q.SQL)
	if err != nil {
		out.Err = fmt.Errorf("%s approx: %w", q.ID, err)
		return out
	}
	out.Exact, out.Approx = exact, approx
	out.Sampled = approx.Sampled
	out.Unapproximable = approx.Unapproximable
	out.RateChecks = CheckSamplerRates(approx)

	out.GainMachineHours = ratio(exact.Metrics.MachineHours, approx.Metrics.MachineHours)
	out.GainRuntime = ratio(exact.Metrics.Runtime, approx.Metrics.Runtime)
	out.GainIntermediate = ratio(exact.Metrics.IntermediateBytes, approx.Metrics.IntermediateBytes)
	out.GainShuffled = ratio(exact.Metrics.ShuffledBytes, approx.Metrics.ShuffledBytes)

	// Full-answer comparison from the top aggregate's estimates.
	out.MissedGroupsFull, out.AggErrorFull = compareEstimates(exact, approx)

	// Post-LIMIT comparison from the final rows.
	keyCols := 0
	if len(exact.Estimates) > 0 {
		keyCols = len(exact.Estimates[0].Key)
	}
	if keyCols > len(exact.Columns) {
		keyCols = len(exact.Columns)
	}
	out.MissedGroups, out.AggError = compareRows(exact, approx, keyCols)
	return out
}

func ratio(base, quickr float64) float64 {
	if quickr <= 0 {
		return 1
	}
	return base / quickr
}

func keyString(vals []any, n int) string {
	var b strings.Builder
	for i := 0; i < n && i < len(vals); i++ {
		fmt.Fprintf(&b, "%v\x00", vals[i])
	}
	return b.String()
}

// compareEstimates measures missed groups and aggregate error on the
// full (pre-LIMIT) aggregate output.
func compareEstimates(exact, approx *quickr.Result) (missed, aggErr float64) {
	if len(exact.Estimates) == 0 {
		return 0, 0
	}
	approxBy := map[string][]any{}
	for _, g := range approx.Estimates {
		approxBy[keyString(g.Key, len(g.Key))] = g.Values
	}
	var missCnt int
	var errSum float64
	var errN int
	for _, g := range exact.Estimates {
		av, ok := approxBy[keyString(g.Key, len(g.Key))]
		if !ok {
			missCnt++
			continue
		}
		e, n := relErrors(g.Values, av)
		errSum += e
		errN += n
	}
	missed = float64(missCnt) / float64(len(exact.Estimates))
	if errN > 0 {
		aggErr = errSum / float64(errN)
	}
	return missed, aggErr
}

// compareRows measures the same on the final (post-LIMIT) rows.
func compareRows(exact, approx *quickr.Result, keyCols int) (missed, aggErr float64) {
	if len(exact.Rows) == 0 {
		return 0, 0
	}
	if keyCols == 0 && len(exact.Rows) == 1 {
		e, n := relErrorsAny(exact.Rows[0], approx.Rows)
		if n > 0 {
			return 0, e / float64(n)
		}
		return 0, 0
	}
	approxBy := map[string][]any{}
	for _, r := range approx.Rows {
		approxBy[keyString(r, keyCols)] = r
	}
	var missCnt int
	var errSum float64
	var errN int
	for _, r := range exact.Rows {
		ar, ok := approxBy[keyString(r, keyCols)]
		if !ok {
			missCnt++
			continue
		}
		e, n := relErrors(r[keyCols:], ar[keyCols:])
		errSum += e
		errN += n
	}
	missed = float64(missCnt) / float64(len(exact.Rows))
	if errN > 0 {
		aggErr = errSum / float64(errN)
	}
	return missed, aggErr
}

func relErrorsAny(exactRow []any, approxRows [][]any) (float64, int) {
	if len(approxRows) == 0 {
		return 0, 0
	}
	return relErrors(exactRow, approxRows[0])
}

// relErrors sums relative errors over paired numeric values.
func relErrors(exact, approx []any) (sum float64, n int) {
	for i := 0; i < len(exact) && i < len(approx); i++ {
		ev, eok := toFloat(exact[i])
		av, aok := toFloat(approx[i])
		if !eok || !aok {
			continue
		}
		if ev == 0 {
			if av == 0 {
				n++
			}
			continue
		}
		sum += math.Abs(av-ev) / math.Abs(ev)
		n++
	}
	return sum, n
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// Percentile returns the p-th percentile (0..100) of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	idx := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CDF returns sorted values paired with cumulative fractions, for the
// paper's CDF figures.
func CDF(xs []float64) (vals, fracs []float64) {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	fr := make([]float64, len(s))
	for i := range s {
		fr[i] = float64(i+1) / float64(len(s))
	}
	return s, fr
}

// SmokeQueries is the tiny query subset BenchmarkExecutorPipeline runs:
// two TPC-DS-like joins, one TPC-H-like query and one log query.
func SmokeQueries() []workload.Query {
	var out []workload.Query
	out = append(out, workload.TPCDSQueries()[:2]...)
	out = append(out, workload.TPCHQueries()[:1]...)
	return append(out, workload.OtherQueries()[:1]...)
}
