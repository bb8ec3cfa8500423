package experiments

// Seed-sweep statistical coverage: over many sampler seeds, the error
// bounds the engine reports (±CI95 from the Horvitz–Thompson standard
// errors) must actually cover the ground truth computed by the naive
// reference evaluator, and the number of groups the sampled plan drops
// must stay within Proposition 4's prediction. This is the statistical
// acceptance gate for the approximation machinery: a biased estimator,
// a broken variance formula or a seed-dependent sampler bug all surface
// here as coverage collapse.

import (
	"math"
	"testing"

	"quickr"
	"quickr/internal/accuracy"
	"quickr/internal/lplan"
	"quickr/internal/refimpl"
	"quickr/internal/table"
	"quickr/internal/workload"
)

const (
	sweepSeeds = 200
	// minSupport excludes micro-groups from CI coverage counting: with
	// only a handful of sampled rows the variance estimate itself is too
	// noisy for the normal-approximation interval the engine reports
	// (the paper's error bars likewise assume CLT-scale support).
	minSupport = 10
	// coverageFloor is the acceptance bar: CI95 is a nominal 95%
	// interval; 90% leaves room for estimated-variance shrinkage on
	// moderate groups.
	coverageFloor = 0.90
)

// truthGroup is one ground-truth group from the reference evaluator.
type truthGroup struct {
	values  []float64 // aggregate values (NaN where non-numeric)
	support float64   // exact-run rows feeding the group
}

// sweepQuery is one workload query admitted to the sweep, with its
// ground truth and sampler facts.
type sweepQuery struct {
	q       workload.Query
	keyCols int
	truth   map[string]truthGroup
	sampler lplan.SamplerType
	p       float64
}

func samplerTypeOf(name string) lplan.SamplerType {
	switch name {
	case "DISTINCT":
		return lplan.SamplerDistinct
	case "UNIVERSE":
		return lplan.SamplerUniverse
	case "PASSTHROUGH":
		return lplan.SamplerPassThrough
	}
	return lplan.SamplerUniform
}

// pickSweepQueries selects workload queries that (a) actually sample,
// (b) have no LIMIT (the full answer is the comparable unit), and
// (c) produce group-cols-then-aggregates output matching the reference
// evaluator row shape.
func pickSweepQueries(t *testing.T, env *Env, want int) []sweepQuery {
	t.Helper()
	var picked []sweepQuery
	for _, q := range workload.TPCDSQueries() {
		if q.HasLimit {
			continue
		}
		exact, err := env.Eng.Exec(q.SQL)
		if err != nil {
			t.Fatalf("%s exact: %v", q.ID, err)
		}
		if len(exact.Estimates) == 0 {
			continue
		}
		approx, err := env.Eng.ExecApprox(q.SQL)
		if err != nil {
			t.Fatalf("%s approx: %v", q.ID, err)
		}
		if !approx.Sampled || approx.Unapproximable {
			continue
		}
		info, err := env.Eng.Plan(q.SQL, true)
		if err != nil || info.RootSampler == "" || info.EffectiveP <= 0 {
			continue
		}

		// Ground truth from the reference evaluator, keyed like the
		// engine's group estimates (group cols first, then aggregates).
		plan, err := env.Eng.BoundPlan(q.SQL)
		if err != nil {
			t.Fatalf("%s bind: %v", q.ID, err)
		}
		refRows, err := refimpl.Run(env.Eng.Catalog(), plan)
		if err != nil {
			t.Fatalf("%s refimpl: %v", q.ID, err)
		}
		keyCols := len(exact.Estimates[0].Key)
		if keyCols+len(exact.Estimates[0].Values) != len(exact.Columns) {
			continue // select list reorders keys/aggregates; skip
		}
		support := map[string]float64{}
		for _, g := range exact.Estimates {
			support[keyString(g.Key, keyCols)] = float64(g.SampleRows)
		}
		truth := map[string]truthGroup{}
		ok := true
		for _, r := range refRows {
			anyRow := make([]any, len(r))
			for i, v := range r {
				switch v.Kind() {
				case table.KindNull:
					anyRow[i] = nil
				case table.KindInt:
					anyRow[i] = v.Int()
				case table.KindFloat:
					anyRow[i] = v.Float()
				case table.KindString:
					anyRow[i] = v.Str()
				case table.KindBool:
					anyRow[i] = v.Bool()
				}
			}
			key := keyString(anyRow[:keyCols], keyCols)
			sup, known := support[key]
			if !known {
				ok = false // executor and refimpl disagree on groups
				break
			}
			tg := truthGroup{support: sup}
			for _, v := range anyRow[keyCols:] {
				f, isNum := toFloat(v)
				if !isNum {
					f = math.NaN()
				}
				tg.values = append(tg.values, f)
			}
			truth[key] = tg
		}
		if !ok || len(truth) != len(exact.Estimates) {
			continue
		}
		picked = append(picked, sweepQuery{
			q:       q,
			keyCols: keyCols,
			truth:   truth,
			sampler: samplerTypeOf(info.RootSampler),
			p:       info.EffectiveP,
		})
		if len(picked) == want {
			break
		}
	}
	if len(picked) < want {
		t.Fatalf("only %d sweep-eligible sampled queries, want %d", len(picked), want)
	}
	return picked
}

// sweepStats accumulates one query's observations over the seed sweep.
type sweepStats struct {
	covered, pairs   int     // CI-coverage observations
	missed, groupObs int     // missed-group observations
	expectedMissed   float64 // Proposition 4 prediction
}

// sweepQueryOverSeeds runs one query for every sweep seed and counts
// CI95 coverage and missed groups against its ground truth.
func sweepQueryOverSeeds(t *testing.T, env *Env, sq sweepQuery) sweepStats {
	t.Helper()
	var st sweepStats
	for seed := uint64(1); seed <= sweepSeeds; seed++ {
		env.Eng.SetSeed(seed)
		approx, err := env.Eng.ExecApprox(sq.q.SQL)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		observeSweepRun(&st, sq, approx)
	}
	return st
}

// observeSweepRun folds one approximate run into the sweep statistics.
func observeSweepRun(st *sweepStats, sq sweepQuery, approx *quickr.Result) {
	got := map[string]quickr.GroupEstimate{}
	for _, g := range approx.Estimates {
		got[keyString(g.Key, sq.keyCols)] = g
	}
	for key, tg := range sq.truth {
		st.groupObs++
		// Proposition 4: miss probability for this group's
		// support under the plan's root-equivalent sampler.
		// stratCoversGroup=false and |G(C)|=support are the
		// conservative fallbacks (they never under-predict
		// misses for uniform/distinct plans).
		st.expectedMissed += accuracy.MissProbability(sq.sampler, sq.p, tg.support, false, 0)
		g, ok := got[key]
		if !ok {
			st.missed++
			continue
		}
		if float64(g.SampleRows) < minSupport {
			continue
		}
		for i, truthVal := range tg.values {
			if i >= len(g.Values) || math.IsNaN(truthVal) {
				continue
			}
			est, isNum := toFloat(g.Values[i])
			if !isNum || i >= len(g.CI95) || g.CI95[i] <= 0 {
				continue // MIN/MAX/COUNT DISTINCT carry no bars
			}
			st.pairs++
			if math.Abs(est-truthVal) <= g.CI95[i] {
				st.covered++
			}
		}
	}
}

// checkSweepStats applies the acceptance bars to one query's sweep.
func checkSweepStats(t *testing.T, sq sweepQuery, st sweepStats) {
	t.Helper()
	if st.pairs == 0 {
		t.Fatalf("no coverage observations (all groups below support %d?)", minSupport)
	}
	cov := float64(st.covered) / float64(st.pairs)
	t.Logf("%s: coverage %.3f over %d pairs; missed %d/%d groups (Prop 4 expects ≤ %.1f)",
		sq.q.ID, cov, st.pairs, st.missed, st.groupObs, st.expectedMissed)
	if cov < coverageFloor {
		t.Errorf("CI95 covered truth in %.1f%% of %d observations, want ≥ %.0f%%",
			100*cov, st.pairs, 100*coverageFloor)
	}
	// Missed groups: observed count stays within the Prop 4
	// prediction plus 4σ binomial slack (variance ≤ mean).
	bound := st.expectedMissed + 4*math.Sqrt(st.expectedMissed+1) + 2
	if sq.sampler != lplan.SamplerUniverse && float64(st.missed) > bound {
		t.Errorf("missed %d groups over %d seeds; Proposition 4 bounds this by %.1f",
			st.missed, sweepSeeds, bound)
	}
}

func TestSeedSweepCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep runs nightly; skipped in -short")
	}
	env := NewTPCDSEnv(0.05)
	queries := pickSweepQueries(t, env, 5)

	for _, sq := range queries {
		sq := sq
		t.Run(sq.q.ID, func(t *testing.T) {
			checkSweepStats(t, sq, sweepQueryOverSeeds(t, env, sq))
		})
	}
	env.Eng.SetSeed(0)
}
