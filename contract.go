package quickr

import (
	"context"
	"io"
	"math"
	"time"

	"quickr/internal/accuracy"
	"quickr/internal/metrics"
	"quickr/internal/opt"
	"quickr/internal/sql"
	"quickr/internal/stats"
)

// ContractMaxEscalations bounds error-contract retries: a miss
// escalates p one ladder rung at a time, and after this many
// escalations the engine falls back to the exact plan (which satisfies
// any error bound by construction).
const ContractMaxEscalations = 3

// minContractSupport is the smallest per-group sample support whose
// realized CI participates in the contract check; below it the normal
// approximation behind the CI is meaningless and the group is treated
// as "too small to certify" rather than as a violation.
const minContractSupport = 10

// ContractInfo reports how the engine met (or failed) a query's
// accuracy/latency contract.
type ContractInfo struct {
	// ErrorTarget is the contract's maximum relative error as a
	// fraction (0 when the query had only a deadline clause).
	ErrorTarget float64
	// Confidence is the contract's confidence level as a fraction.
	Confidence float64
	// Deadline is the latency budget (0 when absent).
	Deadline time.Duration
	// ChosenP is the sampling probability of the final attempt (0 for
	// exact plans).
	ChosenP float64
	// Attempts counts plan executions, including the final one.
	Attempts int
	// Escalations counts contract misses that moved p up the ladder.
	Escalations int
	// PlanCacheHits counts attempts served from the plan cache.
	PlanCacheHits int
	// Satisfied reports whether the final answer meets the contract.
	Satisfied bool
	// Exact reports whether the final answer came from an exact plan
	// (planned directly, or the escalation fallback).
	Exact bool
	// HistoryHit reports whether learned corrections for this plan
	// fingerprint informed p selection.
	HistoryHit bool
	// PredictedRelErr is the cold model's predicted relative CI at the
	// final p; CorrectedRelErr is the same after the learned
	// realized/predicted correction; RealizedRelErr is the worst
	// realized relative CI across reported groups.
	PredictedRelErr float64
	CorrectedRelErr float64
	RealizedRelErr  float64
}

// runContract executes a statement carrying a contract clause.
// Error contracts pick the smallest ladder rung predicted (with learned
// corrections) to meet the bound, verify the realized per-group CIs
// after execution, and escalate on a miss; deadline contracts pick the
// largest rung predicted to fit the budget and bound the run with a
// context deadline.
func (e *Engine) runContract(ctx context.Context, s *settings, stmt *sql.SelectStmt, approx bool) (*Result, error) {
	c := stmt.Contract
	info := &ContractInfo{
		ErrorTarget: c.ErrPct / 100,
		Confidence:  c.ConfPct / 100,
		Deadline:    c.Deadline,
	}
	if info.Confidence <= 0 {
		info.Confidence = 0.95
	}
	if c.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Deadline)
		defer cancel()
	}
	// attempt runs one rung (minP 0: ASALQA's own choice, or the exact
	// plan) under the query's one configuration snapshot and books it.
	attempt := func(approx bool, minP float64) (*Result, error) {
		res, err := e.runStmt(ctx, s, stmt, approx, minP)
		if err != nil {
			return nil, err
		}
		info.Attempts++
		if res.PlanCached {
			info.PlanCacheHits++
		}
		res.Contract = info
		return res, nil
	}

	// Learned state for this fingerprint: the realized/predicted CI
	// ratio corrects the error model, the processing rate feeds the
	// deadline model, and the last good p warm-starts the ladder.
	fp := planFingerprint(stmt, approx)
	corr, rowsPerSec := 1.0, 0.0
	minIdx := 0
	if s.historyOn {
		if qh, ok := e.history.Lookup(fp); ok {
			info.HistoryHit = true
			if qh.CIRatio > 0 {
				corr = qh.CIRatio
			}
			rowsPerSec = qh.RowsPerSec
			for minIdx < len(opt.ContractLadder) && opt.ContractLadder[minIdx] < qh.LastGoodP {
				minIdx++
			}
			if minIdx >= len(opt.ContractLadder) {
				minIdx = len(opt.ContractLadder) - 1
			}
		}
	}

	// Exact mode satisfies any error bound by construction; only the
	// deadline (already armed on ctx) can fail it.
	if !approx {
		info.Exact, info.Satisfied = true, true
		return attempt(false, 0)
	}

	facts, haveFacts := e.contractFacts(stmt)

	// Deadline-only contracts: one attempt at the largest rung
	// predicted to fit the budget.
	if info.ErrorTarget <= 0 {
		rung := opt.ContractLadder[len(opt.ContractLadder)-1]
		if haveFacts && c.Deadline > 0 {
			rung, _ = opt.ChooseDeadlineP(facts, c.Deadline, rowsPerSec)
		}
		res, err := attempt(true, rung)
		if err != nil {
			return nil, err
		}
		info.Satisfied = true
		info.Exact = !res.Sampled
		if res.Sampled {
			info.ChosenP = rung
		}
		return res, nil
	}

	z := info.Confidence

	// No aggregate (or no qualifying rung): plan exact from the start.
	idx := -1
	if haveFacts {
		if _, i, ok := opt.ChooseContractP(facts, info.ErrorTarget, z, corr, minIdx); ok {
			idx = i
		}
	}

	for esc := 0; idx >= 0; {
		rung := opt.ContractLadder[idx]
		res, err := attempt(true, rung)
		if err != nil {
			return nil, err
		}
		if !res.Sampled {
			// ASALQA degraded to the exact plan at this rung; exact
			// answers satisfy trivially.
			info.Exact, info.Satisfied = true, true
			info.ChosenP = 0
			return res, nil
		}
		realized, measurable := worstRelCI(res.Estimates, z)
		predicted := opt.PredictedRelErr(facts, z, rung, 1)
		info.ChosenP = rung
		info.PredictedRelErr = predicted
		info.CorrectedRelErr = opt.PredictedRelErr(facts, z, rung, corr)
		info.RealizedRelErr = realized

		if s.historyOn && measurable && predicted > 0 {
			obs := stats.Observation{CIRatio: realized / predicted}
			if realized <= info.ErrorTarget {
				obs.GoodP = rung
			}
			e.history.Record(fp, obs)
		}

		if !measurable || realized <= info.ErrorTarget {
			info.Satisfied = true
			return res, nil
		}

		// Miss: escalate one rung, bounded by the cap and ladder end.
		esc++
		metrics.ContractEscalations.Add(1)
		info.Escalations = esc
		if esc > ContractMaxEscalations || idx+1 >= len(opt.ContractLadder) {
			break
		}
		idx++
	}

	// Exact fallback: the bound holds by construction.
	info.Exact, info.Satisfied = true, true
	info.ChosenP = 0
	info.RealizedRelErr = 0
	return attempt(false, 0)
}

// contractFacts binds and normalizes the statement just far enough to
// derive the cardinality facts contract p selection needs. Bind errors
// surface later through the normal prepare path; here they simply mean
// "no facts", which degrades to the exact plan.
func (e *Engine) contractFacts(stmt *sql.SelectStmt) (opt.ContractFacts, bool) {
	logical, est, err := e.bound(stmt)
	if err != nil {
		return opt.ContractFacts{}, false
	}
	return opt.ContractFactsFor(est, logical)
}

// worstRelCI returns the largest realized relative CI half-width across
// all groups with enough sample support and a non-zero estimate, at the
// contract's confidence level. measurable=false means no group could be
// checked (tiny supports or all-zero estimates) — treated as satisfied,
// matching the estimator's own "too little data to certify" stance.
func worstRelCI(ests []GroupEstimate, confidence float64) (rel float64, measurable bool) {
	zq := accuracy.ZScore(confidence)
	for _, g := range ests {
		if g.SampleRows < minContractSupport {
			continue
		}
		for i, se := range g.StdErr {
			if se <= 0 || i >= len(g.Values) {
				continue
			}
			v, ok := asFloat(g.Values[i])
			if !ok || v == 0 {
				continue
			}
			measurable = true
			if r := zq * se / math.Abs(v); r > rel {
				rel = r
			}
		}
	}
	return rel, measurable
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}

// SaveHistory serializes the engine's query-history store (the learned
// estimate corrections) as JSON.
func (e *Engine) SaveHistory(w io.Writer) error { return e.history.Save(w) }

// LoadHistory replaces the query-history store from SaveHistory output.
// Corrupted or truncated payloads degrade to cold estimates (nil
// error). No epoch bump: corrections are applied at run time, never
// baked into cached plans.
func (e *Engine) LoadHistory(r io.Reader) error { return e.history.Load(r) }

// ResetHistory drops all learned corrections (back to cold estimates).
func (e *Engine) ResetHistory() { e.history.Reset() }

// HistoryLen reports how many plan fingerprints have recorded history.
func (e *Engine) HistoryLen() int { return e.history.Len() }
