package experiments

// Warm-vs-cold statistical sweep for hot-sample reuse: over the same
// 200 sampler seeds the base seed sweep uses, every query runs twice —
// a cold execution that populates the sample cache, then a warm replay
// served from it. The warm replay must be bit-identical to the cold run
// (same result hash, hence the same estimates, CI95 bars and missed
// groups), and the coverage statistics accumulated from the warm runs
// must clear the same ≥90% floor as the lazy path. A cache that changed
// weights, dropped rows or served stale samples would surface here as a
// hash mismatch or coverage collapse.

import (
	"testing"

	"quickr"
	"quickr/internal/metrics"
)

func TestSeedSweepCoverageCached(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep runs nightly; skipped in -short")
	}
	env := NewTPCDSEnv(0.05)
	queries := pickSweepQueries(t, env, 5)
	env.Eng.SetSampleCache(quickr.DefaultSampleCacheBytes)
	defer env.Eng.SetSampleCache(0)

	hits0 := metrics.SampleCacheHits.Load()
	for _, sq := range queries {
		sq := sq
		t.Run(sq.q.ID, func(t *testing.T) {
			var cold, warm sweepStats
			for seed := uint64(1); seed <= sweepSeeds; seed++ {
				env.Eng.SetSeed(seed) // bumps the epoch: every seed starts cold
				coldRes, err := env.Eng.ExecApprox(sq.q.SQL)
				if err != nil {
					t.Fatalf("seed %d cold: %v", seed, err)
				}
				warmRes, err := env.Eng.ExecApprox(sq.q.SQL)
				if err != nil {
					t.Fatalf("seed %d warm: %v", seed, err)
				}
				if ch, wh := resultHash(coldRes), resultHash(warmRes); ch != wh {
					t.Fatalf("seed %d: warm replay hash %s differs from cold %s", seed, wh[:12], ch[:12])
				}
				observeSweepRun(&cold, sq, coldRes)
				observeSweepRun(&warm, sq, warmRes)
			}
			if cold != warm {
				t.Errorf("warm sweep statistics diverge from cold: %+v vs %+v", warm, cold)
			}
			checkSweepStats(t, sq, warm)
		})
	}
	// Not every swept plan is cacheable (a sampler above a join is not),
	// but across five queries × 200 seeds the cache must have served
	// replays — otherwise this sweep never exercised the warm path.
	if metrics.SampleCacheHits.Load() == hits0 {
		t.Error("no sample-cache hits across the cached sweep; the warm path was never exercised")
	}
	env.Eng.SetSeed(0)
}
