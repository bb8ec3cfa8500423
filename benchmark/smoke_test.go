package main

import (
	"testing"
)

// The smoke scale runs every workload end to end, untraced and traced,
// in a few seconds: it keeps the benchmark building, running and
// checking its answers, and measures nothing worth reading.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			un := runUntraced(w, smokeScale, 1, 0.1)
			tr := runTraced(w, smokeScale, 1, 0.1, out)
			for _, res := range []*result{un, tr} {
				for _, f := range res.Failures {
					t.Errorf("traced %v: %s", res.Traced, f)
				}
				if res.Attempted == 0 {
					t.Errorf("traced %v: nothing attempted", res.Traced)
				}
			}
			for _, m := range endToEnd {
				if v, ok := un.Metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v", m.Name, v)
				}
			}
			for _, m := range perLayer {
				if _, ok := tr.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", m.Name)
				}
			}

			// The workloads stress different layers.
			join := tr.Metrics["exec.approx.op.hashjoin_ms"]
			hits, misses := tr.Metrics["engine.plan_cache_hits"], tr.Metrics["engine.plan_cache_misses"]
			switch w.Name {
			case "adhoc_join":
				if join <= 0 {
					t.Errorf("adhoc_join spends %v ms in hash joins", join)
				}
			case "adhoc_scan":
				if join != 0 {
					t.Errorf("adhoc_scan spends %v ms in hash joins, want none", join)
				}
			case "dashboard_repeat":
				if hits <= 0.9*(hits+misses) {
					t.Errorf("dashboard_repeat: %v plan-cache hits, %v misses: want over 90%% hits", hits, misses)
				}
			case "ingest_refresh":
				if hits >= 0.05*(hits+misses) {
					t.Errorf("ingest_refresh: %v plan-cache hits, %v misses: want under 5%% hits", hits, misses)
				}
			}
		})
	}
}
