package experiments

import (
	"testing"

	"quickr/internal/workload"
)

// TestWorkloadPlansSatisfyInvariants runs every workload query through
// a default engine, which verifies every plan it prepares, under both
// the Baseline plan (no samplers) and the Quickr plan (ASALQA): a
// violation of any sampler, universe-pairing, weight-propagation or
// exchange/breaker invariant fails the optimize step. This is the
// workload-wide gate behind internal/plancheck — every optimized
// logical plan and every compiled physical plan for the TPC-DS, TPC-H,
// Other and dashboard suites must verify clean. The scale is the
// benchmark's: at sf 1 q32 pairs two universe samplers across a
// three-way join, through a column the outer join's keys reach only via
// the inner join's.
func TestWorkloadPlansSatisfyInvariants(t *testing.T) {
	env := NewFullEnv(1)
	suites := map[string][]workload.Query{
		"tpcds":     workload.TPCDSQueries(),
		"tpch":      workload.TPCHQueries(),
		"other":     workload.OtherQueries(),
		"dashboard": workload.DashboardQueries(),
	}
	for name, suite := range suites {
		for _, q := range suite {
			q := q
			t.Run(name+"/"+q.ID, func(t *testing.T) {
				if _, err := env.Eng.Plan(q.SQL, false); err != nil {
					t.Errorf("baseline plan: %v", err)
				}
				info, err := env.Eng.Plan(q.SQL, true)
				if err != nil {
					t.Fatalf("quickr plan: %v", err)
				}
				if q.ID == "q32" && (len(info.Samplers) != 2 || info.RootSampler != "UNIVERSE") {
					t.Errorf("q32 no longer plans a universe pair at this scale (samplers %v): the three-way pairing goes unchecked", info.Samplers)
				}
			})
		}
	}
}
