package experiments

// Partition-layout battery: the only tests that place rows by partition
// on purpose. Samplers run one instance per partition (the distinct
// sampler splits its δ guarantee across instances, paper §4.1.2), so a
// group spread thinly over every partition, heavy-tailed values and a
// group whose mass sits in a few partitions all stress what a
// round-robin load never does. Each layout has known ground truth and
// is queried through a default engine: the plan must sample, CI95 must
// cover the truth at the floor, and no group may go missing.

import (
	"math"
	"math/rand"
	"testing"

	"quickr"
	"quickr/internal/table"
)

const (
	layoutParts   = 16
	layoutRowsPer = 400
	layoutKeys    = 4
	layoutSeeds   = 40
	// layoutCoverageFloor is looser than the nominal 95% (and the seed
	// sweep's 90%) because the layouts are adversarial and the group
	// count per run is small.
	layoutCoverageFloor = 0.85
)

type layoutTruth struct {
	sum   float64
	count float64
}

// buildLayout materializes one synthetic layout as a 16-partition fact
// table with explicit partition placement, returning per-group ground
// truth for SELECT g, SUM(v), COUNT(*) ... GROUP BY g.
func buildLayout(name string, gen func(r *rand.Rand, part, i int) (int64, float64)) (*table.Table, map[int64]*layoutTruth) {
	sc := table.NewSchema(
		table.Column{Name: "g", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindFloat},
	)
	tbl := table.New(name, sc, layoutParts)
	truth := map[int64]*layoutTruth{}
	r := rand.New(rand.NewSource(7))
	for p := 0; p < layoutParts; p++ {
		for i := 0; i < layoutRowsPer; i++ {
			g, v := gen(r, p, i)
			tbl.Append(p, table.Row{table.NewInt(g), table.NewFloat(v)})
			tr := truth[g]
			if tr == nil {
				tr = &layoutTruth{}
				truth[g] = tr
			}
			tr.sum += v
			tr.count++
		}
	}
	return tbl, truth
}

// partitionLayouts is the table driving the battery.
var partitionLayouts = []struct {
	name string
	gen  func(r *rand.Rand, part, i int) (int64, float64)
}{
	{
		// Every group spread evenly over every partition, unit-scale
		// values.
		name: "uniform",
		gen: func(r *rand.Rand, part, i int) (int64, float64) {
			return int64(i % layoutKeys), 1 + r.Float64()
		},
	},
	{
		// Heavy-tailed values (approximately Zipf via inverse-uniform):
		// per-partition totals vary widely.
		name: "skewed",
		gen: func(r *rand.Rand, part, i int) (int64, float64) {
			return int64(r.Intn(layoutKeys)), 1 / (0.05 + r.Float64())
		},
	},
	{
		// Partition-correlated: each group's "home" partitions (part %
		// layoutKeys) hold a dominant share of its rows.
		name: "heavy-hitter",
		gen: func(r *rand.Rand, part, i int) (int64, float64) {
			if i%2 == 0 {
				return int64(part % layoutKeys), 2 + r.Float64()
			}
			return int64(r.Intn(layoutKeys)), 1 + r.Float64()
		},
	},
}

func TestPartitionLayoutCoverage(t *testing.T) {
	for _, layout := range partitionLayouts {
		layout := layout
		t.Run(layout.name, func(t *testing.T) {
			tbl, truth := buildLayout("facts", layout.gen)
			eng := quickr.New()
			eng.RegisterStored(tbl)
			sql := `SELECT g, SUM(v) AS total, COUNT(*) AS cnt FROM facts GROUP BY g`

			var pairs, covered int
			var relErrSum float64
			for seed := uint64(1); seed <= layoutSeeds; seed++ {
				eng.SetSeed(seed)
				res, err := eng.ExecApprox(sql)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Sampled || res.Unapproximable {
					t.Fatalf("seed %d: plan did not sample (the battery needs an approximate run)", seed)
				}
				if len(res.Estimates) != len(truth) {
					t.Errorf("seed %d: %d groups in the answer, the table has %d", seed, len(res.Estimates), len(truth))
				}
				for _, g := range res.Estimates {
					key, ok := g.Key[0].(int64)
					if !ok {
						t.Fatalf("seed %d: non-int group key %v", seed, g.Key[0])
					}
					tr := truth[key]
					if tr == nil {
						t.Fatalf("seed %d: estimate for unknown group %d", seed, key)
					}
					want := []float64{tr.sum, tr.count}
					for i, w := range want {
						est, isNum := toFloat(g.Values[i])
						if !isNum || i >= len(g.CI95) || g.CI95[i] <= 0 {
							continue
						}
						pairs++
						relErrSum += math.Abs(est-w) / w
						if math.Abs(est-w) <= g.CI95[i] {
							covered++
						}
					}
				}
			}
			if pairs == 0 {
				t.Fatal("no coverage observations")
			}
			cov := float64(covered) / float64(pairs)
			t.Logf("%s: coverage %.3f over %d pairs, mean rel err %.3f",
				layout.name, cov, pairs, relErrSum/float64(pairs))
			if cov < layoutCoverageFloor {
				t.Errorf("CI95 covered truth in %.1f%% of %d observations, want ≥ %.0f%%",
					100*cov, pairs, 100*layoutCoverageFloor)
			}
		})
	}
}
