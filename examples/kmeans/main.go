// K-means: the paper's second headline use case — "machine learning
// queries that build models by iterating over datasets (e.g., k-means)
// can tolerate approximations in their early iterations" (§1).
//
// Each k-means iteration is an aggregation query: assign points to the
// nearest centroid, then average per cluster. This example runs the
// early iterations through Quickr's uniform sampler and only the final
// polish iterations exactly, and compares cost and convergence against
// an all-exact run.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"quickr/internal/sampler"
)

const (
	k          = 4
	points     = 200000
	iterations = 8
	exactTail  = 2 // final iterations run exactly
	sampleP    = 0.02
)

type pt struct{ x, y float64 }

func main() {
	rng := rand.New(rand.NewSource(11))
	truth := []pt{{0, 0}, {8, 1}, {4, 9}, {-5, 6}}
	data := make([]pt, points)
	for i := range data {
		c := truth[rng.Intn(k)]
		data[i] = pt{c.x + rng.NormFloat64(), c.y + rng.NormFloat64()}
	}

	exactCents, exactRows := run(data, false, rng)
	approxCents, approxRows := run(data, true, rng)

	fmt.Printf("rows touched: exact %d, approx-early %d (%.1fx fewer)\n",
		exactRows, approxRows, float64(exactRows)/float64(approxRows))
	fmt.Printf("%-10s %-22s %-22s\n", "cluster", "all-exact centroid", "sampled-early centroid")
	for i := 0; i < k; i++ {
		fmt.Printf("%-10d (%6.3f, %6.3f)       (%6.3f, %6.3f)\n",
			i, exactCents[i].x, exactCents[i].y, approxCents[i].x, approxCents[i].y)
	}
	var drift float64
	for i := 0; i < k; i++ {
		drift += math.Hypot(exactCents[i].x-approxCents[i].x, exactCents[i].y-approxCents[i].y)
	}
	fmt.Printf("total centroid drift vs exact: %.4f\n", drift/k)
}

// run performs k-means; with approximate=true, early iterations stream
// points through Quickr's uniform sampler and average with
// Horvitz–Thompson weights, exactly like a sampled GROUP BY: the
// sampler thins the points' lane list and scales their weights.
func run(data []pt, approximate bool, rng *rand.Rand) ([]pt, int64) {
	cents := []pt{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	var rowsTouched int64
	for iter := 0; iter < iterations; iter++ {
		sel, weights := make([]int32, len(data)), make([]float64, len(data))
		for i := range sel {
			sel[i], weights[i] = int32(i), 1
		}
		if approximate && iter < iterations-exactTail {
			sel = sampler.NewUniform(sampleP, uint64(iter)*977+13).AdmitBatch(sel, weights)
		}
		sumX := make([]float64, k)
		sumY := make([]float64, k)
		sumW := make([]float64, k)
		for _, i := range sel {
			p, w := data[i], weights[i]
			rowsTouched++
			best, bd := 0, math.Inf(1)
			for c := range cents {
				d := math.Hypot(p.x-cents[c].x, p.y-cents[c].y)
				if d < bd {
					bd, best = d, c
				}
			}
			sumX[best] += w * p.x
			sumY[best] += w * p.y
			sumW[best] += w
		}
		for c := range cents {
			if sumW[c] > 0 {
				cents[c] = pt{sumX[c] / sumW[c], sumY[c] / sumW[c]}
			}
		}
	}
	return cents, rowsTouched
}
