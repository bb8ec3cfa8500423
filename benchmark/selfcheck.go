package main

import (
	"fmt"
	"math"
	"sort"
)

// selfCheck runs every workload twice at the same seed, untraced and
// traced, and compares the two runs: every end-to-end metric must agree
// within its own bound, and the metrics and counters that depend on the
// seed alone must be identical.
func selfCheck(specs []workloadSpec, sc scale, seed int64, seconds float64, outDir string) bool {
	ok := true
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			run := func() *result {
				if traced {
					return runTraced(w, sc, seed, seconds, outDir)
				}
				return runUntraced(w, sc, seed, seconds)
			}
			a, b := run(), run()
			fmt.Printf("== selfcheck %s  seed %d  traced %v\n", w.Name, seed, traced)
			for _, res := range []*result{a, b} {
				for _, f := range res.Failures {
					fmt.Println("FAIL:", f)
					ok = false
				}
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			fmt.Printf("%-36s %14s %14s %9s %7s  %s\n", "metric", "first", "second", "diff", "bound", "verdict")
			for _, m := range list {
				x, y := a.Metrics[m.Name], b.Metrics[m.Name]
				diff := 0.0
				if x != 0 {
					diff = math.Abs(y-x) / math.Abs(x)
				}
				verdict, bound := "", "-"
				switch {
				case m.Exact:
					bound = "exact"
					if x != y {
						verdict, ok = "DIFFERS", false
					}
				case m.Bound > 0:
					bound = fmt.Sprintf("%g%%", m.Bound*100)
					if diff > m.Bound {
						verdict, ok = "OUTSIDE BOUND", false
					}
				}
				fmt.Printf("%-36s %14.6g %14.6g %8.2f%% %7s  %s\n", m.Name, x, y, diff*100, bound, verdict)
			}
			names := make([]string, 0, len(a.Counts))
			for name := range a.Counts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				verdict := "identical"
				if a.Counts[name] != b.Counts[name] {
					verdict, ok = "DIFFERS", false
				}
				fmt.Printf("count %-30s %14d %14d  %s\n", name, a.Counts[name], b.Counts[name], verdict)
			}
		}
	}
	return ok
}
