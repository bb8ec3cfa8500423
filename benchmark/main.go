// Command benchmark is the repository's benchmark: four workloads over
// a default-configured quickr engine, real wall-clock end to end, and a
// separate traced run that times every layer from outside. README.md
// explains the workloads, the metrics and how to compare two commits.
//
//	bash benchmark/run.sh --workload adhoc_join --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"quickr/internal/profiling"
)

func main() {
	var (
		workload   = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed       = flag.Int64("seed", 1, "seed of the generated inputs and of the sampler seeds")
		seconds    = flag.Float64("seconds", runSeconds, "how long the timed section measures")
		trace      = flag.Int("trace", 0, "1 runs the traced per-layer run in place of the end-to-end run")
		out        = flag.String("out", "out", "directory the traced run writes its Chrome trace into")
		smoke      = flag.Bool("smoke", false, "tiny inputs and pass counts: checks that the benchmark works, measures nothing")
		selfcheck  = flag.Bool("selfcheck", false, "run every workload twice at the same seed and compare the two runs")
		descr      = flag.Bool("describe", false, "print BENCHMARK.json, as written from the program's own tables, and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *descr {
		b, err := describe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else if w, ok := workloadByName(*workload); ok {
		specs = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	ok := true
	if *selfcheck {
		ok = selfCheck(specs, sc, *seed, *seconds, *out)
	} else {
		for _, w := range specs {
			var res *result
			if *trace != 0 {
				res = runTraced(w, sc, *seed, *seconds, *out)
			} else {
				res = runUntraced(w, sc, *seed, *seconds)
			}
			printResult(res)
			ok = ok && len(res.Failures) == 0
		}
	}
	stopProfiles()
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// printResult prints every metric by name with its unit, sample count,
// direction and bound, then the failures, then the one-line JSON object
// the driver reads.
func printResult(res *result) {
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	fmt.Printf("== %s  seed %d  traced %v\n", res.Workload, res.Seed, res.Traced)
	fmt.Printf("%-36s %16s %-6s %8s  %-6s %s\n", "metric", "value", "unit", "samples", "better", "bound")
	for _, m := range specs {
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%g%%", m.Bound*100)
		}
		fmt.Printf("%-36s %16.6g %-6s %8d  %-6s %s\n", m.Name, res.Metrics[m.Name], m.Unit, res.Samples[m.Name], m.Better, bound)
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for i, f := range res.Failures {
		if i == 20 {
			fmt.Printf("FAIL: ... and %d more\n", len(res.Failures)-i)
			break
		}
		fmt.Println("FAIL:", f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Failures) == 0, res.Attempted, len(res.Failures), map[string]value{}}
	for _, m := range specs {
		line.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
