// Command quickr-bench regenerates every table and figure from the
// paper's evaluation (§5) on the bundled synthetic workloads — the
// artefacts EXPERIMENTS.md records.
//
// Usage:
//
//	quickr-bench [-exp all|F1,F2a,F2b,T3,T4,T5,T6,T7,T8,T9,F8a,F8b,F8c,F9] [-sf 1.0]
//	             [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// It measures nothing about this engine's own speed: that is the job of
// the repository benchmark (benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"quickr/internal/experiments"
	"quickr/internal/profiling"
)

// env loads the datasets the experiments share, each on first use.
type env struct {
	sf   float64
	log  io.Writer
	full *experiments.Env
	f1   *experiments.Env
	fig8 *experiments.Fig8Result
}

// data returns every synthetic dataset at the requested scale factor.
func (e *env) data() *experiments.Env {
	if e.full == nil {
		fmt.Fprintf(e.log, "loading synthetic TPC-DS/TPC-H/log datasets at sf=%.2g...\n", e.sf)
		e.full = experiments.NewFullEnv(e.sf)
	}
	return e.full
}

// f1Data returns the dataset for F1 and F9. The Fig. 1 universe plan
// (also unrolled by Fig. 9) needs enough customers per (color, year)
// group before ASALQA's accuracy checks admit it, so those two
// experiments run at scale factor >= 10.
func (e *env) f1Data() *experiments.Env {
	if e.f1 == nil {
		if e.sf >= 10 {
			e.f1 = e.data()
		} else {
			fmt.Fprintln(e.log, "F1/F9: loading a dedicated sf=10 TPC-DS dataset (the universe plan needs the scale)...")
			e.f1 = experiments.NewTPCDSEnv(10)
		}
	}
	return e.f1
}

// renderer is what every experiment result offers.
type renderer interface{ Render() string }

// one adapts an experiment that yields a single renderer.
func one(f func(*env) (renderer, error)) func(*env) ([]string, error) {
	return func(e *env) ([]string, error) {
		r, err := f(e)
		if err != nil {
			return nil, err
		}
		return []string{r.Render()}, nil
	}
}

// fig8 adapts one view of Figure 8; the suite behind F8a, F8b and F8c
// runs once.
func fig8(render func(*env, *experiments.Fig8Result) string) func(*env) ([]string, error) {
	return func(e *env) ([]string, error) {
		if e.fig8 == nil {
			r, err := experiments.Fig8(e.data())
			if err != nil {
				return nil, err
			}
			e.fig8 = r
		}
		return []string{render(e, e.fig8)}, nil
	}
}

// experimentTable lists every experiment in the order `-exp all` prints
// them; run returns the rendered sections.
var experimentTable = []struct {
	id  string
	run func(*env) ([]string, error)
}{
	{"F1", one(func(e *env) (renderer, error) { return experiments.Fig1(e.f1Data()) })},
	{"F2a", one(func(*env) (renderer, error) { return experiments.Fig2a(), nil })},
	{"F2b", one(func(*env) (renderer, error) { return experiments.Fig2b(), nil })},
	{"T3", one(func(e *env) (renderer, error) { return experiments.Table3(e.data()) })},
	{"T4", one(func(e *env) (renderer, error) { return experiments.Table4(e.data()) })},
	{"T5", one(func(e *env) (renderer, error) { return experiments.Table5(e.data()) })},
	{"T6", func(e *env) ([]string, error) {
		// Default parameters (large stratum caps) and the small-group
		// tuning, as in the paper. Its default cap K=M=1e5 applies to
		// 500GB inputs; the scale-equivalent default here is K=200
		// (1e5 × sf/500).
		var out []string
		for _, k := range []int{200, 10} {
			r, err := experiments.Table6(e.data(), k, []float64{0.5, 1, 4, 10})
			if err != nil {
				return nil, err
			}
			out = append(out, r.Render())
		}
		return out, nil
	}},
	{"T7", one(func(e *env) (renderer, error) { return experiments.Table7(e.data()) })},
	{"T8", one(func(*env) (renderer, error) { return experiments.Table8(), nil })},
	{"T9", one(func(e *env) (renderer, error) { return experiments.Table9(e.data()) })},
	{"F8a", fig8(func(_ *env, r *experiments.Fig8Result) string { return r.RenderA() })},
	{"F8b", fig8(func(_ *env, r *experiments.Fig8Result) string { return r.RenderB() })},
	{"F8c", fig8(func(e *env, r *experiments.Fig8Result) string { return experiments.RenderFig8c(r.Fig8c(e.data())) })},
	{"F9", one(func(e *env) (renderer, error) { return experiments.Fig9(e.f1Data()) })},
}

// experimentIDs is the comma-separated id list the usage text shows.
func experimentIDs() string {
	ids := make([]string, len(experimentTable))
	for i, x := range experimentTable {
		ids[i] = x.id
	}
	return strings.Join(ids, ",")
}

// selectExperiments resolves a comma-separated, case-insensitive -exp
// value to indexes into experimentTable, in table order. An id that
// names no experiment is an error.
func selectExperiments(spec string) ([]int, error) {
	index := map[string]int{}
	for i, x := range experimentTable {
		index[strings.ToUpper(x.id)] = i
	}
	want := make([]bool, len(experimentTable))
	for _, id := range strings.Split(spec, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "ALL" {
			for i := range want {
				want[i] = true
			}
			continue
		}
		i, ok := index[id]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (want all or any of %s)", id, experimentIDs())
		}
		want[i] = true
	}
	var picked []int
	for i, w := range want {
		if w {
			picked = append(picked, i)
		}
	}
	return picked, nil
}

// run runs the selected experiments and prints their sections to stdout;
// progress notes go to log.
func run(exp string, sf float64, stdout, log io.Writer) error {
	picked, err := selectExperiments(exp)
	if err != nil {
		return err
	}
	e := &env{sf: sf, log: log}
	for _, i := range picked {
		x := experimentTable[i]
		sections, err := x.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", x.id, err)
		}
		for _, s := range sections {
			fmt.Fprintln(stdout, "\n"+strings.Repeat("=", 80)+"\n"+s)
		}
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or a comma-separated subset of "+experimentIDs())
	sf := flag.Float64("sf", 1.0, "scale factor for the synthetic datasets")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err == nil {
		err = run(*exp, *sf, os.Stdout, os.Stderr)
		stopProf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
