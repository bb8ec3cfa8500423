// Command quickrlint runs the project-specific static analyzers over
// the repository and fails (exit 1) on any finding. It is the lint
// counterpart to internal/plancheck: plancheck verifies the plans the
// optimizer emits at run time; quickrlint verifies the code that
// builds them, before it runs.
//
// Usage:
//
//	quickrlint [packages]       # default ./...
//	quickrlint -list            # describe the analyzers
//	quickrlint -soundness 500   # also prove the optimizer's rewrite
//	                            # rules over 500 generated plans
//
// Analyzers: the syntactic walkers norawrand, slotdiscipline,
// weightprop and noprintf, plus the CFG/dataflow analyzers
// lockdiscipline, ctxflow and hotalloc (see internal/lint).
// Broken //lint:ignore directives — missing a reason, or left behind
// after the finding they suppressed is gone — are reported under the
// pseudo-analyzer ignorehygiene. Suppress a single finding with a
// `//lint:ignore <analyzer> <reason>` comment on or above the line.
//
// With -soundness N the command additionally runs the rewrite-
// soundness prover (internal/opt/soundness): every rule in the
// optimizer's registry is applied to N randomly generated legal plans
// and checked for schema, weight-algebra, plancheck and idempotence
// preservation. Any problem report names the seed that reproduces it.
package main

import (
	"flag"
	"fmt"
	"os"

	"quickr/internal/lint"
	"quickr/internal/opt/soundness"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	plans := flag.Int("soundness", 0, "also run the optimizer rewrite-soundness prover over this many generated plans")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	diags, err := lint.Run(".", flag.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickrlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "quickrlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}

	if *plans > 0 {
		st := soundness.Sweep(*plans, 1)
		for _, p := range st.Problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "quickrlint: soundness: %s\n", st.Summary())
		if len(st.Problems) > 0 {
			os.Exit(1)
		}
	}
}
