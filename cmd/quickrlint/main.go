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
//
// Analyzers: the syntactic walker noprintf, plus the CFG/dataflow
// analyzers lockdiscipline and ctxflow (see internal/lint); each guards
// a bug class no test catches. The rewrite-soundness prover runs as
// TestSoundnessSweep under go test.
// Broken //lint:ignore directives — missing a reason, or left behind
// after the finding they suppressed is gone — are reported under the
// pseudo-analyzer ignorehygiene. Suppress a single finding with a
// `//lint:ignore <analyzer> <reason>` comment on or above the line.
package main

import (
	"flag"
	"fmt"
	"os"

	"quickr/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
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
}
