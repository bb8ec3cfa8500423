package main

import (
	"bytes"
	"strings"
	"testing"
)

// Every id the -exp usage text offers must resolve, in either case, and
// "all" must select the whole table in its printing order.
func TestSelectExperiments(t *testing.T) {
	ids := strings.Split(experimentIDs(), ",")
	if len(ids) != 14 {
		t.Fatalf("usage lists %d experiments, EXPERIMENTS.md has 14: %v", len(ids), ids)
	}
	for i, id := range ids {
		for _, spec := range []string{id, strings.ToLower(id), " " + strings.ToUpper(id) + " "} {
			got, err := selectExperiments(spec)
			if err != nil || len(got) != 1 || got[0] != i {
				t.Errorf("-exp %q selected %v, %v; want [%d]", spec, got, err, i)
			}
		}
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(ids) {
		t.Fatalf("-exp all selected %v, %v", all, err)
	}
	for i, got := range all {
		if got != i {
			t.Fatalf("-exp all is out of table order: %v", all)
		}
	}
	if got, _ := selectExperiments("T9,f2a,T9"); len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Errorf("-exp T9,f2a,T9 selected %v, want [1 9]", got)
	}
}

// An id that names nothing used to print nothing and exit 0.
func TestUnknownExperimentIsAnError(t *testing.T) {
	for _, spec := range []string{"F8", "T8,F8", "SMOKE", ""} {
		var out bytes.Buffer
		err := run(spec, 0.1, &out, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %q: got %v, want an unknown-experiment error", spec, err)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %q printed %q before failing", spec, out.String())
		}
	}
}

// T8 and F2a need no dataset, so they run here end to end.
func TestDataFreeExperimentsRender(t *testing.T) {
	var out, log bytes.Buffer
	if err := run("T8,F2a", 0.1, &out, &log); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Errorf("a dataset was loaded: %q", log.String())
	}
	sections := strings.Split(out.String(), strings.Repeat("=", 80)+"\n")[1:]
	if len(sections) != 2 {
		t.Fatalf("got %d sections, want 2:\n%s", len(sections), out.String())
	}
	// Table order, whatever order -exp named them in.
	for i, title := range []string{"Figure 2a:", "Table 8:"} {
		if !strings.HasPrefix(sections[i], title) || strings.Count(sections[i], "\n") < 4 {
			t.Errorf("section %d does not look like %s\n%s", i, title, sections[i])
		}
	}
}
