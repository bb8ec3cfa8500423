package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"quickr/internal/workload"
)

// BENCHMARK.json is what the driver reads; spec.go is what the program
// reports. A name, unit, direction or bound changed in one and not the
// other would make the driver look for a metric that is not printed.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json is not what the program describes; rewrite it with: go run -C benchmark . -describe > BENCHMARK.json")
	}
	for _, w := range workloads {
		if n := len(w.Why); n == 0 || n > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, n)
		}
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the contract's 64 KiB", len(want))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound > 0.25 {
		t.Errorf("the contract wants setup_s first-class with a bound of at most 0.25")
	}
}

// Every query of the repository's 62-query bench runs in exactly one of
// the two ad-hoc workloads.
func TestAdhocWorkloadsPartitionTheBenchQueries(t *testing.T) {
	count := map[string]int{}
	for _, build := range []func(int64, scale) *inputs{buildAdhocJoin, buildAdhocScan} {
		for _, q := range build(1, smokeScale).exact {
			count[q.ID]++
		}
	}
	all := append(append(workload.TPCDSQueries(), workload.TPCHQueries()...), workload.OtherQueries()...)
	if len(all) != 62 {
		t.Fatalf("the bench has %d queries, not 62", len(all))
	}
	for _, q := range all {
		if count[q.ID] != 1 {
			t.Errorf("%s appears %d times across adhoc_join and adhoc_scan", q.ID, count[q.ID])
		}
	}
	if len(count) != len(all) {
		t.Errorf("the ad-hoc workloads run %d distinct queries, the bench has %d", len(count), len(all))
	}
}
