package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "query", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "parse", Parent: 0, Start: 10 * ms, End: 20 * ms},
		{Name: "run", Parent: 0, Start: 30 * ms, End: 90 * ms},
		{Name: "scan", Parent: 2, Start: 30 * ms, End: 50 * ms},
		// Overlaps scan by 10 ms and outlives its parent by 10 ms: only
		// the 40 ms inside run that scan did not already cover count.
		{Name: "agg", Parent: 2, Start: 40 * ms, End: 100 * ms},
	}
	want := []time.Duration{30 * ms, 10 * ms, 0, 20 * ms, 60 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := &tracer{epoch: time.Now(), client: 1}
	root := tr.begin("query", -1, 0)
	kid := tr.begin("sql.parse", root, 0)
	tr.end(kid)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := writeChromeTrace(path, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Args map[string]any
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "sql.parse" || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Tid != 1 {
		t.Fatalf("unexpected events: %+v", doc.TraceEvents)
	}
	if _, ok := doc.TraceEvents[0].Args["self_us"]; !ok {
		t.Errorf("root event carries no self time: %+v", doc.TraceEvents[0])
	}
}
