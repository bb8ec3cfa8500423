package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments_sf0.2.golden")

// qoTimes matches Table 4's two optimization-time rows, the only lines
// of `-exp all` that vary from run to run.
var qoTimes = regexp.MustCompile(`(?m)^((?:Baseline|Quickr) QO time).*$`)

// TestExperimentsGolden renders every table and figure at sf 0.2 (F1
// and F9 load their own sf 10 dataset) and holds the text, Table 4's
// timings masked, to the committed golden. Regenerate with:
//
//	go test ./cmd/quickr-bench -run TestExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	var out, log bytes.Buffer
	if err := run("all", 0.2, &out, &log); err != nil {
		t.Fatal(err)
	}
	got := qoTimes.ReplaceAll(out.Bytes(), []byte("$1 <masked>"))
	path := filepath.Join("testdata", "experiments_sf0.2.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("the experiments drifted from %s at line %d (diff `quickr-bench -exp all -sf 0.2` against it):\n got: %q\nwant: %q",
				path, i+1, line(gl, i), line(wl, i))
		}
	}
}

// line returns lines[i], or a marker past the end.
func line(lines [][]byte, i int) string {
	if i < len(lines) {
		return string(lines[i])
	}
	return "<end of output>"
}
