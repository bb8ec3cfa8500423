package stats

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"quickr/internal/sql"
)

func TestHistoryRoundTrip(t *testing.T) {
	h := NewHistory()
	h.Record("aaa", Observation{RowsPerSec: 1e6, CIRatio: 1.5, SelRatio: 0.8, GroupRatio: 1.2, GoodP: 0.05})
	h.Record("aaa", Observation{RowsPerSec: 2e6, CIRatio: 2.0})
	h.Record("bbb", Observation{RowsPerSec: 5e5})

	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	h2 := NewHistory()
	if err := h2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if h2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h2.Len())
	}
	a1, _ := h.Lookup("aaa")
	a2, ok := h2.Lookup("aaa")
	if !ok || a1 != a2 {
		t.Fatalf("round trip mismatch: %+v vs %+v", a1, a2)
	}
	if a2.Runs != 2 || a2.LastGoodP != 0.05 {
		t.Fatalf("unexpected entry: %+v", a2)
	}
	// EWMA: 1e6 then 2e6 with alpha=0.5 -> 1.5e6.
	if a2.RowsPerSec != 1.5e6 {
		t.Fatalf("RowsPerSec EWMA = %g, want 1.5e6", a2.RowsPerSec)
	}
	// Save is deterministic (sorted by fingerprint).
	var buf2 bytes.Buffer
	if err := h2.Save(&buf2); err != nil {
		t.Fatalf("Save2: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("Save output not deterministic")
	}
}

func TestHistoryLoadCorrupt(t *testing.T) {
	// Every corrupt payload must degrade to a cold store, not error.
	payloads := []string{
		"",                // empty
		"{",               // truncated JSON
		"not json at all", // garbage
		`{"version":99,"queries":[{"fingerprint":"x","runs":3}]}`, // version mismatch
		`[1,2,3]`, // wrong shape
		`{"version":1,"queries":[{"fingerprint":"","runs":1}]}`, // empty fingerprint dropped
	}
	for _, p := range payloads {
		h := NewHistory()
		h.Record("warm", Observation{RowsPerSec: 1})
		if err := h.Load(strings.NewReader(p)); err != nil {
			t.Fatalf("Load(%q) returned error: %v", p, err)
		}
		if h.Len() != 0 {
			t.Fatalf("Load(%q): store not cold, len=%d", p, h.Len())
		}
	}
	// A truncated copy of valid output also loads cold.
	h := NewHistory()
	h.Record("aaa", Observation{RowsPerSec: 1e6})
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	half := buf.String()[:buf.Len()/2]
	h2 := NewHistory()
	if err := h2.Load(strings.NewReader(half)); err != nil {
		t.Fatalf("Load(truncated): %v", err)
	}
	if h2.Len() != 0 {
		t.Fatalf("truncated load not cold: len=%d", h2.Len())
	}
}

func TestHistoryRatioClamp(t *testing.T) {
	h := NewHistory()
	h.Record("x", Observation{CIRatio: 1000, SelRatio: 1e-9})
	q, _ := h.Lookup("x")
	if q.CIRatio != maxRatio || q.SelRatio != minRatio {
		t.Fatalf("ratios not clamped: %+v", q)
	}
}

func TestFingerprintStability(t *testing.T) {
	// Semantically identical statements normalize to the same string
	// via the parser, so their fingerprints collide as intended.
	variants := []string{
		"SELECT a, SUM(b) FROM t GROUP BY a",
		"select a, sum(b) from t group by a",
		"SELECT  a , SUM( b )\nFROM t\tGROUP BY a",
		"SELECT a, SUM(b) FROM t GROUP BY a -- trailing comment",
	}
	var want string
	for i, v := range variants {
		stmt, err := sql.Parse(v)
		if err != nil {
			t.Fatalf("Parse(%q): %v", v, err)
		}
		fp := Fingerprint(stmt.String())
		if i == 0 {
			want = fp
			continue
		}
		if fp != want {
			t.Fatalf("fingerprint of %q = %s, want %s", v, fp, want)
		}
	}
	// Different statements must not collide.
	other, err := sql.Parse("SELECT a, SUM(c) FROM t GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(other.String()) == want {
		t.Fatal("distinct statements share a fingerprint")
	}
}

func TestHistoryConcurrentHammer(t *testing.T) {
	// 32 workers record and look up concurrently; run under -race in CI.
	h := NewHistory()
	const workers = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fp := fmt.Sprintf("fp-%d", w%4)
			for i := 0; i < 500; i++ {
				h.Record(fp, Observation{
					RowsPerSec: float64(1 + i),
					CIRatio:    1 + float64(i%5),
					GoodP:      0.05,
				})
				if q, ok := h.Lookup(fp); ok && q.Runs <= 0 {
					t.Errorf("lookup saw non-positive run count")
					return
				}
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := h.Save(&buf); err != nil {
						t.Errorf("Save: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	q, _ := h.Lookup("fp-0")
	if q.Runs != 8*500 {
		t.Fatalf("Runs = %d, want %d", q.Runs, 8*500)
	}
}
