package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLossyCounterFindsHeavyHitters(t *testing.T) {
	c := NewLossyCounter[string](1e-3)
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	// Two heavy hitters at ~10% and ~5%; the rest uniform over 10k keys.
	for i := 0; i < n; i++ {
		switch {
		case rng.Float64() < 0.10:
			c.Add("hot1")
		case rng.Float64() < 0.05:
			c.Add("hot2")
		default:
			c.Add(fmt.Sprintf("k%d", rng.Intn(10000)))
		}
	}
	hh := c.HeavyHitters(0.02)
	if len(hh) < 2 {
		t.Fatalf("expected both heavy hitters, got %v", hh)
	}
	if hh[0].Key != "hot1" || hh[1].Key != "hot2" {
		t.Fatalf("order: %v", hh)
	}
	// Frequency estimates within eps*N of truth.
	if math.Abs(float64(hh[0].Freq)-0.10*n) > 2*1e-3*n+0.01*n {
		t.Errorf("hot1 freq estimate %d far from %d", hh[0].Freq, int(0.10*n))
	}
}

func TestLossyCounterMemoryBound(t *testing.T) {
	eps := 1e-3
	c := NewLossyCounter[string](eps)
	for i := 0; i < 500000; i++ {
		c.Add(fmt.Sprintf("k%d", i)) // all distinct: worst case
	}
	// Lossy counting guarantees ≤ (1/eps)·log(eps·N) entries.
	bound := int(1 / eps * math.Log(eps*float64(c.N())) * 1.5)
	if c.EntryCount() > bound {
		t.Errorf("entries %d exceed bound %d", c.EntryCount(), bound)
	}
}

func TestLossyCounterUndercountBounded(t *testing.T) {
	// Property: reported count never exceeds true count, and undercount
	// is at most eps*N.
	c := NewLossyCounter[string](1e-2)
	trueCount := map[string]int64{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(100))
		c.Add(k)
		trueCount[k]++
	}
	for k, tc := range trueCount {
		got, ok := c.Count(k)
		if !ok {
			if tc > int64(1e-2*float64(c.N())) {
				t.Errorf("%s with count %d dropped", k, tc)
			}
			continue
		}
		if got > tc {
			t.Errorf("%s overcounted: %d > %d", k, got, tc)
		}
		if tc-got > int64(1e-2*float64(c.N()))+1 {
			t.Errorf("%s undercounted: %d << %d", k, got, tc)
		}
	}
}

func TestKMVExactSmall(t *testing.T) {
	s := NewKMV(64)
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprintf("v%d", i%10))
	}
	if got := s.Estimate(); got != 10 {
		t.Errorf("small-cardinality estimate %v want exactly 10", got)
	}
}

func TestKMVEstimateLarge(t *testing.T) {
	s := NewKMV(1024)
	const trueNDV = 50000
	for i := 0; i < trueNDV; i++ {
		s.Add(fmt.Sprintf("v%d", i))
		s.Add(fmt.Sprintf("v%d", i)) // duplicates must not matter
	}
	got := s.Estimate()
	if rel := math.Abs(got-trueNDV) / trueNDV; rel > 0.15 {
		t.Errorf("estimate %.0f vs %d (rel err %.2f)", got, trueNDV, rel)
	}
	if s.N() != 2*trueNDV {
		t.Errorf("N = %d", s.N())
	}
}

// Property: duplicates never change the estimate.
func TestKMVDuplicateInvariance(t *testing.T) {
	f := func(keys []uint16) bool {
		a, b := NewKMV(64), NewKMV(64)
		for _, k := range keys {
			a.Add(fmt.Sprint(k))
			b.Add(fmt.Sprint(k))
			b.Add(fmt.Sprint(k))
		}
		return a.Estimate() == b.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
