package sampler

import (
	"math/rand"
	"testing"

	"quickr/internal/table"
)

func row(v int64) table.Row { return table.Row{table.NewInt(v)} }

// The seed-based constructors must behave exactly like the injected-rng
// constructors over the same source, so callers can move to injected
// rngs without changing which rows pass.
func TestUniformSeedMatchesInjectedRand(t *testing.T) {
	a := NewUniform(0.3, 42)
	b := NewUniformRand(0.3, rand.New(rand.NewSource(42)))
	for i := int64(0); i < 5000; i++ {
		pa, wa := a.Admit(row(i), 1)
		pb, wb := b.Admit(row(i), 1)
		if pa != pb || wa != wb {
			t.Fatalf("row %d: seeded (%v,%v) != injected (%v,%v)", i, pa, wa, pb, wb)
		}
	}
}

func TestDistinctSeedMatchesInjectedRand(t *testing.T) {
	a := newRowDistinct(NewDistinct(0.2, 2, 7), 0)
	b := newRowDistinct(NewDistinctRand(0.2, 2, rand.New(rand.NewSource(7))), 0)
	for i := int64(0); i < 5000; i++ {
		v := i % 17 // skewed enough to exercise reservoirs and coin flips
		pa, wa := a.Admit(row(v), 1)
		pb, wb := b.Admit(row(v), 1)
		if pa != pb || wa != wb {
			t.Fatalf("row %d: seeded (%v,%v) != injected (%v,%v)", i, pa, wa, pb, wb)
		}
	}
	fa, fb := a.Flush(), b.Flush()
	if len(fa) != len(fb) {
		t.Fatalf("flush lengths differ: %d vs %d", len(fa), len(fb))
	}
}

// Two samplers with the same seed must pass an identical row set.
func TestUniformDeterministicForSeed(t *testing.T) {
	pass := func(seed uint64) []int64 {
		u := NewUniform(0.5, seed)
		var out []int64
		for i := int64(0); i < 2000; i++ {
			if ok, _ := u.Admit(row(i), 1); ok {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := pass(99), pass(99)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := pass(100)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced an identical pass set")
		}
	}
}
