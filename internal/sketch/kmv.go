package sketch

import (
	"math"
	"slices"
)

// KMV estimates the number of distinct values in a stream with the
// k-minimum-values synopsis (Bar-Yossef et al., RANDOM 2002; Beyer et
// al., SIGMOD 2007 — the paper's citation [16] for distinct-value
// synopses under multiset operations).
// Its state is a set plus a count: re-adding a key changes only N.
type KMV struct {
	k      int
	hashes []uint64        // the distinct minimum hashes, sorted ascending, len ≤ k
	exact  map[string]bool // exact mode while small
	n      int64
}

// NewKMV creates a sketch keeping the k minimum hash values. Estimates
// have relative error ~1/sqrt(k).
func NewKMV(k int) *KMV {
	if k < 16 {
		k = 16
	}
	return &KMV{k: k, exact: map[string]bool{}}
}

// Add records one value.
func (s *KMV) Add(key string) { s.AddKey([]byte(key), 1) }

// AddKey records n occurrences of the value whose key is the bytes of
// key: the same state as n calls of Add(string(key)), hashed in place.
// It allocates only when key is new to the exact set.
func (s *KMV) AddKey(key []byte, n int64) {
	s.n += n
	if s.exact != nil && !s.exact[string(key)] {
		// Stay exact while cheap; the hashes are fed too, so the later
		// switch is seamless.
		s.exact[string(key)] = true
	}
	h := uint64(14695981039346656037) // FNV-1a, allocation-free
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	s.insertHash(mix64(h))
	if s.exact != nil && len(s.exact) > 4*s.k {
		s.exact = nil // fall back to the sketch estimate
	}
}

// insertHash folds one (already mixed) hash value into the k-minimum
// set, keeping hashes sorted ascending and capped at k. A full sketch
// rejects most hashes of a long stream by its k-th minimum alone.
func (s *KMV) insertHash(v uint64) {
	if len(s.hashes) >= s.k && v >= s.hashes[len(s.hashes)-1] {
		return
	}
	i, found := slices.BinarySearch(s.hashes, v)
	if found {
		return
	}
	s.hashes = slices.Insert(s.hashes, i, v)
	if len(s.hashes) > s.k {
		s.hashes = s.hashes[:s.k]
	}
}

// Estimate returns the estimated number of distinct values.
func (s *KMV) Estimate() float64 {
	if s.exact != nil {
		return float64(len(s.exact))
	}
	if len(s.hashes) < s.k {
		return float64(len(s.hashes))
	}
	kth := float64(s.hashes[s.k-1])
	if kth == 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / (kth / math.MaxUint64)
}

// N returns the number of values observed (with duplicates).
func (s *KMV) N() int64 { return s.n }

// mix64 is a finalizing bit mixer (splitmix64): FNV alone avalanches
// poorly on short, similar keys, which biases the k-th minimum and
// therefore the estimate.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
