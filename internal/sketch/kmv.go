package sketch

import (
	"hash/fnv"
	"math"
	"sort"
)

// KMV estimates the number of distinct values in a stream with the
// k-minimum-values synopsis (Bar-Yossef et al., RANDOM 2002; Beyer et
// al., SIGMOD 2007 — the paper's citation [16] for distinct-value
// synopses under multiset operations).
type KMV struct {
	k      int
	hashes []uint64 // max-heap-free: kept sorted ascending, len ≤ k
	seen   map[uint64]bool
	exact  map[string]bool // exact mode while small
	n      int64
}

// NewKMV creates a sketch keeping the k minimum hash values. Estimates
// have relative error ~1/sqrt(k).
func NewKMV(k int) *KMV {
	if k < 16 {
		k = 16
	}
	return &KMV{k: k, seen: map[uint64]bool{}, exact: map[string]bool{}}
}

// Add records one value.
func (s *KMV) Add(key string) {
	s.n++
	if s.exact != nil {
		// Stay exact while cheap; the hashes are fed too, so the later
		// switch is seamless.
		s.exact[key] = true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	s.insertHash(mix64(h.Sum64()))
	if s.exact != nil && len(s.exact) > 4*s.k {
		s.exact = nil // fall back to the sketch estimate
	}
}

// insertHash folds one (already mixed) hash value into the k-minimum
// set, keeping hashes sorted ascending and capped at k.
func (s *KMV) insertHash(v uint64) {
	if s.seen[v] {
		return
	}
	if len(s.hashes) >= s.k {
		max := s.hashes[len(s.hashes)-1]
		if v >= max {
			return
		}
	}
	s.seen[v] = true
	i := sort.Search(len(s.hashes), func(i int) bool { return s.hashes[i] >= v })
	s.hashes = append(s.hashes, 0)
	copy(s.hashes[i+1:], s.hashes[i:])
	s.hashes[i] = v
	if len(s.hashes) > s.k {
		drop := s.hashes[len(s.hashes)-1]
		delete(s.seen, drop)
		s.hashes = s.hashes[:len(s.hashes)-1]
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
