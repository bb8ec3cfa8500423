// Package sketch provides the streaming summaries Quickr relies on: a
// Manku–Motwani lossy-counting heavy-hitter sketch (used by the distinct
// sampler, §4.1.2, and table statistics, Table 2) and a KMV distinct-value
// estimator (Table 2).
package sketch

import (
	"cmp"
	"sort"
)

// LossyCounter identifies heavy hitters in one pass using memory
// O(1/eps · log(eps·N)) (Manku & Motwani, VLDB 2002). For an input of
// size N it reports every item with frequency above s·N and estimates
// frequencies to within ±eps·N of truth. The paper uses eps=1e-4, s=1e-2
// for a ~20MB footprint at N=1e10 rows (§4.1.2). Keys are value keys
// (statistics) or dense stratum ids (the distinct sampler).
type LossyCounter[K cmp.Ordered] struct {
	eps     float64
	width   int // bucket width ⌈1/eps⌉
	bucket  int // current bucket id
	n       int64
	entries map[K]lcEntry
}

type lcEntry struct {
	count int64
	delta int64
}

// NewLossyCounter creates a sketch with error bound eps (0 < eps < 1).
func NewLossyCounter[K cmp.Ordered](eps float64) *LossyCounter[K] {
	if eps <= 0 || eps >= 1 {
		eps = 1e-4
	}
	w := int(1/eps) + 1
	return &LossyCounter[K]{eps: eps, width: w, bucket: 1, entries: map[K]lcEntry{}}
}

// Add records one occurrence of key.
func (c *LossyCounter[K]) Add(key K) {
	c.n++
	e, ok := c.entries[key]
	if !ok {
		e.delta = int64(c.bucket - 1)
	}
	e.count++
	c.entries[key] = e
	if c.n%int64(c.width) == 0 {
		c.prune()
	}
}

func (c *LossyCounter[K]) prune() {
	b := int64(c.bucket)
	for k, e := range c.entries {
		if e.count+e.delta <= b {
			delete(c.entries, k)
		}
	}
	c.bucket++
}

// N returns the number of items observed.
func (c *LossyCounter[K]) N() int64 { return c.n }

// Count returns the estimated frequency of key (lower bound; true
// frequency is within +eps·N of it), and whether the key is tracked.
func (c *LossyCounter[K]) Count(key K) (int64, bool) {
	e, ok := c.entries[key]
	return e.count, ok
}

// EntryCount returns the number of tracked entries (memory proxy).
func (c *LossyCounter[K]) EntryCount() int { return len(c.entries) }

// HeavyHitter is one reported frequent item.
type HeavyHitter[K cmp.Ordered] struct {
	Key  K
	Freq int64 // estimated frequency (count + delta upper bound)
}

// HeavyHitters returns all items whose estimated frequency exceeds
// s·N, sorted by decreasing frequency then key.
func (c *LossyCounter[K]) HeavyHitters(s float64) []HeavyHitter[K] {
	threshold := int64((s - c.eps) * float64(c.n))
	var out []HeavyHitter[K]
	for k, e := range c.entries {
		if e.count >= threshold && e.count > 0 {
			out = append(out, HeavyHitter[K]{Key: k, Freq: e.count + e.delta})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Key < out[j].Key
	})
	return out
}
