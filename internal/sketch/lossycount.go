// Package sketch provides the streaming summaries Quickr relies on: a
// Manku–Motwani lossy-counting heavy-hitter sketch (used by the distinct
// sampler, §4.1.2, and table statistics, Table 2) and a KMV distinct-value
// estimator (Table 2).
package sketch

import (
	"cmp"
	"maps"
	"slices"
)

// LossyCounter identifies heavy hitters in one pass using memory
// O(1/eps · log(eps·N)) (Manku & Motwani, VLDB 2002). For an input of
// size N it reports every item with frequency above s·N and estimates
// frequencies to within ±eps·N of truth. The paper uses eps=1e-4, s=1e-2
// for a ~20MB footprint at N=1e10 rows (§4.1.2). Keys are typed value
// identities (statistics) or dense stratum ids (the distinct sampler).
// Adds between two prunes commute, so a caller may count a window of
// adds itself and hand over the totals (Room, AddN).
type LossyCounter[K comparable] struct {
	eps     float64
	width   int // bucket width ⌈1/eps⌉
	bucket  int // current bucket id
	n       int64
	entries map[K]lcEntry
	peak    int              // the most entries the map has held since it was built
	order   func(a, b K) int // breaks frequency ties in HeavyHitters
}

type lcEntry struct {
	count int64
	delta int64
}

// NewLossyCounter creates a sketch with error bound eps (0 < eps < 1).
func NewLossyCounter[K cmp.Ordered](eps float64) *LossyCounter[K] {
	return NewLossyCounterFunc(eps, cmp.Compare[K])
}

// NewLossyCounterFunc creates a sketch whose HeavyHitters break ties by order.
func NewLossyCounterFunc[K comparable](eps float64, order func(a, b K) int) *LossyCounter[K] {
	if eps <= 0 || eps >= 1 {
		eps = 1e-4
	}
	w := int(1/eps) + 1
	return &LossyCounter[K]{eps: eps, width: w, bucket: 1, entries: map[K]lcEntry{}, order: order}
}

// Add records one occurrence of key.
func (c *LossyCounter[K]) Add(key K) { c.AddN(key, 1) }

// Room returns how many adds are left before the next prune.
func (c *LossyCounter[K]) Room() int64 { return int64(c.width) - c.n%int64(c.width) }

// AddN records cnt occurrences of key, as cnt calls of Add would; cnt
// must not exceed Room, so a counted window ends where Add would prune.
func (c *LossyCounter[K]) AddN(key K, cnt int64) {
	room := c.Room()
	if cnt > room {
		panic("sketch: AddN past a prune")
	}
	c.n += cnt
	e, ok := c.entries[key]
	if !ok {
		e.delta = int64(c.bucket - 1)
	}
	e.count += cnt
	c.entries[key] = e
	if cnt == room {
		c.prune()
	}
}

func (c *LossyCounter[K]) prune() {
	b := int64(c.bucket)
	c.peak = max(c.peak, len(c.entries))
	for k, e := range c.entries {
		if e.count+e.delta <= b {
			delete(c.entries, k)
		}
	}
	c.bucket++
}

// Compact rebuilds the map once prunes left it under a quarter full.
func (c *LossyCounter[K]) Compact() {
	if 4*len(c.entries) < max(c.peak, len(c.entries)) {
		c.entries, c.peak = maps.Clone(c.entries), len(c.entries)
	}
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
type HeavyHitter[K comparable] struct {
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
	slices.SortFunc(out, func(a, b HeavyHitter[K]) int {
		if a.Freq != b.Freq {
			return cmp.Compare(b.Freq, a.Freq)
		}
		return c.order(a.Key, b.Key)
	})
	return out
}
