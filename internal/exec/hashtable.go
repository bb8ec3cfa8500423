package exec

// Open-addressing hash tables for the executor's hot paths. Two
// structures live here:
//
//   - hashIndex: a growable hash→dense-index table. Keys live in
//     caller-owned dense arrays; the table stores only hashes and entry
//     indexes, so a lookup of an already-seen key allocates nothing.
//     Equality is verified through a callback on hash collision.
//
//   - keyTable: the one key→id structure. It resolves the lanes of a
//     tuple of key vectors to dense ids in first-seen order under
//     Value.Key() equality, through a hashIndex over typed key columns
//     or, built once over a lone integer column of a narrow span, by
//     direct address: the aggregate's group table, its universe-subspace
//     table and its COUNT(DISTINCT) set, the distinct sampler's strata,
//     a window's partitions and a hash join's build side. A join's
//     table (joinTable) is a keyTable over its build keys plus row
//     chains by id, and its probes find their ids read-only.

import (
	"math"
	"math/bits"
	"slices"

	"quickr/internal/table"
)

// hashIndex is an open-addressing (linear probing, ≤50% load) table
// mapping 64-bit hashes to dense entry indexes 0..n-1. The caller keeps
// the actual keys in arrays parallel to the entry indexes and passes an
// equality callback to probe; insertion order is the entry order, so
// iteration over caller arrays is deterministic.
type hashIndex struct {
	mask  uint64
	shift uint8    // 64 − log2(len(slots)), for home
	slots []int32  // entry index +1; 0 = empty
	hash  []uint64 // per-slot hash, valid where slots != 0
	entry []uint64 // per-entry hash, for rehash on growth
}

// newHashIndex sizes the table for about hint entries (it grows as
// needed either way).
func newHashIndex(hint int) *hashIndex {
	capSlots := 8
	for capSlots < 2*hint {
		capSlots <<= 1
	}
	return &hashIndex{
		mask:  uint64(capSlots - 1),
		shift: uint8(bits.LeadingZeros64(uint64(capSlots - 1))),
		slots: make([]int32, capSlots),
		hash:  make([]uint64, capSlots),
		entry: make([]uint64, 0, hint),
	}
}

// len returns the number of entries.
func (t *hashIndex) len() int { return len(t.entry) }

// home is the slot a probe for h starts from: the top bits of h times
// 2^64/φ, which depend on every bit of h. The tables of one exchange
// destination meet only hashes equal modulo the destination count, so
// the low bits the routing consumed would crowd a few slots, and the
// high half alone varies too little across short strings (FNV-1a moves
// the middle bits little on a last byte).
func (t *hashIndex) home(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> t.shift }

// probe returns the entry index whose hash is h and for which eq
// reports a true key match, or -1. eq only runs on slots with an exact
// hash match, so with a sound hash it is rarely called more than once.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkGroupedAgg, BenchmarkJoinSparseKeys).
func (t *hashIndex) probe(h uint64, eq func(int) bool) int {
	//lint:ignore ctxflow open-addressing probe; load factor < 1/2 guarantees a vacant slot within one wrap
	for s := t.home(h); ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			return -1
		}
		if t.hash[s] == h && eq(int(e-1)) {
			return int(e - 1)
		}
	}
}

// add inserts the next dense entry index under hash h (call after a
// failed probe) and returns it.
func (t *hashIndex) add(h uint64) int {
	if 2*(len(t.entry)+1) > len(t.slots) {
		t.grow()
	}
	t.entry = append(t.entry, h)
	e := len(t.entry) // stored +1
	//lint:ignore ctxflow open-addressing insert; grow() above keeps a vacant slot reachable
	for s := t.home(h); ; s = (s + 1) & t.mask {
		if t.slots[s] == 0 {
			t.slots[s] = int32(e)
			t.hash[s] = h
			return e - 1
		}
	}
}

// grow doubles the slot directory and reinserts every entry.
func (t *hashIndex) grow() {
	capSlots := 2 * len(t.slots)
	t.mask = uint64(capSlots - 1)
	t.shift--
	t.slots = make([]int32, capSlots)
	t.hash = make([]uint64, capSlots)
	for i, h := range t.entry {
		//lint:ignore ctxflow open-addressing reinsert into a freshly doubled (half-empty) directory
		for s := t.home(h); ; s = (s + 1) & t.mask {
			if t.slots[s] == 0 {
				t.slots[s] = int32(i + 1)
				t.hash[s] = h
				break
			}
		}
	}
}

// keyTable hands out dense ids, in first-seen order, to the distinct
// tuples a set of key vectors takes, under Value.Key() equality: NULL is
// a key and an integral float is the equal int's key. The hash is
// hashKeys' under exchangeHashSeed (Hash64 equality is implied by Key()
// equality), so lanes an exchange routed on the same keys arrive with
// their hashes; the keys live in one typed column per key vector, lane =
// id, as first seen.
//
// Keys that are all dictionary strings and bools resolve once per
// combination of codes (comboID, reset when a batch's dictionaries are
// other ones), NULL-free integer keys probe without a callback
// (probeInts); everything else hashes batch-wise and compares lanes
// through keyLanesEqual. A table newKeyIndex builds over a lone integer
// column of a narrow span is the fourth path: it has no idx, and key k's
// id is slot[k−lo]−1.
//
// resolve inserts; find only reads, so once resolve has returned any
// number of goroutines may find in one table at once.
type keyTable struct {
	idx  *hashIndex   // nil on a direct-address table
	cols []vecBuilder // the keys
	// keys is cols as vectors, refreshed (refresh) once resolve has
	// inserted.
	keys  []table.Vector
	stale bool
	// A direct-address table's ids by key − lo, +1; 0 = not met.
	lo   int64
	slot []int32
	// comboID maps a combination of key codes (code 0 = NULL, each key a
	// digit of base radix) to its id, -1 = not met yet; it holds for the
	// key kinds and dictionaries in coding.
	coding  []table.Vector
	radix   []int
	comboID []int32
	hashes  []uint64 // per-lane scratch
	one     [1]int32
	fresh   []int32 // the first lanes of the tuples resolve is inserting
}

// newKeyTable keeps its keys on mem.
func newKeyTable(mem *ledger, width int) *keyTable {
	t := &keyTable{idx: newHashIndex(16), cols: make([]vecBuilder, width), keys: make([]table.Vector, width)}
	for c := range t.cols {
		t.cols[c].mem = mem
	}
	return t
}

// newKeyIndex builds a keyTable over the listed lanes of whole key
// columns, writing each lane's id to ids by lane. A lone integer key
// whose listed lanes are not NULL and span fewer than max(8·rows, 4096)
// values (the span taken unsigned, as keys near MinInt64 and MaxInt64
// overflow a signed difference) is indexed by direct address, and
// nothing hashes. The bound is a memory rule: a slot costs 4 B, so at
// most 32 B a row (or 16 KiB), where a hashIndex costs at least 40 B a
// key (an entry hash and two slots). Any other keys resolve through a
// hashIndex, and into key columns, sized for the lanes, so neither
// grows, and string keys share their column's dictionary.
func newKeyIndex(mem *ledger, ids []int64, keys []table.Vector, lanes []int32) *keyTable {
	if len(keys) == 1 && keys[0].K == table.VKInt {
		v := &keys[0]
		lo, hi, direct := int64(math.MaxInt64), int64(math.MinInt64), true
		for _, i := range lanes {
			if v.Nulls != nil && v.IsNull(int(i)) {
				direct = false
				break
			}
			lo, hi = min(lo, v.Ints[i]), max(hi, v.Ints[i])
		}
		if direct && (lo > hi || uint64(hi)-uint64(lo) < uint64(max(8*v.N, 4096))) {
			return directKeyTable(mem, ids, keys, lanes, lo, hi)
		}
	}
	t := newKeyTable(mem, len(keys))
	t.idx = newHashIndex(len(lanes))
	for k := range keys {
		t.cols[k].hint = len(lanes)
		if keys[k].K == table.VKStr {
			// The column's own dictionary: the keys share it, not
			// re-interning each string.
			t.cols[k].setSource(keys[k].Dict, true)
		}
	}
	t.resolve(ids, keys, lanes, nil)
	return t
}

// directKeyTable is newKeyIndex's direct-address table over the listed
// lanes of the lone integer key keys[0], whose keys lie in [lo, hi]: ids
// go to keys in first-seen order through slot.
func directKeyTable(mem *ledger, ids []int64, keys []table.Vector, lanes []int32, lo, hi int64) *keyTable {
	// There are no more keys than lanes, so the key column never moves.
	col := vecBuilder{mem: mem, k: table.VKInt, ints: slab[int64](mem, len(lanes))[:0]}
	t := &keyTable{cols: []vecBuilder{col}, keys: make([]table.Vector, 1), lo: lo}
	if lo <= hi {
		t.slot = slab[int32](mem, int(uint64(hi)-uint64(lo))+1)
		clear(t.slot)
	}
	v, c := &keys[0], &t.cols[0]
	for _, i := range lanes {
		s := &t.slot[uint64(v.Ints[i])-uint64(lo)]
		if *s == 0 {
			c.ints = append(c.ints, v.Ints[i])
			*s = int32(len(c.ints))
		}
		ids[i] = int64(*s - 1)
	}
	c.n = len(c.ints)
	t.refresh()
	return t
}

// coded reports whether every key is a dictionary string or a bool and
// their code combinations fit comboID (at most 4096, or one string
// key's dictionary), and makes comboID translate the keys' codes.
func (t *keyTable) coded(keys []table.Vector) bool {
	same, size := len(t.coding) == len(keys), 1
	t.radix = t.radix[:0]
	for k := range keys {
		v, r := &keys[k], 3 // a bool's NULL, false, true
		if v.K == table.VKStr {
			r = len(v.Dict) + 1
		} else if v.K != table.VKBool {
			return false
		}
		if size *= r; size > 1<<12 && len(keys) > 1 {
			return false
		}
		t.radix = append(t.radix, r)
		same = same && t.coding[k].K == v.K && sameDict(t.coding[k].Dict, v.Dict)
	}
	if !same {
		t.coding = t.coding[:0]
		for k := range keys {
			t.coding = append(t.coding, table.Vector{K: keys[k].K, Dict: keys[k].Dict})
		}
		t.comboID = slices.Grow(t.comboID[:0], size)[:size]
		for c := range t.comboID {
			t.comboID[c] = -1
		}
	}
	return true
}

// len returns the number of ids handed out.
func (t *keyTable) len() int {
	if t.idx == nil {
		return t.cols[0].n
	}
	return t.idx.len()
}

// resolve writes the id of every listed lane of keys into ids, indexed
// by lane, inserting the tuples it has not met. hashes, when not nil,
// holds the lanes' hashes by lane (hashKeys of keys under
// exchangeHashSeed), and resolve hashes nothing itself.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkGroupedAgg, BenchmarkAggDictKey, BenchmarkAggIntKeys,
// BenchmarkDistinctSample; BenchmarkCmpIntCols for the empty key).
func (t *keyTable) resolve(ids []int64, keys []table.Vector, lanes []int32, hashes []uint64) {
	if len(keys) == 0 || len(lanes) == 0 {
		// The empty tuple is one key.
		if t.len() == 0 && len(lanes) > 0 {
			t.idx.add(table.HashRowSeed(exchangeHashSeed))
		}
		for _, i := range lanes {
			ids[i] = 0
		}
		return
	}
	v, n0 := &keys[0], t.len()
	own := hashes == nil
	if own {
		if cap(t.hashes) < v.N {
			t.hashes = make([]uint64, v.N)
		}
		hashes = t.hashes[:v.N]
	}
	switch {
	case t.coded(keys):
		for _, i := range lanes {
			c := int(v.Ints[i]) + 1
			if v.Nulls != nil && v.IsNull(int(i)) {
				c = 0 // NULL
			}
			for k := 1; k < len(keys); k++ {
				kv, code := &keys[k], int(keys[k].Ints[i])+1
				if kv.Nulls != nil && kv.IsNull(int(i)) {
					code = 0
				}
				c = c*t.radix[k] + code
			}
			id := &t.comboID[c]
			if *id < 0 {
				if own {
					t.one[0] = i
					hashKeys(hashes, keys, nil, exchangeHashSeed, t.one[:], 0)
				}
				*id = int32(t.lookup(keys, int(i), hashes[i], n0))
			}
			ids[i] = int64(*id)
		}
	case t.allInts(keys):
		if own {
			h0 := table.HashRowSeed(exchangeHashSeed)
			for _, i := range lanes {
				h := h0
				for k := range keys {
					h = table.HashRowStep(h, table.HashInt(keys[k].Ints[i]))
				}
				hashes[i] = h
			}
		}
		for _, i := range lanes {
			e := t.probeInts(hashes[i], keys, int(i))
			if e < 0 {
				t.appendInts(keys, int(i))
				e = t.idx.add(hashes[i])
			}
			ids[i] = int64(e)
		}
	default:
		if own {
			hashKeys(hashes, keys, nil, exchangeHashSeed, lanes, 0)
		}
		for _, i := range lanes {
			ids[i] = int64(t.lookup(keys, int(i), hashes[i], n0))
		}
	}
	if len(t.fresh) > 0 {
		for k := range keys {
			t.cols[k].appendSel(&keys[k], t.fresh)
		}
		t.fresh, t.stale = t.fresh[:0], true
	}
	if t.stale {
		t.refresh()
	}
}

// allInts reports whether keys and the keys met so far are all NULL-free
// integers, which probeInts compares payload to payload.
func (t *keyTable) allInts(keys []table.Vector) bool {
	for k := range keys {
		v, stored := &keys[k], &t.cols[k]
		if v.K != table.VKInt || v.Nulls != nil || stored.anyNull || (stored.k != table.VKInt && stored.n > 0) {
			return false
		}
	}
	return true
}

// probeInts is hashIndex.probe for allInts keys, without the callback.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkAggIntKeys).
func (t *keyTable) probeInts(h uint64, keys []table.Vector, i int) int {
	x := t.idx
	//lint:ignore ctxflow open-addressing probe; load factor < 1/2 guarantees a vacant slot within one wrap
	for s := x.home(h); ; s = (s + 1) & x.mask {
		e := int(x.slots[s]) - 1
		if e < 0 {
			return -1
		}
		k := 0
		for x.hash[s] == h && k < len(keys) && t.cols[k].ints[e] == keys[k].Ints[i] {
			k++
		}
		if k == len(keys) {
			return e
		}
	}
}

// lookup returns the id of lane i of keys, whose hash is h, handing
// the next id to a tuple the table has not met. A tuple this resolve
// met first, at id n0 or later, is compared at its first lane in keys
// (fresh, by id − n0) and reaches the key columns when resolve returns,
// so the key vectors are refreshed once per resolve, not per insert.
func (t *keyTable) lookup(keys []table.Vector, i int, h uint64, n0 int) int {
	e := t.idx.probe(h, func(e int) bool {
		if e >= n0 {
			return keyLanesEqual(keys, int(t.fresh[e-n0]), keys, i)
		}
		return keyLanesEqual(t.keys, e, keys, i)
	})
	if e < 0 {
		t.fresh = append(t.fresh, int32(i))
		e = t.idx.add(h)
	}
	return e
}

// appendInts appends lane i of NULL-free integer keys to the key
// columns, each payload to its column's integers directly.
func (t *keyTable) appendInts(keys []table.Vector, i int) {
	for k := range keys {
		c := &t.cols[k]
		if c.k == table.VKNull {
			c.adopt(table.VKInt)
		}
		c.ints = grow(c.mem, c.ints, 1)
		c.ints[len(c.ints)-1] = keys[k].Ints[i]
		c.n++
	}
	t.stale = true
}

// find writes to ids, by lane, the id of every lane lanes lists of the
// key tuple keys, or −1 where the table has not met the tuple. hashes
// holds the lanes' hashes by lane (hashKeys of keys under
// exchangeHashSeed); a direct-address table reads none and checks one
// unsigned bound a lane. find inserts, refreshes and borrows nothing,
// so concurrent finds in one table are safe once resolve has returned.
//
// TestHotPathAllocCeilings holds its allocations per run (the
// BenchmarkJoin* plans, BenchmarkStarJoin, BenchmarkCrossJoin).
func (t *keyTable) find(ids []int64, keys []table.Vector, lanes []int32, hashes []uint64) {
	switch {
	case len(keys) == 0: // the empty tuple is id 0 once met
		for _, i := range lanes {
			ids[i] = int64(t.len()) - 1
		}
	case t.idx == nil:
		v, slot, lo := &keys[0], t.slot, uint64(t.lo)
		for _, i := range lanes {
			id := int64(-1)
			if d := uint64(v.Ints[i]) - lo; d < uint64(len(slot)) {
				id = int64(slot[d]) - 1
			}
			ids[i] = id
		}
	case t.allInts(keys):
		for _, i := range lanes {
			ids[i] = int64(t.probeInts(hashes[i], keys, int(i)))
		}
	default:
		for _, i := range lanes {
			ids[i] = int64(t.idx.probe(hashes[i], func(e int) bool { return keyLanesEqual(t.keys, e, keys, int(i)) }))
		}
	}
}

// refresh brings keys up to date with cols after inserts.
func (t *keyTable) refresh() {
	for k := range t.cols {
		t.keys[k] = t.cols[k].build()
	}
	t.stale = false
}

// keyLanesEqual reports whether lane i of every a[k] and lane j of b[k]
// have equal Value.Key() forms.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkGroupedAgg, BenchmarkAggFloatKey).
func keyLanesEqual(a []table.Vector, i int, b []table.Vector, j int) bool {
	for k := range a {
		av, bv := &a[k], &b[k]
		if av.K != bv.K || (av.K != table.VKInt && av.K != table.VKStr && av.K != table.VKBool) {
			if !av.Value(i).KeyEqual(bv.Value(j)) {
				return false
			}
			continue
		}
		an, bn := av.Nulls != nil && av.IsNull(i), bv.Nulls != nil && bv.IsNull(j)
		switch {
		case an || bn:
			if an != bn {
				return false
			}
		case av.K == table.VKStr:
			if av.Dict[av.Ints[i]] != bv.Dict[bv.Ints[j]] {
				return false
			}
		case av.Ints[i] != bv.Ints[j]:
			return false
		}
	}
	return true
}

// joinTable is the build side of a hash join, built once over one build
// partition and then shared read-only by every task that probes it. keys
// holds the build rows' join keys in joinKeys' form; head[id] is the
// first build row holding key id and next[r] the row after r on its
// key's chain (−1 ends a chain). Chains run in build-row order, which
// fixes the order of the probe's output. A probe finds its lanes' ids in
// keys and gathers its output from cols and w by build-row index.
type joinTable struct {
	cols []table.Vector // every build column
	w    []float64      // build-row weights
	keys *keyTable
	head []int32
	next []int32
}

// buildJoinTable builds the table over the keyIdx columns of the build
// partition, keyed in the forms given, its payloads on mem: a
// direct-address keyTable where newKeyIndex takes the keys, a hashed one
// otherwise.
func buildJoinTable(mem *ledger, build *Part, keyIdx []int, forms []keyForm) *joinTable {
	t := &joinTable{cols: build.Cols, w: build.W}
	all := slab[int32](mem, build.N)
	for i := range all {
		all[i] = int32(i)
	}
	jk := newJoinKeys(forms)
	lanes := jk.set(t.cols, keyIdx, all)
	ids := slab[int64](mem, build.N)
	t.keys = newKeyIndex(mem, ids, jk.keys, lanes)
	t.thread(mem, ids, lanes)
	return t
}

// thread hangs each listed build row r on the chain of its key id
// ids[r] (ids holds every build row), back to front so that every chain
// runs in build-row order. A row that is not listed sits on no chain.
func (t *joinTable) thread(mem *ledger, ids []int64, lanes []int32) {
	t.head, t.next = slab[int32](mem, t.keys.len()), slab[int32](mem, len(ids))
	for id := range t.head {
		t.head[id] = -1
	}
	for r := range t.next {
		t.next[r] = -1
	}
	for j := len(lanes) - 1; j >= 0; j-- {
		r := lanes[j]
		t.next[r], t.head[ids[r]] = t.head[ids[r]], r
	}
}

// keyForm is how a join key column reaches joinKeys' form, fixed by the
// declared kinds of its key pair (joinKeyForms). Integer, string and
// bool keys paired with keys of their kind pass as they are. A key pair
// with a Float side is keyed in float space, as Value.Equal compares
// it: a Float key by its bits, −0 read as +0, and an Int key by the bits
// of its conversion to float. The binder pairs no other kinds.
type keyForm uint8

const (
	formAsIs keyForm = iota
	formBits
	formIntBits
)

// joinKeyForms returns the forms of the key pairs whose declared kinds
// are left and right, side by side.
func joinKeyForms(left, right []table.Kind) (lf, rf []keyForm) {
	lf, rf = make([]keyForm, len(left)), make([]keyForm, len(left))
	for k, lk := range left {
		if rk := right[k]; lk == table.KindFloat || rk == table.KindFloat {
			lf[k], rf[k] = formBits, formBits
			if lk == table.KindInt {
				lf[k] = formIntBits
			}
			if rk == table.KindInt {
				rf[k] = formIntBits
			}
		}
	}
	return lf, rf
}

// joinKeys holds one join input's key vectors in their forms, under
// which keyTable's equality is the join's equality (both keys not NULL
// and Value.Equal), and the lanes that can match. A lane with a NULL or
// a NaN in any key matches nothing and is left out. A key keyed in float
// space becomes an integer vector of float bits.
type joinKeys struct {
	forms []keyForm
	keys  []table.Vector
	lanes []int32
	ints  [][]int64 // the float bits of keys keyed in float space, by key
}

func newJoinKeys(forms []keyForm) joinKeys {
	return joinKeys{forms: forms, keys: make([]table.Vector, len(forms)), ints: make([][]int64, len(forms))}
}

// set takes the key columns idx of cols over the live lanes sel and
// returns the lanes that can match: sel itself when all of them can.
//
// TestHotPathAllocCeilings holds its allocations per run
// (BenchmarkJoinNullKeys).
func (jk *joinKeys) set(cols []table.Vector, idx []int, sel []int32) []int32 {
	lanes := sel
	for k, ci := range idx {
		v := &cols[ci]
		jk.keys[k] = *v
		switch {
		case v.K == table.VKNull:
			lanes = jk.lanes[:0]
		case jk.forms[k] != formAsIs:
			ints, kept, widen := extend(jk.ints[k][:0], v.N), jk.lanes[:0], jk.forms[k] == formIntBits
			for _, i := range lanes {
				var f float64
				switch {
				case v.Nulls != nil && v.IsNull(int(i)):
					continue
				case widen:
					f = float64(v.Ints[i])
				default:
					if f = v.Floats[i]; f != f {
						continue
					}
					if f == 0 {
						f = 0 // −0 keys as +0
					}
				}
				ints[i] = int64(math.Float64bits(f))
				kept = append(kept, i)
			}
			jk.ints[k], jk.keys[k], lanes = ints, table.Vector{K: table.VKInt, N: v.N, Ints: ints}, kept
		case v.Nulls != nil:
			kept := jk.lanes[:0]
			for _, i := range lanes {
				if !v.IsNull(int(i)) {
					kept = append(kept, i)
				}
			}
			lanes = kept
		default:
			continue // every lane can match; jk.lanes must not alias sel
		}
		jk.lanes = lanes
	}
	return lanes
}
