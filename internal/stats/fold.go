package stats

// The column fold, typed by the column vector. Each kernel leaves the
// state the row-wise pass (ref_test.go) leaves after the same lanes:
// lossy-counting adds commute between prunes and the KMV is a set plus
// a count, so dictionary codes are counted per prune window; float sums
// and min/max (NaN) run in lane order; int and string min/max are total
// orders, merged per block.

import (
	"strings"

	"quickr/internal/sketch"
	"quickr/internal/table"
)

// colAcc accumulates one column.
type colAcc struct {
	kmv        *sketch.KMV
	lossy      *sketch.LossyCounter[table.Ident]
	sum, sumsq float64
	cnt, nulls int64
	min, max   table.Value
}

// newColAcc's lossy counter counts Value.Idents, never rendered keys,
// and breaks heavy-hitter ties in Value.Key order.
func newColAcc() colAcc {
	byKey := func(a, b table.Ident) int { return strings.Compare(a.Value().Key(), b.Value().Key()) }
	return colAcc{kmv: sketch.NewKMV(1024), lossy: sketch.NewLossyCounterFunc(lossyEps, byKey), min: table.Null, max: table.Null}
}

// folder is one fold task's scratch, dropped when the task ends.
type folder struct {
	buf   []byte  // the key being hashed
	win   []int64 // a code's lanes in this prune window (0 between)
	codes []int32 // the codes win counts
}

// fold adds lanes [lo, hi) of cv, a stored column: the kernels index
// its NULL bitmap by lane, which holds because stored vectors are never
// slices (NullOff is 0).
func (a *colAcc) fold(cv *table.Vector, lo, hi int, f *folder) {
	switch {
	case cv.K == table.VKNull:
		a.nulls += int64(hi - lo)
	case cv.K == table.VKInt:
		a.foldInts(cv, lo, hi, f)
	case cv.K == table.VKFloat:
		a.foldFloats(cv, lo, hi, f)
	case cv.K == table.VKBool:
		a.foldCodes(cv, lo, hi, 2, f)
	case hi-lo >= len(cv.Dict):
		a.foldCodes(cv, lo, hi, len(cv.Dict), f)
	default: // a tail shorter than its dictionary
		a.foldLanes(cv, lo, hi, f)
	}
}

// bound folds v into min and max.
func (a *colAcc) bound(v table.Value) {
	if a.min.IsNull() || v.Compare(a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || v.Compare(a.max) > 0 {
		a.max = v
	}
}

// foldLanes is the kernel for short dictionary tails: lane by lane,
// through Value.
//
// TestCollectAllocCeiling holds its allocations per extension.
func (a *colAcc) foldLanes(cv *table.Vector, lo, hi int, f *folder) {
	for i := lo; i < hi; i++ {
		v := cv.Value(i)
		if v.IsNull() {
			a.nulls++
			continue
		}
		f.buf = v.AppendKey(f.buf[:0])
		a.kmv.AddKey(f.buf, 1)
		a.lossy.Add(v.Ident())
		a.bound(v)
	}
}

// foldInts is the kernel for integer columns; min/max merge per block.
//
// TestCollectAllocCeiling holds its allocations per folded lane.
func (a *colAcc) foldInts(cv *table.Vector, lo, hi int, f *folder) {
	xs, nulls, buf := cv.Ints, cv.Nulls, f.buf
	mn, mx, seen := int64(0), int64(0), false
	for i := lo; i < hi; i++ {
		if nulls != nil && nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			a.nulls++
			continue
		}
		x := xs[i]
		buf = table.NewInt(x).AppendKey(buf[:0])
		a.kmv.AddKey(buf, 1)
		a.lossy.Add(table.NewInt(x).Ident())
		fx := float64(x)
		a.sum += fx
		a.sumsq += fx * fx
		a.cnt++
		switch {
		case !seen:
			mn, mx, seen = x, x, true
		case x < mn:
			mn = x
		case x > mx:
			mx = x
		}
	}
	f.buf = buf
	if seen {
		a.bound(table.NewInt(mn))
		a.bound(table.NewInt(mx))
	}
}

// foldFloats is the kernel for float columns; min/max run in lane order.
//
// TestCollectAllocCeiling holds its allocations per folded lane.
func (a *colAcc) foldFloats(cv *table.Vector, lo, hi int, f *folder) {
	xs, nulls, buf := cv.Floats, cv.Nulls, f.buf
	// Typed bounds while both are floats (or unset), else Compare.
	kind := a.min.Kind()
	typed := kind == a.max.Kind() && (kind == table.KindNull || kind == table.KindFloat)
	mn, mx, seen := a.min.Float(), a.max.Float(), !a.min.IsNull()
	for i := lo; i < hi; i++ {
		if nulls != nil && nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			a.nulls++
			continue
		}
		x := xs[i]
		buf = table.NewFloat(x).AppendKey(buf[:0])
		a.kmv.AddKey(buf, 1)
		a.lossy.Add(table.NewFloat(x).Ident())
		a.sum += x
		a.sumsq += x * x
		a.cnt++
		switch {
		case !typed:
			a.bound(table.NewFloat(x))
		case !seen:
			mn, mx, seen = x, x, true
		case x < mn: // never both: mn ≤ mx, or both NaN
			mn = x
		case x > mx:
			mx = x
		}
	}
	f.buf = buf
	if typed && seen {
		a.min, a.max = table.NewFloat(mn), table.NewFloat(mx)
	}
}

// foldCodes is the kernel for dictionary strings and booleans, whose
// lanes are codes below n: per lane a NULL test and a count; per code
// and prune window one lossy add, one KMV add and one min/max step.
func (a *colAcc) foldCodes(cv *table.Vector, lo, hi, n int, f *folder) {
	if len(f.win) < n {
		f.win = make([]int64, n)
	}
	for lo < hi {
		var nulls int64
		lo, nulls = f.countWindow(cv.Ints, cv.Nulls, lo, hi, a.lossy.Room())
		a.nulls += nulls
		for _, c := range f.codes {
			v := table.NewBool(c != 0)
			if cv.K == table.VKStr {
				v = table.NewString(cv.Dict[c])
			}
			a.lossy.AddN(v.Ident(), f.win[c])
			f.buf = v.AppendKey(f.buf[:0])
			a.kmv.AddKey(f.buf, f.win[c])
			a.bound(v)
			f.win[c] = 0
		}
		f.codes = f.codes[:0]
	}
}

// countWindow counts the codes of lanes from lo on, stopping at hi or
// after room non-NULL lanes, and returns where it stopped and how many
// NULL lanes it passed.
//
// TestCollectAllocCeiling holds its allocations per folded lane.
func (f *folder) countWindow(codes []int64, nulls []uint64, lo, hi int, room int64) (i int, nullLanes int64) {
	win, touched := f.win, f.codes
	for i = lo; i < hi && room > 0; i++ {
		if nulls != nil && nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			nullLanes++
			continue
		}
		c := codes[i]
		if win[c] == 0 {
			touched = append(touched, int32(c))
		}
		win[c]++
		room--
	}
	f.codes = touched
	return i, nullLanes
}
