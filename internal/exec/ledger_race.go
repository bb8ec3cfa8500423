//go:build race

package exec

import "math"

// Under the race detector a released slab is overwritten before it goes
// back to its pool, so a result that still reads a released slab (or a
// builder that writes one it no longer owns) differs from the answer a
// run on fresh memory gives, and the suites that compare answers fail.
const poisonSlabs = true

// poison fills s with a sentinel: an all-ones NaN for floats, 0x5A bytes
// for integers.
func poison[T slabElem](s []T) {
	var x T
	switch p := any(&x).(type) {
	case *float64:
		*p = math.Float64frombits(^uint64(0))
	case *int64:
		*p = 0x5A5A5A5A5A5A5A5A
	case *int32:
		*p = 0x5A5A5A5A
	case *uint64:
		*p = 0x5A5A5A5A5A5A5A5A
	}
	for i := range s {
		s[i] = x
	}
}
