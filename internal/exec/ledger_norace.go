//go:build !race

package exec

// Released slabs are poisoned only under the race detector
// (ledger_race.go); here poison does nothing.
const poisonSlabs = false

func poison[T slabElem]([]T) {}
