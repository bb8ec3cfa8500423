// Fixture for the slotdiscipline analyzer: metric-slot access inside
// the executor's parallel worker closures.
package exec

type op struct{}

func (op) Grow(n int)      {}
func (op) Slot(i int) *int { return nil }
func (op) Total() int      { return 0 }
func (op) AddWall(d int)   {}

type executor struct{}

func (*executor) parallel(n int, fn func(i int) error) error { return nil }

type chain struct{ ex *executor }

func region(ex *executor, o op, parts int) {
	o.Grow(parts) // coordinator side: legal
	_ = ex.parallel(parts, func(i int) error {
		o.Grow(parts) // want "coordinator"
		_ = o.Slot(i) // own partition index: legal
		_ = o.Slot(0) // want "partition index"
		j := i + 1
		_ = o.Slot(j) // want "partition index"
		_ = o.Total() // want "coordinator"
		o.AddWall(1)  // want "coordinator"
		return nil
	})
	_ = o.Total() // coordinator side after the join: legal
}

func nested(ex *executor, o op, parts int) {
	_ = ex.parallel(parts, func(pi int) error {
		// An inner fork/join region is governed by its own index.
		return ex.parallel(2, func(k int) error {
			_ = o.Slot(k)  // inner closure's own index: legal
			_ = o.Slot(pi) // want "partition index"
			return nil
		})
	})
}

func suppressed(ex *executor, o op, parts int) {
	_ = ex.parallel(parts, func(i int) error {
		//lint:ignore slotdiscipline single-partition fallback owns slot 0
		_ = o.Slot(0)
		return nil
	})
}

func field(cc *chain, o op, parts int) {
	_ = cc.ex.parallel(parts, func(t int) error {
		_ = o.Slot(t) // own task index: legal
		_ = o.Slot(0) // want "partition index"
		return nil
	})
}
