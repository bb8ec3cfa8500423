package table

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Row is one tuple: a slice of values positionally aligned with a schema.
type Row []Value

// Clone returns a deep-enough copy of the row (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ByteSize approximates the serialized size of the row.
func (r Row) ByteSize() int {
	n := 0
	for _, v := range r {
		n += v.ByteSize()
	}
	return n
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered set of named, typed columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from (name, kind) pairs.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a BIGINT, b VARCHAR)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Table is an immutable in-memory table, horizontally split into
// partitions. Partitioning mimics the distributed file system layout:
// scans schedule one task per partition.
type Table struct {
	Name       string
	Schema     *Schema
	Partitions [][]Row

	// Lazily-built per-partition caches: a column-major mirror for the
	// vectorized executor (columnar.go) and summary statistics for the
	// optimizer's partition-selection pass (summary.go). One mutex
	// guards both so Append invalidates them atomically — a scan must
	// never observe a fresh columnar partition paired with a stale
	// summary or vice versa.
	cacheMu sync.Mutex
	// guarded-by: cacheMu
	derived []partCaches
	// version counts Appends; caches keyed outside the table (the
	// engine's sample cache) fold it into their keys so entries built
	// over older contents become unreachable. guarded-by: cacheMu
	version uint64
}

// New creates a table with the given number of empty partitions.
func New(name string, schema *Schema, parts int) *Table {
	if parts < 1 {
		parts = 1
	}
	return &Table{Name: name, Schema: schema, Partitions: make([][]Row, parts), derived: make([]partCaches, parts)}
}

// partCaches holds one partition's derived forms.
type partCaches struct {
	col lazyPart[ColPartition]
	sum lazyPart[PartitionSummary]
}

// lazyPart is one derived form of one partition, built on first use.
type lazyPart[T any] struct {
	// v is nil until built and again after an Append; the owning
	// table's cacheMu guards it.
	v *T
	// build is held while v is built, outside cacheMu: racing first
	// touches of one partition build it once, different partitions (and
	// the two forms of one partition) build in parallel, and no reader
	// of a built form waits behind a build.
	build sync.Mutex
}

// partBuildHook, when set by a test, runs inside a partition's build.
var partBuildHook func(part int)

func colPart(c *partCaches) *lazyPart[ColPartition]     { return &c.col }
func sumPart(c *partCaches) *lazyPart[PartitionSummary] { return &c.sum }

// derive returns the form of partition i that slot selects, building it
// with build (from the rows and the schema width) on first use. The
// build runs outside cacheMu, from a snapshot of the partition's rows
// (rows are immutable and Append only writes past the snapshot's end),
// and is published under it only if no Append landed meanwhile; either
// way the returned form is consistent with the rows it was built from.
func derive[T any](t *Table, i int, slot func(*partCaches) *lazyPart[T], build func([]Row, int) *T) *T {
	t.cacheMu.Lock()
	p := slot(&t.derived[i])
	v := p.v
	t.cacheMu.Unlock()
	if v != nil {
		return v
	}
	p.build.Lock()
	defer p.build.Unlock()
	t.cacheMu.Lock()
	v, rows := p.v, t.Partitions[i] // a racing first touch may have built it
	t.cacheMu.Unlock()
	if v != nil {
		return v
	}
	if partBuildHook != nil {
		partBuildHook(i)
	}
	v = build(rows, t.Schema.Len())
	t.cacheMu.Lock()
	if len(t.Partitions[i]) == len(rows) {
		p.v = v
	}
	t.cacheMu.Unlock()
	return v
}

// Append adds a row to partition i%len(partitions) (round-robin helper).
// The append and the invalidation of both derived caches share one
// critical section: a concurrent Columnar/Summary call can never pair
// the new row count with a stale cached form of either kind.
func (t *Table) Append(i int, r Row) {
	p := i % len(t.Partitions)
	t.cacheMu.Lock()
	t.Partitions[p] = append(t.Partitions[p], r)
	t.derived[p].col.v = nil
	t.derived[p].sum.v = nil
	t.version++
	t.cacheMu.Unlock()
}

// Version returns the table's append counter. Externally-keyed caches
// (the engine's materialized-sample cache) embed it in their keys, the
// same invalidation discipline the per-partition caches above get from
// Append's in-place nil-out.
func (t *Table) Version() uint64 {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	return t.version
}

// NumRows returns the total number of rows in the table.
func (t *Table) NumRows() int {
	n := 0
	for _, p := range t.Partitions {
		n += len(p)
	}
	return n
}

// ByteSize approximates the total stored bytes of the table.
func (t *Table) ByteSize() int64 {
	var n int64
	for _, p := range t.Partitions {
		for _, r := range p {
			n += int64(r.ByteSize())
		}
	}
	return n
}

// AllRows flattens the table into a single slice (test/debug helper).
func (t *Table) AllRows() []Row {
	out := make([]Row, 0, t.NumRows())
	for _, p := range t.Partitions {
		out = append(out, p...)
	}
	return out
}

// SortRows sorts a row slice lexicographically; used to compare result
// sets deterministically in tests and experiments.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return CompareRows(rows[i], rows[j]) < 0 })
}

// CompareRows lexicographically compares two rows.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// HashRow hashes the projection of row r onto column indexes idx, with a
// seed; used by exchanges and joins for partitioning. It is
// HashRowSeed folded through HashRowStep once per column, which is how
// columnar code computes the same digest from key vectors.
func HashRow(r Row, idx []int, seed uint64) uint64 {
	h := HashRowSeed(seed)
	for _, i := range idx {
		h = HashRowStep(h, r[i].Hash64())
	}
	return h
}

// HashRowSeed is HashRow's starting state for a seed.
func HashRowSeed(seed uint64) uint64 { return fnvOffset64 ^ seed*fnvPrime64 }

// HashRowStep folds one column's Hash64 into a HashRow state.
func HashRowStep(h, colHash uint64) uint64 { return (h ^ colHash) * fnvPrime64 }
