package table

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Fit returns v as a value of column c: NULL fits every column, a value
// of the column's kind fits as it is, and an int widens into a Float
// column. Any other value does not fit (false).
func (s *Schema) Fit(c int, v Value) (Value, bool) {
	switch k := s.Cols[c].Kind; {
	case v.kind == k || v.kind == KindNull:
		return v, true
	case v.kind == KindInt && k == KindFloat:
		return NewFloat(float64(v.i)), true
	}
	return v, false
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

// Table is an in-memory table, horizontally split into partitions.
// Partitioning mimics the distributed file system layout: scans schedule
// one task per partition.
//
// The column vectors are the table. Each partition is one published,
// immutable *ColPartition snapshot (what Columnar returns and scans
// slice) plus an unsealed tail: the rows appended since the partition
// was last read. Append pushes onto the tail in O(1); the next read
// seals the tail into the columns in O(tail), publishes a new snapshot
// header and drops the tail's rows (seal.go). A snapshot handed out
// earlier stays valid and unchanged for as long as it is held.
//
// Seal on read only, never on a row count: a table that was never read
// holds every appended row in Partitions.
type Table struct {
	Name   string
	Schema *Schema
	// Partitions[p] is partition p's unsealed tail, not its contents:
	// read rows through Rows. len(Partitions) is the partition count and
	// never changes.
	// guarded-by: cacheMu
	Partitions [][]Row

	// cacheMu guards the tails and the snap field of every parts[p].
	// Append and publishing a snapshot each take it once, so a reader
	// never pairs a snapshot with a tail of another generation. `make
	// quickrlint` (lockdiscipline) holds every access to a field
	// annotated guarded-by in this package to it.
	cacheMu sync.Mutex
	parts   []partState
	// version counts Appends; what is derived from the contents outside
	// the table (the statistics store, the engine's sample cache) keys
	// on it, so nothing built over older contents is served. Written
	// under cacheMu with the tail push, read without it.
	version atomic.Uint64
}

// New creates a table with the given number of empty partitions.
func New(name string, schema *Schema, parts int) *Table {
	if parts < 1 {
		parts = 1
	}
	return &Table{Name: name, Schema: schema, Partitions: make([][]Row, parts), parts: make([]partState, parts)}
}

// partState is the stored form of one partition beside its tail.
type partState struct {
	// snap is the published snapshot, nil until the first read. The
	// owning table's cacheMu guards it.
	snap *ColPartition
	// seal is held while the tail is sealed, outside cacheMu: racing
	// reads of one partition do the work once, different partitions
	// work in parallel, and no reader of a published snapshot waits
	// behind a seal.
	seal sync.Mutex
	// grow is the sealer's private handle on the snapshot's columns
	// (seal.go); only the holder of seal touches it.
	grow []colGrow
}

// partBuildHook, when set by a test, runs inside a partition's seal.
var partBuildHook func(part int)

// Append adds a row to the tail of partition i%len(partitions)
// (round-robin helper) and bumps the version, in one critical section:
// a reader that sees the new version finds the row in the tail or in a
// snapshot. The row holds at most one value per schema column (missing
// trailing values read as NULL), each fitting its column by Schema.Fit;
// an int bound for a Float column is widened in r. A value that does
// not fit panics: the edges (Engine.Insert, LoadCSV) return a kind
// error before they append, so a mismatch here is a programmer error.
func (t *Table) Append(i int, r Row) {
	for c, v := range r {
		if v.kind != t.Schema.Cols[c].Kind {
			w, ok := t.Schema.Fit(c, v)
			if !ok {
				panic(fmt.Sprintf("table %s: %s value in %s column %s", t.Name, v.kind, t.Schema.Cols[c].Kind, t.Schema.Cols[c].Name))
			}
			r[c] = w
		}
	}
	p := i % len(t.parts)
	t.cacheMu.Lock()
	t.Partitions[p] = append(t.Partitions[p], r)
	t.version.Add(1)
	t.cacheMu.Unlock()
}

// Version returns the table's append counter: equal versions mean equal
// contents.
func (t *Table) Version() uint64 { return t.version.Load() }

// NumRows returns the total number of rows in the table, sealed and
// unsealed.
func (t *Table) NumRows() int {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	n := 0
	for p := range t.parts {
		if s := t.parts[p].snap; s != nil {
			n += s.NumRows
		}
		n += len(t.Partitions[p])
	}
	return n
}

// ByteSize approximates the total stored bytes of the table: the sum of
// Row.ByteSize over every row appended.
func (t *Table) ByteSize() int64 {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	var n int64
	for p := range t.parts {
		if s := t.parts[p].snap; s != nil {
			n += s.Bytes
		}
		n += rowsBytes(t.Partitions[p])
	}
	return n
}

func rowsBytes(rows []Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.ByteSize())
	}
	return n
}

// Rows materializes partition i as rows, in append order: the sealed
// lanes rebuilt through RowsOf, then the tail. A sealed row is
// schema-wide (Columnarize pads a short row with NULLs). It does not
// seal, and the result is the caller's.
func (t *Table) Rows(i int) []Row {
	t.cacheMu.Lock()
	snap, tail := t.parts[i].snap, t.Partitions[i]
	t.cacheMu.Unlock()
	if snap == nil {
		return append([]Row(nil), tail...)
	}
	return append(RowsOf(snap.Cols, snap.NumRows, len(tail)), tail...)
}

// AllRows flattens the table into a single slice (test/debug helper).
func (t *Table) AllRows() []Row {
	var out []Row
	for p := range t.parts {
		out = append(out, t.Rows(p)...)
	}
	return out
}

// SortRows sorts a row slice lexicographically; used to compare result
// sets deterministically in tests and experiments.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return CompareRows(rows[i], rows[j]) < 0 })
}

// CompareRows lexicographically compares two rows by Value.Order.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Order(b[i]); c != 0 {
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
