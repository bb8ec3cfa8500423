// Package catalog maintains the table registry, per-table statistics,
// the hot-sample cache and declared key relationships, and binds parsed
// SQL to the logical algebra in internal/lplan.
package catalog

import (
	"fmt"
	"sync"

	"quickr/internal/stats"
	"quickr/internal/table"
)

// Catalog registers tables, their statistics, the samples drawn from
// them and primary keys.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*table.Table
	pks     map[string][]string // table -> primary key columns
	Stats   *stats.Store
	samples SampleStore
}

// SampleStore is the cache of sampler outputs that plans over a catalog
// replay: an *exec.SampleCache, which opt.SampleCacheOf reads back. The
// catalog names it by interface because exec's tests import this
// package (through refimpl). Like the statistics it is derived from the
// tables: its entries are keyed by table version.
type SampleStore interface {
	Purge()
}

// SampleStore returns the catalog's sample cache, nil when off (as in a
// new catalog).
func (c *Catalog) SampleStore() SampleStore {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.samples
}

// SetSampleStore replaces the sample cache; nil turns it off.
func (c *Catalog) SetSampleStore(s SampleStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = s
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: map[string]*table.Table{}, pks: map[string][]string{}, Stats: stats.NewStore()}
}

// Register adds (or replaces) a table.
func (c *Catalog) Register(t *table.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t
}

// SetPrimaryKey declares the primary key columns of a table; used to
// detect foreign-key joins with dimension tables (paper §3: a fact–dim
// FK join is effectively a select).
func (c *Catalog) SetPrimaryKey(tableName string, cols ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pks[tableName] = cols
}

// PrimaryKey returns the declared primary key of a table, if any.
func (c *Catalog) PrimaryKey(tableName string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pks[tableName]
}

// Table looks up a registered table.
func (c *Catalog) Table(name string) (*table.Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// Tables returns the registered table names.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// TableStats returns statistics for a table, collecting on first use.
func (c *Catalog) TableStats(name string) (*stats.TableStats, error) {
	t, err := c.Table(name)
	if err != nil {
		return nil, err
	}
	return c.Stats.Get(t), nil
}
