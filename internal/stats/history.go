package stats

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Query-history store: the learned estimate-correction loop. Every run
// records its actuals (rows/sec, realized vs predicted CI width,
// selectivity and group-count estimate ratios, sampler pass rate)
// keyed by a normalized plan fingerprint; later runs of the same plan
// blend these corrections into contract p selection. The EWMA keeps
// recent behaviour dominant while damping one-off outliers.

// historyAlpha is the EWMA weight of the newest observation.
const historyAlpha = 0.5

// ratio clamps keep a single wild run from poisoning the correction.
const (
	minRatio = 0.1
	maxRatio = 10.0
)

// historyVersion guards the on-disk format; a mismatch loads cold.
const historyVersion = 1

// Fingerprint hashes a normalized statement string to a stable hex key.
func Fingerprint(s string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	return strconv.FormatUint(h.Sum64(), 16)
}

// QueryHistory is the learned per-fingerprint correction state. All
// ratio fields are EWMA of actual/predicted (or actual/estimated), so
// 1.0 means the optimizer's estimate was spot-on.
type QueryHistory struct {
	// Fingerprint is the normalized-plan hash this entry corrects.
	Fingerprint string `json:"fingerprint"`
	// Runs counts recorded observations.
	Runs int64 `json:"runs"`
	// RowsPerSec is the EWMA processing rate (input rows / wall sec).
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
	// CIRatio is EWMA realized/predicted relative CI width.
	CIRatio float64 `json:"ci_ratio,omitempty"`
	// SelRatio is EWMA actual/estimated rows into the top aggregate.
	SelRatio float64 `json:"sel_ratio,omitempty"`
	// GroupRatio is EWMA actual/estimated output group count.
	GroupRatio float64 `json:"group_ratio,omitempty"`
	// LastGoodP is the sampling probability that last satisfied this
	// query's contract (0 = none recorded); warm runs start the ladder
	// here.
	LastGoodP float64 `json:"last_good_p,omitempty"`
}

// Observation is one run's actuals, fed into the EWMA state. Zero
// fields are skipped (not every run observes every quantity).
type Observation struct {
	RowsPerSec float64
	// CIRatio is realized/predicted relative CI for this run.
	CIRatio float64
	// SelRatio is actual/estimated aggregate-input rows.
	SelRatio float64
	// GroupRatio is actual/estimated group count.
	GroupRatio float64
	// GoodP, when >0, records a p that satisfied the contract.
	GoodP float64
}

// History is a concurrency-safe query-history store.
type History struct {
	mu      sync.Mutex
	queries map[string]*QueryHistory // guarded-by: mu
}

// NewHistory returns an empty (cold) history store.
func NewHistory() *History {
	return &History{queries: make(map[string]*QueryHistory)}
}

func ewma(old, obs float64) float64 {
	if old == 0 {
		return obs
	}
	return (1-historyAlpha)*old + historyAlpha*obs
}

func clampRatio(r float64) float64 {
	if r < minRatio {
		return minRatio
	}
	if r > maxRatio {
		return maxRatio
	}
	return r
}

// Record folds one run's actuals into the entry for fp.
func (h *History) Record(fp string, obs Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	q := h.queries[fp]
	if q == nil {
		q = &QueryHistory{Fingerprint: fp}
		h.queries[fp] = q
	}
	q.Runs++
	if obs.RowsPerSec > 0 {
		q.RowsPerSec = ewma(q.RowsPerSec, obs.RowsPerSec)
	}
	if obs.CIRatio > 0 {
		q.CIRatio = ewma(q.CIRatio, clampRatio(obs.CIRatio))
	}
	if obs.SelRatio > 0 {
		q.SelRatio = ewma(q.SelRatio, clampRatio(obs.SelRatio))
	}
	if obs.GroupRatio > 0 {
		q.GroupRatio = ewma(q.GroupRatio, clampRatio(obs.GroupRatio))
	}
	if obs.GoodP > 0 {
		q.LastGoodP = obs.GoodP
	}
}

// Lookup returns a copy of the entry for fp, or ok=false when cold.
func (h *History) Lookup(fp string) (QueryHistory, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	q := h.queries[fp]
	if q == nil {
		return QueryHistory{}, false
	}
	return *q, true
}

// Len reports the number of fingerprints with recorded history.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queries)
}

// Reset drops all recorded history (back to cold estimates).
func (h *History) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queries = make(map[string]*QueryHistory)
}

// storedHistory is the on-disk envelope.
type storedHistory struct {
	Version int             `json:"version"`
	Queries []*QueryHistory `json:"queries"`
}

// Save serializes the history as versioned, sorted, indented JSON.
func (h *History) Save(w io.Writer) error {
	h.mu.Lock()
	out := storedHistory{Version: historyVersion}
	for _, q := range h.queries {
		cp := *q
		out.Queries = append(out.Queries, &cp)
	}
	h.mu.Unlock()
	sort.Slice(out.Queries, func(i, j int) bool {
		return out.Queries[i].Fingerprint < out.Queries[j].Fingerprint
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load replaces the store's contents from Save output. A corrupted,
// truncated, or version-mismatched payload degrades to cold estimates
// (empty store, nil error): history is an optimization, never a
// correctness dependency.
func (h *History) Load(r io.Reader) error {
	var in storedHistory
	fresh := make(map[string]*QueryHistory)
	if err := json.NewDecoder(r).Decode(&in); err == nil && in.Version == historyVersion {
		for _, q := range in.Queries {
			if q != nil && q.Fingerprint != "" {
				cp := *q
				fresh[cp.Fingerprint] = &cp
			}
		}
	}
	h.mu.Lock()
	h.queries = fresh
	h.mu.Unlock()
	return nil
}
