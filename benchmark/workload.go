package main

import (
	"quickr"
	"quickr/internal/data"
	"quickr/internal/table"
	"quickr/internal/workload"
)

// query is one statement of a workload. Ref names the exact query whose
// answer it approximates: itself, except for the contract panels, which
// are judged against the uncontracted panel they repeat.
type query struct {
	ID  string
	SQL string
	Ref string
}

// preStep is what a client does before each pass.
type preStep int

const (
	// reseed calls SetSeed, which purges the plan cache, so every call
	// of the pass is optimized from scratch and every approx pass draws
	// another sample: the ad-hoc protocol.
	reseed preStep = iota
	// keep does nothing: one seed for the whole run, so plans and
	// query history stay warm from the warm-up pass on.
	keep
	// ingest inserts a batch of rows and reseeds. The insert bumps the
	// engine's epoch, so no plan or cache entry survives into the pass.
	ingest
)

// workloadSpec is one of the benchmark's workloads.
type workloadSpec struct {
	Name string
	// Why is the reason the workload exists, in one line.
	Why     string
	Clients int
	Pre     preStep
	// build generates the inputs from the seed at the given scale.
	build func(seed int64, sc scale) *inputs
}

// inputs are the generated tables and statements of one workload.
type inputs struct {
	tables map[string]*table.Table
	pks    map[string][]string
	exact  []query
	approx []query
	// batch returns the rows ingest_refresh inserts before pass n.
	batch func(n int) [][]any
}

var workloads = []workloadSpec{
	{Name: "adhoc_join", Clients: 1, Pre: reseed, build: buildAdhocJoin,
		Why: "the paper's ad-hoc workload: 44 TPC-DS-like + 7 joining TPC-H-like queries, plans cold, a new sample each pass; hash join, aggregation and ASALQA's plan choice do the work"},
	{Name: "adhoc_scan", Clients: 1, Pre: reseed, build: buildAdhocScan,
		Why: "the 11 single-table queries: no hash join at all, so scan, filter, project, sampler and exchange work shows here and join work must not"},
	{Name: "dashboard_repeat", Clients: 2, Pre: keep, build: buildDashboard,
		Why: "9 dashboard panels refreshed by 2 closed-loop clients with plans and history warm: short, repeated, concurrent; caches, gate and pool do the work, the optimizer none"},
	{Name: "ingest_refresh", Clients: 1, Pre: ingest, build: buildIngest,
		Why: "the same panels after an insert every round: every plan and cache entry is invalidated before reuse, so what a cache wins on dashboard_repeat it pays for here"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scanQueryIDs are the single-table queries of the TPC-H-like suite;
// its other seven join and belong to adhoc_join. The TPC-DS-like
// queries all join; the weblogs queries never do.
var scanQueryIDs = map[string]bool{"h01": true, "h06": true, "h12": true}

func asQueries(qs []workload.Query, keep func(id string) bool) []query {
	var out []query
	for _, q := range qs {
		if keep == nil || keep(q.ID) {
			out = append(out, query{ID: q.ID, SQL: q.SQL, Ref: q.ID})
		}
	}
	return out
}

func (in *inputs) add(tables map[string]*table.Table, pks map[string][]string) {
	if in.tables == nil {
		in.tables = map[string]*table.Table{}
		in.pks = map[string][]string{}
	}
	for name, t := range tables {
		in.tables[name] = t
		in.pks[name] = pks[name]
	}
}

func tpcds(seed int64, sf float64) *data.TPCDS {
	cfg := data.DefaultTPCDS()
	cfg.ScaleFactor = sf
	cfg.Seed += seed
	return data.GenerateTPCDS(cfg)
}

func tpch(seed int64, sf float64) *data.TPCH {
	cfg := data.DefaultTPCH()
	cfg.ScaleFactor = sf
	cfg.Seed += seed
	return data.GenerateTPCH(cfg)
}

func weblogs(seed int64, rows int) map[string]*table.Table {
	return map[string]*table.Table{"weblogs": data.Logs(rows, 777+seed, logParts)}
}

func buildAdhocJoin(seed int64, sc scale) *inputs {
	in := &inputs{}
	ds, h := tpcds(seed, sc.DSSF), tpch(seed, sc.HSF)
	in.add(ds.Tables, ds.PKs)
	in.add(h.Tables, h.PKs)
	in.exact = append(asQueries(workload.TPCDSQueries(), nil),
		asQueries(workload.TPCHQueries(), func(id string) bool { return !scanQueryIDs[id] })...)
	in.approx = in.exact
	return in
}

func buildAdhocScan(seed int64, sc scale) *inputs {
	in := &inputs{}
	h := tpch(seed, sc.ScanHSF)
	in.add(h.Tables, h.PKs)
	in.add(weblogs(seed, sc.ScanLogRows), nil)
	in.exact = append(asQueries(workload.TPCHQueries(), func(id string) bool { return scanQueryIDs[id] }),
		asQueries(workload.OtherQueries(), nil)...)
	in.approx = in.exact
	return in
}

// contractPanels are the dashboard panels repeated with an error
// contract, so the contract runner and its history take part.
var contractPanels = map[string]bool{"d01": true, "d02": true, "d06": true}

func buildDashboard(seed int64, sc scale) *inputs {
	in := &inputs{}
	in.add(weblogs(seed, sc.DashLogRows), nil)
	in.exact = asQueries(workload.DashboardQueries(), nil)
	in.approx = append([]query{}, in.exact...)
	for _, q := range in.exact {
		if contractPanels[q.ID] {
			in.approx = append(in.approx, query{
				ID:  "c" + q.ID[1:],
				SQL: q.SQL + " ERROR WITHIN 10% CONFIDENCE 95%",
				Ref: q.ID,
			})
		}
	}
	return in
}

func buildIngest(seed int64, sc scale) *inputs {
	in := buildDashboard(seed, sc)
	in.batch = func(n int) [][]any {
		// Another draw from the generator that made the table, so the
		// new rows fall into the panels' existing groups.
		return logRows(sc.InsertRows, 991+seed*seedStride+int64(n))
	}
	return in
}

// logRows generates weblogs rows in the form Engine.Insert takes.
func logRows(n int, seed int64) [][]any {
	rows := make([][]any, 0, n)
	for _, r := range data.Logs(n, seed, 1).Partitions[0] {
		row := make([]any, len(r))
		for i, v := range r {
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows
}

// newEngine registers the inputs with a default-configured engine. The
// benchmark never changes a default outside the traced run's opt-in
// points: a feature shows end to end once a PR makes it the default.
func newEngine(in *inputs) *quickr.Engine {
	eng := quickr.New()
	for name, t := range in.tables {
		eng.RegisterStored(t, in.pks[name]...)
	}
	return eng
}
