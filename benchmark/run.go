package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"quickr"
)

// passTimes are the engine times of one pass of one client.
type passTimes struct {
	pre, exact, approx time.Duration
}

func (p passTimes) total() time.Duration { return p.pre + p.exact + p.approx }

// clientLog is what one closed-loop client records. Each client writes
// only its own log; the logs are merged once the clients have stopped.
type clientLog struct {
	passes []passTimes
	// byStmt holds the wall (ms) of every timed call, per statement and
	// mode.
	byStmt    map[stmtKey][]float64
	acc       errorPool
	attempted int
	failures  []string
	// observe, when set, sees every successful call (the traced run
	// reads the layers' counters off the results).
	observe func(q query, approx bool, res *quickr.Result, wall time.Duration)
}

type stmtKey struct {
	id     string
	approx bool
}

func (c *clientLog) timed(id string, approx bool, d time.Duration) {
	if c.byStmt == nil {
		c.byStmt = map[stmtKey][]float64{}
	}
	k := stmtKey{id, approx}
	c.byStmt[k] = append(c.byStmt[k], d.Seconds()*1e3)
}

// walls pools the timed calls of one mode.
func (c *clientLog) walls(approx bool) []float64 {
	var all []float64
	for k, w := range c.byStmt {
		if k.approx == approx {
			all = append(all, w...)
		}
	}
	return all
}

func (c *clientLog) calls() int { return len(c.walls(false)) + len(c.walls(true)) }

// latencyGmean is the geometric mean over statements of the statement's
// median wall in one mode. A pooled median of a mix of cheap and heavy
// statements jumps between the two statements nearest the middle; this
// moves smoothly with every statement.
func (c *clientLog) latencyGmean(approx bool) (float64, int) {
	var logs []float64
	for k, walls := range c.byStmt {
		if k.approx == approx {
			logs = append(logs, math.Log(median(walls)))
		}
	}
	if len(logs) == 0 {
		return 0, 0
	}
	return math.Exp(mean(logs)), len(logs)
}

func (c *clientLog) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *clientLog) merge(o *clientLog) {
	c.passes = append(c.passes, o.passes...)
	for k, walls := range o.byStmt {
		if c.byStmt == nil {
			c.byStmt = map[stmtKey][]float64{}
		}
		c.byStmt[k] = append(c.byStmt[k], walls...)
	}
	c.acc.merge(&o.acc)
	c.attempted += o.attempted
	c.failures = append(c.failures, o.failures...)
}

// replayKey identifies one approx answer that must repeat bit for bit:
// the same statement under the same sampler seed over the same data. A
// contract statement's answer also depends on the ladder rung its
// runner settled on, which moves as the query history learns.
type replayKey struct {
	id   string
	seed uint64
	rung float64
}

// runner holds one workload's live engine and the answers its calls are
// checked against.
type runner struct {
	w    workloadSpec
	sc   scale
	seed int64

	in  *inputs
	eng *quickr.Engine
	// refs are the exact answers approx answers are judged against: set
	// by the warm-up pass, and by every pass of ingest_refresh, whose
	// data changes. One client writes them; with two clients (the keep
	// protocol) they are only read once the warm-up is over.
	refs map[string]*quickr.Result
	// replays holds the digest of each approx answer first seen.
	replayMu sync.Mutex
	replays  map[replayKey]uint64
}

// samplerSeed is the engine seed of pass n. The ad-hoc protocol cycles
// through MinPasses seeds, so later passes replay earlier draws and
// must reproduce them; ingest_refresh never sees the same data twice and
// draws afresh every round; the keep protocol has one seed.
func (r *runner) samplerSeed(n int) uint64 {
	base := uint64(r.seed)*seedStride + 1
	switch r.w.Pre {
	case reseed:
		return base + uint64(n%r.sc.MinPasses)
	case ingest:
		return base + uint64(n)
	}
	return base
}

// setup generates the inputs, registers them with a new engine and runs
// the untimed warm-up pass: it fills the table statistics, supplies the
// exact reference answers and leaves plans and history warm.
func (r *runner) setup(log *clientLog) time.Duration {
	t0 := time.Now()
	r.in = r.w.build(r.seed, r.sc)
	r.eng = newEngine(r.in)
	r.refs = map[string]*quickr.Result{}
	r.replays = map[replayKey]uint64{}
	warm := &clientLog{}
	s := r.samplerSeed(0)
	r.eng.SetSeed(s)
	r.suites(warm, s, false, false)
	// The warm-up's checks count; its times are nobody's samples.
	log.attempted += warm.attempted
	log.failures = append(log.failures, warm.failures...)
	return time.Since(t0)
}

// pass is one timed pass of one client: the protocol's pre-step, then
// the exact suite, then the approx suite.
func (r *runner) pass(c *clientLog, client, n int) {
	s := r.samplerSeed(n)
	var batch [][]any
	if r.w.Pre == ingest {
		batch = r.in.batch(n)
	}
	t0 := time.Now()
	switch r.w.Pre {
	case reseed:
		r.eng.SetSeed(s)
	case ingest:
		c.attempted++
		if err := r.eng.Insert("weblogs", batch); err != nil {
			c.fail("pass %d insert: %v", n, err)
		}
		r.eng.SetSeed(s)
	}
	pre := time.Since(t0)
	// Accuracy is pooled over the first MinPasses passes only, so that it
	// does not depend on how many passes fit into the run. Under the keep
	// protocol every pass draws the same sample; the sweep pools instead.
	pool := r.w.Pre != keep && n < r.sc.MinPasses
	// Odd clients start half a cycle later, with the approx suite, so two
	// clients are not always inside the same statement.
	pt := r.suites(c, s, pool, client%2 == 1)
	pt.pre = pre
	c.passes = append(c.passes, pt)
}

func (r *runner) suites(c *clientLog, s uint64, pool, approxFirst bool) passTimes {
	var pt passTimes
	exact := func() {
		for _, q := range r.in.exact {
			t := time.Now()
			res, err := r.eng.Exec(q.SQL)
			d := time.Since(t)
			pt.exact += d
			c.timed(q.ID, false, d)
			r.checkExact(c, q, res, err, d)
		}
	}
	approx := func() {
		for _, q := range r.in.approx {
			t := time.Now()
			res, err := r.eng.ExecApprox(q.SQL)
			d := time.Since(t)
			pt.approx += d
			c.timed(q.ID, true, d)
			r.checkApprox(c, q, s, pool, res, err, d)
		}
	}
	if approxFirst {
		approx()
		exact()
	} else {
		exact()
		approx()
	}
	return pt
}

func (r *runner) checkExact(c *clientLog, q query, res *quickr.Result, err error, wall time.Duration) {
	c.attempted++
	if err != nil {
		c.fail("%s exact: %v", q.ID, err)
		return
	}
	ref := r.refs[q.ID]
	switch {
	case ref == nil || r.w.Pre == ingest:
		r.refs[q.ID] = res
	default:
		if err := sameRows(res.InternalRows, ref.InternalRows); err != nil {
			c.fail("%s exact answer changed: %v", q.ID, err)
		}
	}
	if c.observe != nil {
		c.observe(q, false, res, wall)
	}
}

func (r *runner) checkApprox(c *clientLog, q query, s uint64, pool bool, res *quickr.Result, err error, wall time.Duration) {
	c.attempted++
	if err != nil {
		c.fail("%s approx: %v", q.ID, err)
		return
	}
	ok := true
	bad := func(format string, args ...any) {
		c.fail(format, args...)
		ok = false
	}
	if err := finiteEstimates(res); err != nil {
		bad("%s approx: %v", q.ID, err)
	}
	if res.Contract != nil && !res.Contract.Satisfied {
		bad("%s: contract not satisfied (realized %.4g, target %.4g)", q.ID, res.Contract.RealizedRelErr, res.Contract.ErrorTarget)
	}
	ref := r.refs[q.Ref]
	if ref == nil {
		bad("%s approx: no exact reference", q.ID)
		return
	}
	if !res.Sampled {
		if err := sameRows(res.InternalRows, ref.InternalRows); err != nil {
			bad("%s: unsampled approx answer differs from exact: %v", q.ID, err)
		}
	}
	if r.w.Pre != ingest {
		key, d := replayKey{id: q.ID, seed: s}, resultDigest(res)
		if res.Contract != nil {
			key.rung = res.Contract.ChosenP
		}
		r.replayMu.Lock()
		first, seen := r.replays[key]
		if !seen {
			r.replays[key] = d
		}
		r.replayMu.Unlock()
		if seen && first != d {
			bad("%s: approx answer under seed %d did not repeat bit for bit", q.ID, s)
		}
	}
	if ok && pool && res.Sampled {
		c.acc.add(ref, res)
	}
	if ok && c.observe != nil {
		c.observe(q, true, res, wall)
	}
}

// sweep pools accuracy over fresh sampler seeds once the timed section
// is over (each SetSeed purges the plans the timed passes kept warm).
func (r *runner) sweep(c *clientLog) {
	for i := 0; i < r.sc.SweepSeeds; i++ {
		s := r.samplerSeed(0) + 1 + uint64(i)
		r.eng.SetSeed(s)
		for _, q := range r.in.approx {
			res, err := r.eng.ExecApprox(q.SQL)
			r.checkApprox(c, q, s, true, res, err, 0)
		}
	}
}

// crossCheckRefs holds the current exact references against the
// reference evaluator run over the live tables. Only ingest_refresh
// needs it: its exact answers change every round, so nothing earlier
// vouches for the last ones, and a stale cache entry served after an
// insert is the fault that workload exists to catch. Its statements
// read one table, which the evaluator handles at full scale.
func (r *runner) crossCheckRefs(c *clientLog) {
	for _, q := range r.in.exact {
		c.attempted++
		want, err := reference(r.eng, q.SQL)
		if err == nil {
			err = sameRows(r.refs[q.ID].InternalRows, want)
		}
		if err != nil {
			c.fail("%s: exact answer after the last insert against refimpl: %v", q.ID, err)
		}
	}
}

// verify cross-checks Exec against the reference evaluator for the
// workload's statements on a small engine built from the same seed.
func verify(w workloadSpec, sc scale, seed int64, c *clientLog) time.Duration {
	t0 := time.Now()
	small := sc
	small.DSSF, small.HSF, small.ScanHSF = sc.VerifySF, sc.VerifySF, sc.VerifySF
	small.ScanLogRows, small.DashLogRows = sc.VerifyLogs, sc.VerifyLogs
	in := w.build(seed, small)
	errs := crossCheck(newEngine(in), in.exact)
	c.attempted += len(in.exact)
	for _, err := range errs {
		c.fail("%v", err)
	}
	return time.Since(t0)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTimed runs the workload's clients for the given time, each for at
// least MinPasses passes, and returns the merged log, the wall time and
// the CPU time of the section.
func (r *runner) runTimed(seconds float64) (*clientLog, float64, float64) {
	logs := make([]*clientLog, r.w.Clients)
	runtime.GC() // the set-ups' garbage is not the timed section's
	cpu0, start := cpuSeconds(), time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for n := 0; n < r.sc.MinPasses || time.Now().Before(deadline); n++ {
				r.pass(logs[client], client, n)
			}
		}(i)
	}
	wg.Wait()
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	all := &clientLog{}
	for _, l := range logs {
		all.merge(l)
	}
	return all, wall, cpu
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failures  []string
	Metrics   map[string]float64
	// Samples is the number of measurements behind each metric.
	Samples map[string]int
	// Counts are the run's exact counters: they depend on the seed only
	// and must repeat from run to run (-selfcheck compares them).
	Counts map[string]int64
	// Notes are printed with the metrics and are not metrics.
	Notes []string
}

func newResult(w workloadSpec, seed int64, traced bool) *result {
	return &result{Workload: w.Name, Seed: seed, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Counts: map[string]int64{}}
}

func (res *result) set(name string, v float64, samples int) {
	res.Metrics[name] = v
	res.Samples[name] = samples
}

// runUntraced measures the end-to-end metrics: no tracing, nothing but
// the engine's public API between the clock reads.
func runUntraced(w workloadSpec, sc scale, seed int64, seconds float64) *result {
	res := newResult(w, seed, false)
	all := &clientLog{}
	verifyTime := verify(w, sc, seed, all)

	r := &runner{w: w, sc: sc, seed: seed}
	var setups []float64
	for i := 0; i < sc.Setups; i++ {
		setups = append(setups, r.setup(all).Seconds())
	}

	timed, wall, cpu := r.runTimed(seconds)
	if w.Pre == keep {
		r.sweep(timed)
	}
	if w.Pre == ingest {
		r.crossCheckRefs(timed)
	}
	all.merge(timed)

	var exactS, approxS, passS []float64
	var qps float64
	// Throughput is counted per client over the time it spent inside the
	// engine, so the benchmark's own answer checks do not count as load.
	perClient := len(timed.passes) / w.Clients
	approxWalls := timed.walls(true)
	calls := timed.calls()
	var busy float64
	for _, p := range timed.passes {
		exactS = append(exactS, p.exact.Seconds())
		approxS = append(approxS, p.approx.Seconds())
		passS = append(passS, p.total().Seconds())
		busy += p.total().Seconds()
	}
	if busy > 0 {
		qps = float64(calls) / (busy / float64(w.Clients))
	}
	acc := &all.acc
	res.set("setup_s", median(setups), len(setups))
	res.set("exact_suite_s", median(exactS), len(exactS))
	res.set("approx_suite_s", median(approxS), len(approxS))
	res.set("pass_s", median(passS), len(passS))
	g, n := timed.latencyGmean(false)
	res.set("exact_latency_ms_gmean", g, n)
	g, n = timed.latencyGmean(true)
	res.set("approx_latency_ms_gmean", g, n)
	res.set("approx_latency_ms_p90", percentile(approxWalls, 90), len(approxWalls))
	res.set("qps", qps, calls)
	res.set("cpu_s_per_query", cpu/float64(calls), calls)
	res.set("groups_found_pct", pct(acc.found, acc.groups), acc.groups)
	res.set("agg_error_pct_p50", median(acc.relErr), len(acc.relErr))
	res.set("agg_error_pct_p90", percentile(acc.relErr, 90), len(acc.relErr))
	res.set("ci95_coverage_pct", pct(acc.ciCovered, acc.ciCells), acc.ciCells)
	res.set("ci95_rel_width_pct_p50", median(acc.ciWidth), len(acc.ciWidth))

	res.Counts["accuracy.groups"] = int64(acc.groups)
	res.Counts["accuracy.groups_found"] = int64(acc.found)
	res.Counts["accuracy.cells"] = int64(len(acc.relErr))
	res.Counts["accuracy.ci_cells"] = int64(acc.ciCells)
	res.Counts["accuracy.ci_covered"] = int64(acc.ciCovered)

	res.Attempted, res.Failures = all.attempted, all.failures
	res.Notes = append(res.Notes,
		fmt.Sprintf("verify_s %.3f (refimpl cross-check at sf %g, outside setup_s)", verifyTime.Seconds(), sc.VerifySF),
		fmt.Sprintf("timed section %.2f s wall, %.2f s cpu, %d clients x %d passes, %d calls, GOMAXPROCS %d",
			wall, cpu, w.Clients, perClient, calls, runtime.GOMAXPROCS(0)))
	return res
}
