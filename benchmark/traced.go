package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"quickr"
	"quickr/internal/catalog"
	"quickr/internal/cluster"
	"quickr/internal/lplan"
	"quickr/internal/metrics"
	"quickr/internal/service"
)

// callKey names one statement of one client in one mode.
type callKey struct {
	client int
	id     string
	approx bool
}

// engineSide is what the traced run reads off the engine's own results
// while the workload's clients run a pass through the public API.
type engineSide struct {
	mu sync.Mutex
	// last is each statement's latest engine answer: the staged replay
	// of the same pass must reproduce it.
	last map[callKey]engineAnswer
	// wall collects every engine call's wall (ms) per statement and mode.
	wall map[callKey][]float64
	// counting is set during the first repeat only: the counts below
	// are exact functions of the seed, not of how many repeats fit.
	counting bool

	poolTasks, poolStolen   int
	poolWaitMs, queuedMs    float64
	peakInflight            float64
	contractCalls, attempts int
	escalations, fallbacks  int
	historyHits             int
	chosenP                 []float64
	sim                     map[string]map[bool]cluster.Metrics // statement -> approx? -> simulated costs
}

type engineAnswer struct {
	digest   uint64
	contract *quickr.ContractInfo
}

func (e *engineSide) observe(client int) func(query, bool, *quickr.Result, time.Duration) {
	return func(q query, approx bool, res *quickr.Result, wall time.Duration) {
		key := callKey{client, q.ID, approx}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.last[key] = engineAnswer{resultDigest(res), res.Contract}
		e.wall[key] = append(e.wall[key], wall.Seconds()*1e3)
		if !e.counting {
			return
		}
		e.poolTasks += res.PoolTasks
		e.poolStolen += res.PoolStolen
		e.poolWaitMs += res.PoolWaitSeconds * 1e3
		e.queuedMs += res.QueuedSeconds * 1e3
		if res.PeakInFlightBytes > e.peakInflight {
			e.peakInflight = res.PeakInFlightBytes
		}
		if c := res.Contract; c != nil {
			e.contractCalls++
			e.attempts += c.Attempts
			e.escalations += c.Escalations
			if c.Exact {
				e.fallbacks++
			} else {
				e.chosenP = append(e.chosenP, c.ChosenP)
			}
			if c.HistoryHit {
				e.historyHits++
			}
		} else if client == 0 {
			if e.sim[q.ID] == nil {
				e.sim[q.ID] = map[bool]cluster.Metrics{}
			}
			e.sim[q.ID][approx] = res.Metrics
		}
	}
}

// stagedSide accumulates what the staged replay's spans and executor
// results say about each layer.
type stagedSide struct {
	spanUs map[string][]float64 // span name -> one duration per call
	// Per mode ("exact"/"approx"): exec.run per call and operator time
	// per call by kind, all in ms.
	runMs   map[string][]float64
	opMs    map[string]map[string]float64
	calls   map[string]int
	rows    int64
	execSec float64
	// totalMs is, per statement and mode, each call's staged total: the
	// root span less the opt-in spans a default engine does not run.
	totalMs map[callKey][]float64

	// First repeat only.
	seen, passed        int64
	passRatios          []float64
	sampled, unapprox   int
	uniform, distinct   int
	universe            int
	effP                []float64
	rowsOut             map[string]int64
	firstRepeatRows     int64
	firstRepeatCounting bool
	violations          []string // statement: what the plan checker said
}

func newStagedSide() *stagedSide {
	return &stagedSide{
		spanUs: map[string][]float64{}, runMs: map[string][]float64{},
		opMs:    map[string]map[string]float64{"exact": {}, "approx": {}},
		calls:   map[string]int{},
		totalMs: map[callKey][]float64{}, rowsOut: map[string]int64{},
	}
}

func modeName(approx bool) string {
	if approx {
		return "approx"
	}
	return "exact"
}

func opKindName(kind string) string {
	k := strings.ToLower(kind)
	for _, known := range opKinds {
		if k == known {
			return k
		}
	}
	return "other"
}

// add folds in one staged call and its spans (those of request req).
func (s *stagedSide) add(key callKey, t *tracer, call *stagedCall) {
	mode := modeName(key.approx)
	s.calls[mode]++
	var optIn time.Duration
	for i := call.root + 1; i < len(t.spans) && t.spans[i].Parent == call.root; i++ {
		sp := t.spans[i]
		s.spanUs[sp.Name] = append(s.spanUs[sp.Name], float64(sp.dur())/1e3)
		if optInSpans[sp.Name] {
			optIn += sp.dur()
		}
		if sp.Name == "exec.run" {
			s.runMs[mode] = append(s.runMs[mode], float64(sp.dur())/1e6)
		}
	}
	s.totalMs[key] = append(s.totalMs[key], float64(t.spans[call.root].dur()-optIn)/1e6)
	s.rows += call.res.RowsProcessed
	s.execSec += call.res.ExecSeconds
	for _, op := range call.res.Stats.Ops() {
		s.opMs[mode][opKindName(op.Kind)] += float64(op.WallNanos()) / 1e6
	}
	if !s.firstRepeatCounting || key.client != 0 {
		return
	}
	s.firstRepeatRows += call.res.RowsProcessed
	for _, v := range call.violations {
		s.violations = append(s.violations, key.id+" "+modeName(key.approx)+": "+strings.SplitN(v, "(path:", 2)[0])
	}
	for _, op := range call.res.Stats.Ops() {
		tot := op.Total()
		s.rowsOut[opKindName(op.Kind)] += tot.RowsOut
		if op.SamplerP > 0 && tot.SamplerSeen > 0 {
			s.seen += tot.SamplerSeen
			s.passed += tot.SamplerPassed
			s.passRatios = append(s.passRatios, float64(tot.SamplerPassed)/float64(tot.SamplerSeen)/op.SamplerP)
		}
	}
	if !key.approx {
		return
	}
	if call.sampled {
		s.sampled++
		s.effP = append(s.effP, call.effP)
	}
	if call.unapprox {
		s.unapprox++
	}
	for _, sm := range call.samplers {
		switch sm.Def.Type {
		case lplan.SamplerUniform:
			s.uniform++
		case lplan.SamplerDistinct:
			s.distinct++
		case lplan.SamplerUniverse:
			s.universe++
		}
	}
}

// stagedPass replays pass n of every client through the mirror: the
// same statements under the same seed, with the same number of clients
// at once, and checks each answer against the engine's.
func (r *runner) stagedPass(n int, m *mirror, tracers []*tracer, eng *engineSide, st *stagedSide, log *clientLog) {
	seed := r.samplerSeed(n)
	type done struct {
		key  callKey
		call *stagedCall
	}
	results := make([][]done, r.w.Clients)
	fails := make([][]string, r.w.Clients)
	var wg sync.WaitGroup
	for c := 0; c < r.w.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			t := tracers[client]
			one := func(q query, approx bool) {
				key := callKey{client, q.ID, approx}
				eng.mu.Lock()
				want, ok := eng.last[key]
				eng.mu.Unlock()
				if !ok {
					return // the engine call failed and is already counted
				}
				// A contract statement is replayed as the attempt its
				// runner settled on: the exact plan, or one ladder rung.
				mode, minP := approx, 0.0
				if want.contract != nil {
					mode, minP = !want.contract.Exact, want.contract.ChosenP
				}
				call, err := m.call(t, q.SQL, mode, seed, minP)
				if err != nil {
					fails[client] = append(fails[client], fmt.Sprintf("%s staged %s: %v", q.ID, modeName(approx), err))
					return
				}
				if got := execDigest(call.res); got != want.digest {
					fails[client] = append(fails[client], fmt.Sprintf("%s staged %s answer differs from the engine's under seed %d", q.ID, modeName(approx), seed))
				}
				results[client] = append(results[client], done{key, call})
			}
			for _, q := range r.in.exact {
				one(q, false)
			}
			for _, q := range r.in.approx {
				one(q, true)
			}
		}(c)
	}
	wg.Wait()
	for c := range results {
		for _, d := range results[c] {
			st.add(d.key, tracers[c], d.call)
		}
		log.attempted += len(results[c]) + len(fails[c])
		log.failures = append(log.failures, fails[c]...)
	}
}

// enginePass runs pass n of every client through the engine's public
// API, exactly as the untraced run does.
func (r *runner) enginePass(n int, eng *engineSide, log *clientLog) {
	var wg sync.WaitGroup
	logs := make([]*clientLog, r.w.Clients)
	for c := range logs {
		logs[c] = &clientLog{observe: eng.observe(c)}
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			r.pass(logs[client], client, n)
		}(c)
	}
	wg.Wait()
	for _, l := range logs {
		log.merge(l)
	}
}

// optInOutcome is what one opt-in pass yields: the mean executor wall
// per statement (ms), each call's wall, the answers' digests and the
// summed operator counters.
type optInOutcome struct {
	runMs                   float64
	wallMs                  map[string]float64
	digests                 map[string]uint64
	kernelLanes, fallback   int64
	partsScanned, partsPrun int64
}

// optInPass runs the approx suite once, by one client, under the
// engine's current configuration.
func (r *runner) optInPass(log *clientLog, what string) optInOutcome {
	out := optInOutcome{wallMs: map[string]float64{}, digests: map[string]uint64{}}
	var execMs []float64
	for _, q := range r.in.approx {
		log.attempted++
		t0 := time.Now()
		res, err := r.eng.ExecApprox(q.SQL)
		wall := time.Since(t0)
		if err != nil {
			log.fail("%s approx (%s): %v", q.ID, what, err)
			continue
		}
		if err := finiteEstimates(res); err != nil {
			log.fail("%s approx (%s): %v", q.ID, what, err)
		}
		execMs = append(execMs, res.ExecSeconds*1e3)
		out.wallMs[q.ID] = wall.Seconds() * 1e3
		// A contract statement's answer depends on the rung its runner
		// picked, which the history moves; only the others must repeat.
		if res.Contract == nil {
			out.digests[q.ID] = resultDigest(res)
		}
		out.partsScanned += res.PartitionsScanned
		out.partsPrun += res.PartitionsPruned
		for _, op := range res.Stats.Ops() {
			tot := op.Total()
			out.kernelLanes += tot.KernelLanes
			out.fallback += tot.FallbackRows
		}
	}
	out.runMs = mean(execMs)
	return out
}

func (o optInOutcome) sameAs(base optInOutcome, log *clientLog, what string) {
	for id, d := range base.digests {
		log.attempted++
		if got, ok := o.digests[id]; ok && got != d {
			log.fail("%s: answer under %s differs from the default configuration's", id, what)
		}
	}
}

// serviceRoundTrip submits the statement to the HTTP service's handler,
// waits for it and fetches the result, without a network in between.
func serviceRoundTrip(h http.Handler, srv *service.Server, sqlText string) (time.Duration, error) {
	body, err := json.Marshal(map[string]string{"sql": sqlText, "mode": "approx"})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		return 0, fmt.Errorf("submit: status %d: %s", rec.Code, rec.Body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		return 0, err
	}
	srv.Wait(sub.ID)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query/"+sub.ID, nil))
	wall := time.Since(t0)
	var status struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		return 0, err
	}
	if status.Status != "done" {
		return 0, fmt.Errorf("status %q: %s", status.Status, status.Error)
	}
	return wall, nil
}

// ratio is a Baseline/Quickr gain, 1 when Quickr's side is empty.
func ratio(base, quickr float64) float64 {
	if quickr <= 0 {
		return 1
	}
	return base / quickr
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

const mb = 1 << 20

// Percent by which the staged replay's summed spans may differ from the
// engine's summed wall before the run says so, and before it fails.
const (
	replayNote  = 10
	replayFail  = 25
	replayMinMs = 1000 // of paired engine wall, below which neither applies
)

// report writes the layer metrics the staged replay accounts for: the
// front end and the executor from the spans, the samplers and ASALQA's
// choices from the first repeat.
func (s *stagedSide) report(res *result, approxStmts int) {
	// Front end and executor, from the spans.
	for _, name := range []string{"sql.parse", "catalog.bind", "opt.normalize", "core.place", "accuracy.analyze",
		"plancheck.logical", "plancheck.physical", "opt.plan", "pool.gate_acquire"} {
		res.set(name+"_us", mean(s.spanUs[name]), len(s.spanUs[name]))
	}
	allRuns := append(append([]float64{}, s.runMs["exact"]...), s.runMs["approx"]...)
	res.set("exec.run_ms", mean(allRuns), len(allRuns))
	if s.execSec > 0 {
		res.set("exec.rows_per_s", float64(s.rows)/s.execSec, len(allRuns))
	}
	for _, mode := range []string{"exact", "approx"} {
		n := s.calls[mode]
		res.set("exec."+mode+".run_ms", mean(s.runMs[mode]), n)
		var attributed float64
		for _, k := range opKinds {
			perCall := 0.0
			if n > 0 {
				perCall = s.opMs[mode][k] / float64(n)
			}
			attributed += perCall
			res.set("exec."+mode+".op."+k+"_ms", perCall, n)
		}
		res.set("exec."+mode+".unattributed_ms", mean(s.runMs[mode])-attributed, n)
	}

	// Samplers and ASALQA, first repeat.
	res.set("sampler.rows_seen", float64(s.seen), len(s.passRatios))
	res.set("sampler.rows_passed", float64(s.passed), len(s.passRatios))
	res.set("sampler.pass_rate_ratio", median(s.passRatios), len(s.passRatios))
	res.set("core.sampled_queries", float64(s.sampled), approxStmts)
	res.set("core.unapproximable_queries", float64(s.unapprox), approxStmts)
	res.set("core.sampler_uniform", float64(s.uniform), s.sampled)
	res.set("core.sampler_distinct", float64(s.distinct), s.sampled)
	res.set("core.sampler_universe", float64(s.universe), s.sampled)
	res.set("core.effective_p_p50", median(s.effP), len(s.effP))

	res.Counts["staged.rows_processed"] = s.firstRepeatRows
	res.Counts["sampler.rows_seen"] = s.seen
	res.Counts["sampler.rows_passed"] = s.passed
	res.Counts["core.sampled_queries"] = int64(s.sampled)
	for k, v := range s.rowsOut {
		res.Counts["op."+k+".rows_out"] = v
	}
	res.Counts["plancheck.violations"] = int64(len(s.violations))
	for _, v := range s.violations {
		res.Notes = append(res.Notes, "plancheck (opt-in, not a failure): "+strings.Join(strings.Fields(v), " "))
	}
}

// report writes the layer metrics read off the engine's own results
// during the first repeat's firstCalls calls.
func (e *engineSide) report(res *result, firstCalls int) {
	res.set("pool.tasks", float64(e.poolTasks), firstCalls)
	res.set("pool.stolen", float64(e.poolStolen), firstCalls)
	res.set("pool.wait_ms", e.poolWaitMs, firstCalls)
	res.set("pool.gate_queued_ms", e.queuedMs, firstCalls)
	res.set("exec.peak_inflight_mb", e.peakInflight/mb, firstCalls)
	res.set("contract.attempts_per_query", float64(e.attempts)/math.Max(1, float64(e.contractCalls)), e.contractCalls)
	res.set("contract.escalations", float64(e.escalations), e.contractCalls)
	res.set("contract.exact_fallbacks", float64(e.fallbacks), e.contractCalls)
	res.set("contract.history_hits", float64(e.historyHits), e.contractCalls)
	res.set("contract.chosen_p_p50", median(e.chosenP), len(e.chosenP))
	res.Counts["pool.tasks"] = int64(e.poolTasks)
}

// compareReplay holds the engine's calls against their staged replays,
// statement by statement (contract statements aside: the engine may run
// several attempts), and the simulator's gains against the clock's.
func compareReplay(res *result, log *clientLog, eng *engineSide, st *stagedSide) {
	var engineMs, stagedMs, exactMs, approxMs float64
	var paired int
	var wallGain []float64
	var mh, rt, im, sh, passes []float64
	for key, walls := range eng.wall {
		if staged, ok := st.totalMs[key]; ok && eng.last[key].contract == nil {
			engineMs += sum(walls)
			stagedMs += sum(staged)
			paired += len(walls)
		}
		if key.client != 0 || eng.last[key].contract != nil {
			continue
		}
		if key.approx {
			approxMs += median(walls)
			continue
		}
		exactMs += median(walls)
		other, ok := eng.wall[callKey{0, key.id, true}]
		sim := eng.sim[key.id]
		if !ok || sim == nil {
			continue
		}
		e, a := sim[false], sim[true]
		mh = append(mh, ratio(e.MachineHours, a.MachineHours))
		rt = append(rt, ratio(e.Runtime, a.Runtime))
		im = append(im, ratio(e.IntermediateBytes, a.IntermediateBytes))
		sh = append(sh, ratio(e.ShuffledBytes, a.ShuffledBytes))
		passes = append(passes, a.Passes)
		wallGain = append(wallGain, ratio(median(walls), median(other)))
	}
	if paired > 0 {
		over := 100 * (stagedMs - engineMs) / engineMs
		res.set("engine.unattributed_ms", (engineMs-stagedMs)/float64(paired), paired)
		res.set("trace.overhead_pct", over, paired)
		// The replay is only a fair account of the engine while the two
		// take about the same time. Past replayNote the numbers deserve a
		// second look (a noisy run, or the engine grew a phase the mirror
		// lacks); past replayFail the mirror no longer mirrors.
		switch {
		case engineMs < replayMinMs:
			// Too little time was paired for the ratio to mean anything.
		case math.Abs(over) > replayFail:
			log.attempted++
			log.fail("staged replay takes %+.1f%% of the engine's wall: the mirror in staged.go no longer follows Engine.prepareStmt/runStmt", over)
		case math.Abs(over) > replayNote:
			res.Notes = append(res.Notes, fmt.Sprintf("WARNING: staged replay differs from the engine's wall by %+.1f%% (more than %g%%)", over, float64(replayNote)))
		}
	}
	if approxMs > 0 {
		res.set("engine.wall_speedup", exactMs/approxMs, len(rt))
	}
	res.set("cluster.sim_machine_hours_gain_p50", median(mh), len(mh))
	res.set("cluster.sim_runtime_gain_p50", median(rt), len(rt))
	res.set("cluster.sim_intermediate_gain_p50", median(im), len(im))
	res.set("cluster.sim_shuffled_gain_p50", median(sh), len(sh))
	res.set("cluster.sim_passes_approx", median(passes), len(passes))
	res.set("cluster.sim_vs_wall_rank_corr", spearman(rt, wallGain), len(rt))
}

// runTraced measures the per-layer metrics. It alternates, for the
// given time, a pass through the engine (the workload's protocol and
// clients, counters read off the results) with a staged replay of the
// same pass through the layers' exported functions, one span per call;
// then it runs the approx suite once at each opt-in configuration point.
func runTraced(w workloadSpec, sc scale, seed int64, seconds float64, outDir string) *result {
	res := newResult(w, seed, true)
	log := &clientLog{}
	verifyTime := verify(w, sc, seed, log)
	r := &runner{w: w, sc: sc, seed: seed}
	r.setup(log)

	// First-touch statistics, as the first query to read a table pays.
	t0 := time.Now()
	cat := catalog.New()
	for name, t := range r.in.tables {
		cat.Register(t)
		if _, err := cat.TableStats(name); err != nil {
			log.fail("stats %s: %v", name, err)
		}
	}
	res.set("stats.collect_ms", time.Since(t0).Seconds()*1e3, len(r.in.tables))

	eng := &engineSide{last: map[callKey]engineAnswer{}, wall: map[callKey][]float64{}, sim: map[string]map[bool]cluster.Metrics{}}
	st := newStagedSide()
	m := newMirror(r.eng)
	epoch := time.Now()
	tracers := make([]*tracer, w.Clients)
	for c := range tracers {
		tracers[c] = &tracer{epoch: epoch, client: c}
	}

	runtime.GC()
	var engineCalls int
	var allocBytes, allocs uint64
	var hits, misses int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	repeats := 0
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		eng.counting, st.firstRepeatCounting = n == 0, n == 0
		before, g0 := memStats(), metrics.Gauges()
		pass := &clientLog{}
		r.enginePass(n, eng, pass)
		after, g1 := memStats(), metrics.Gauges()
		allocBytes += after.TotalAlloc - before.TotalAlloc
		allocs += after.Mallocs - before.Mallocs
		engineCalls += pass.calls()
		if n == 0 {
			hits, misses = g1.PlanCacheHits-g0.PlanCacheHits, g1.PlanCacheMisses-g0.PlanCacheMisses
		}
		log.merge(pass)
		r.stagedPass(n, m, tracers, eng, st, log)
		repeats++
	}

	runtime.GC()
	res.set("engine.live_heap_mb", float64(memStats().HeapAlloc)/mb, 1)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.set("engine.peak_rss_mb", float64(ru.Maxrss)/1024, 1)
	}

	st.report(res, len(r.in.approx))
	eng.report(res, engineCalls/repeats)
	res.set("engine.plan_cache_hits", float64(hits), int(hits+misses))
	res.set("engine.plan_cache_misses", float64(misses), int(hits+misses))
	res.set("engine.alloc_mb_per_query", float64(allocBytes)/mb/float64(engineCalls), engineCalls)
	res.set("engine.allocs_per_query", float64(allocs)/float64(engineCalls), engineCalls)
	res.Counts["engine.plan_cache_hits"] = hits
	res.Counts["engine.plan_cache_misses"] = misses
	compareReplay(res, log, eng, st)

	r.optInPoints(res, log)
	r.tableLayer(res, log)

	path := filepath.Join(outDir, "trace_"+w.Name+".json")
	if err := writeChromeTrace(path, tracers); err != nil {
		log.fail("write trace: %v", err)
	}
	res.Attempted, res.Failures = log.attempted, log.failures
	res.Notes = append(res.Notes,
		fmt.Sprintf("verify_s %.3f", verifyTime.Seconds()),
		fmt.Sprintf("%d repeats of engine pass + staged replay, %d clients, GOMAXPROCS %d; spans written to %s", repeats, w.Clients, runtime.GOMAXPROCS(0), path))
	return res
}

// optInPoints runs the approx suite at each opt-in configuration point
// through the engine's public Set* knobs, and puts every knob back.
// Answers must match the default configuration's bit for bit wherever
// the option promises that (pruning reads other partitions and does not).
func (r *runner) optInPoints(res *result, log *clientLog) {
	n := len(r.in.approx)
	r.eng.SetSeed(r.samplerSeed(0))
	base := r.optInPass(log, "default")
	res.set("exec.default.run_ms", base.runMs, n)

	t0 := time.Now()
	for _, t := range r.in.tables {
		t.EnsureColumnar()
	}
	res.set("table.columnarize_ms", time.Since(t0).Seconds()*1e3, len(r.in.tables))
	r.eng.SetColumnar(true)
	col := r.optInPass(log, "columnar")
	col.sameAs(base, log, "columnar")
	r.eng.SetColumnar(false)
	res.set("exec.columnar.run_ms", col.runMs, n)
	res.set("exec.columnar.kernel_lanes", float64(col.kernelLanes), n)
	res.set("exec.columnar.fallback_rows", float64(col.fallback), n)

	r.eng.SetBatchSize(-1)
	mat := r.optInPass(log, "materializing")
	mat.sameAs(base, log, "materializing")
	r.eng.SetBatchSize(0)
	res.set("exec.materializing.run_ms", mat.runMs, n)

	t0 = time.Now()
	for _, t := range r.in.tables {
		t.EnsureSummaries()
	}
	res.set("table.summaries_ms", time.Since(t0).Seconds()*1e3, len(r.in.tables))
	r.eng.SetPrune(true)
	pr := r.optInPass(log, "prune")
	r.eng.SetPrune(false)
	res.set("exec.prune.run_ms", pr.runMs, n)
	res.set("opt.prune.partitions_pruned_pct", pct(int(pr.partsPrun), int(pr.partsPrun+pr.partsScanned)), n)

	r.eng.SetSampleCache(sampleCacheBytes)
	r.optInPass(log, "sample cache, cold")
	g0 := metrics.Gauges()
	warm := r.optInPass(log, "sample cache, warm")
	g1 := metrics.Gauges()
	warm.sameAs(base, log, "the warm sample cache")
	res.set("samplecache.bytes_mb", float64(g1.SampleCacheBytes)/mb, 1)
	r.eng.SetSampleCache(0)
	lookups := (g1.SampleCacheHits - g0.SampleCacheHits) + (g1.SampleCacheMisses - g0.SampleCacheMisses)
	res.set("samplecache.warm.run_ms", warm.runMs, n)
	res.set("samplecache.hit_pct", pct(int(g1.SampleCacheHits-g0.SampleCacheHits), int(lookups)), int(lookups))

	// The HTTP service over the same engine, default configuration.
	srv := service.New(r.eng)
	h := srv.Handler()
	var over []float64
	for _, q := range r.in.approx {
		log.attempted++
		wall, err := serviceRoundTrip(h, srv, q.SQL)
		if err != nil {
			log.fail("%s service round trip: %v", q.ID, err)
			continue
		}
		if bare, ok := base.wallMs[q.ID]; ok {
			over = append(over, wall.Seconds()*1e3-bare)
		}
	}
	res.set("service.roundtrip_overhead_ms", mean(over), len(over))
}

// tableLayer measures the storage layer on its own.
func (r *runner) tableLayer(res *result, log *clientLog) {
	var bytes int64
	for _, t := range r.in.tables {
		bytes += t.ByteSize()
	}
	res.set("table.bytes_mb", float64(bytes)/mb, len(r.in.tables))

	// Append rate through the public API, on an engine of its own so the
	// workload's tables are left alone.
	rows := logRows(appendProbeRows, r.seed)
	probe := quickr.New()
	cols := []quickr.Column{
		{Name: "log_ts", Type: quickr.Int}, {Name: "log_uid", Type: quickr.Int},
		{Name: "log_url", Type: quickr.String}, {Name: "log_country", Type: quickr.String},
		{Name: "log_status", Type: quickr.Int}, {Name: "log_bytes", Type: quickr.Int},
		{Name: "log_latency_ms", Type: quickr.Float},
	}
	if err := probe.CreateTable("weblogs", cols, logParts); err != nil {
		log.fail("append probe: %v", err)
		return
	}
	t0 := time.Now()
	if err := probe.Insert("weblogs", rows); err != nil {
		log.fail("append probe: %v", err)
		return
	}
	res.set("table.append_rows_per_s", float64(len(rows))/time.Since(t0).Seconds(), len(rows))
}
