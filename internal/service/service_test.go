package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"quickr"
	"quickr/internal/metrics"
	"quickr/internal/testutil"
)

// newTestEngine builds an engine with one table of n rows: k = i%53,
// v = i.
func newTestEngine(t *testing.T, n int) *quickr.Engine {
	t.Helper()
	eng := quickr.New()
	if err := eng.CreateTable("t", []quickr.Column{
		{Name: "k", Type: quickr.Int},
		{Name: "v", Type: quickr.Float},
	}, 8); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		rows[i] = []any{i % 53, float64(i)}
	}
	if err := eng.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	return eng
}

type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func newTestClient(t *testing.T, srv *Server) *testClient {
	ts := httptest.NewServer(srv.Handler())
	c := &testClient{t: t, base: ts.URL, c: ts.Client()}
	t.Cleanup(func() {
		c.c.CloseIdleConnections()
		ts.Close()
	})
	return c
}

func (c *testClient) do(method, path string, body any, out any) int {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (c *testClient) submit(sql, mode string) string {
	c.t.Helper()
	var resp submitResponse
	code := c.do(http.MethodPost, "/query", submitRequest{SQL: sql, Mode: mode}, &resp)
	if code != http.StatusAccepted || resp.ID == "" {
		c.t.Fatalf("submit: code=%d resp=%+v", code, resp)
	}
	return resp.ID
}

func (c *testClient) status(id string) statusResponse {
	c.t.Helper()
	var st statusResponse
	if code := c.do(http.MethodGet, "/query/"+id, nil, &st); code != http.StatusOK {
		c.t.Fatalf("status %s: code=%d", id, code)
	}
	return st
}

// wait polls until the query leaves "running" (fails the test after a
// generous deadline).
func (c *testClient) wait(id string) statusResponse {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := c.status(id)
		if st.Status != "running" {
			return st
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("query %s still running after 60s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServiceSubmitStatusResult(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t, 5000)
	c := newTestClient(t, New(eng))

	id := c.submit("SELECT k, SUM(v) FROM t GROUP BY k", "exact")
	st := c.wait(id)
	if st.Status != "done" {
		t.Fatalf("status %q (err=%q), want done", st.Status, st.Error)
	}
	if st.Result == nil || len(st.Result.Rows) != 53 {
		t.Fatalf("result missing or wrong: %+v", st.Result)
	}
	if len(st.Result.Columns) != 2 {
		t.Fatalf("columns %v", st.Result.Columns)
	}
	if st.Result.Report == nil || st.Result.Report.Metrics.AdmittedBytes <= 0 {
		t.Fatalf("run report missing admission telemetry: %+v", st.Result.Report)
	}
	if len(st.Result.Estimates) != 53 {
		t.Fatalf("estimates carry %d groups, want 53", len(st.Result.Estimates))
	}
}

// Approx queries report error bars (CI95 per aggregate) in the result.
func TestServiceApproxCarriesErrorBars(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t, 20000)
	c := newTestClient(t, New(eng))

	id := c.submit("SELECT k, SUM(v) FROM t GROUP BY k", "approx")
	st := c.wait(id)
	if st.Status != "done" {
		t.Fatalf("status %q (err=%q)", st.Status, st.Error)
	}
	if st.Mode != "approx" {
		t.Fatalf("mode %q", st.Mode)
	}
	if st.Result == nil || len(st.Result.Estimates) == 0 {
		t.Fatal("no estimates in approx result")
	}
	for _, g := range st.Result.Estimates {
		if len(g.CI95) != 1 || len(g.StdErr) != 1 {
			t.Fatalf("estimate missing error bars: %+v", g)
		}
	}
}

// The acceptance bar: the service answers concurrent submit / status /
// cancel traffic, every query reaching a terminal state.
func TestServiceConcurrentTraffic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t, 20000)
	c := newTestClient(t, New(eng))

	const n = 24
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := "exact"
			if i%2 == 1 {
				mode = "approx"
			}
			sql := fmt.Sprintf("SELECT k, SUM(v), COUNT(*) FROM t WHERE v > %d GROUP BY k", i*10)
			ids[i] = c.submit(sql, mode)
		}(i)
	}
	wg.Wait()

	canceled := map[int]bool{}
	for i := 0; i < n; i += 5 {
		// Cancel a fifth of the queries mid-flight (or after they finish
		// — both are legal; the terminal state differs).
		c.do(http.MethodPost, "/query/"+ids[i]+"/cancel", nil, nil)
		canceled[i] = true
	}

	for i, id := range ids {
		st := c.wait(id)
		switch st.Status {
		case "done":
			if st.Result == nil || len(st.Result.Rows) == 0 {
				t.Fatalf("query %d done with no rows", i)
			}
		case "canceled":
			if !canceled[i] {
				t.Fatalf("query %d canceled but never asked to be", i)
			}
			if st.Error == "" {
				t.Fatalf("canceled query %d carries no error", i)
			}
		default:
			t.Fatalf("query %d ended %q (err=%q)", i, st.Status, st.Error)
		}
	}
}

// A canceled long query reaches "canceled" with the typed error text,
// while a concurrent query completes unaffected.
func TestServiceCancelRunningQuery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t, 300000)
	eng.SetBatchSize(32) // many batch boundaries → prompt cancellation
	c := newTestClient(t, New(eng))

	victim := c.submit("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k", "exact")
	bystander := c.submit("SELECT COUNT(*) FROM t WHERE k < 5", "exact")
	if code := c.do(http.MethodPost, "/query/"+victim+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: code=%d", code)
	}
	st := c.wait(victim)
	if st.Status != "canceled" {
		t.Fatalf("victim ended %q (err=%q), want canceled", st.Status, st.Error)
	}
	if st.Error != quickr.ErrCanceled.Error() {
		t.Fatalf("victim error %q, want %q", st.Error, quickr.ErrCanceled)
	}
	if by := c.wait(bystander); by.Status != "done" {
		t.Fatalf("bystander ended %q (err=%q)", by.Status, by.Error)
	}
}

func TestServiceMetricsEndpoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t, 2000)
	c := newTestClient(t, New(eng))
	id := c.submit("SELECT COUNT(*) FROM t", "exact")
	c.wait(id)

	var g metrics.GaugeSnapshot
	if code := c.do(http.MethodGet, "/metrics", nil, &g); code != http.StatusOK {
		t.Fatalf("metrics: code=%d", code)
	}
	if g.PoolWorkers < 1 {
		t.Fatalf("gauges report %d pool workers", g.PoolWorkers)
	}
	if g.PoolCompletedTasks < 1 {
		t.Fatalf("no completed pool tasks recorded: %+v", g)
	}
}

func TestServiceBadRequests(t *testing.T) {
	eng := newTestEngine(t, 100)
	c := newTestClient(t, New(eng))
	if code := c.do(http.MethodGet, "/query/nosuch", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: code=%d", code)
	}
	var out map[string]string
	if code := c.do(http.MethodPost, "/query", submitRequest{SQL: "SELECT 1", Mode: "turbo"}, &out); code != http.StatusBadRequest {
		t.Fatalf("bad mode: code=%d", code)
	}
	if code := c.do(http.MethodPost, "/query", submitRequest{SQL: "   "}, &out); code != http.StatusBadRequest {
		t.Fatalf("empty sql: code=%d", code)
	}
	if code := c.do(http.MethodGet, "/query", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: code=%d", code)
	}
	// A parse error surfaces as a terminal "error" status, not a hang.
	id := c.submit("SELEC nonsense", "exact")
	if st := c.wait(id); st.Status != "error" || st.Error == "" {
		t.Fatalf("parse failure ended %q (err=%q)", st.Status, st.Error)
	}
}

// The server keeps the newest maxFinished finished queries and every
// running one: an evicted id reads as unknown, a query still running
// when far more than maxFinished others have finished is untouched.
func TestServiceBoundsFinishedQueries(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := New(newTestEngine(t, 100))
	c := newTestClient(t, srv)

	// A query that stays "running" for the whole test: registered as
	// handleSubmit would, with no goroutine ever finishing it.
	srv.mu.Lock()
	srv.queries["running"] = &query{id: "running", status: "running", cancel: func() {}, submitted: time.Now(), done: make(chan struct{})}
	srv.mu.Unlock()

	const extra = 5
	ids := make([]string, maxFinished+extra)
	for i := range ids {
		ids[i] = c.submit("SELECT COUNT(*) FROM t", "exact")
		if !srv.Wait(ids[i]) {
			t.Fatalf("query %d evicted before it finished", i)
		}
	}

	srv.mu.Lock()
	kept, finished := len(srv.queries), len(srv.finished)
	srv.mu.Unlock()
	// Eviction runs on submit, so the query that finished after the last
	// submit rides on top of the bound until the next one.
	if finished != maxFinished+1 || kept != finished+1 {
		t.Fatalf("server keeps %d queries, %d of them finished; want %d and %d", kept, finished, maxFinished+2, maxFinished+1)
	}
	for _, id := range ids[len(ids)-extra:] {
		if st := c.status(id); st.Status != "done" || st.Result == nil {
			t.Fatalf("recent query %s: status %q, result %v", id, st.Status, st.Result)
		}
	}
	if code := c.do(http.MethodGet, "/query/"+ids[0], nil, nil); code != http.StatusNotFound {
		t.Fatalf("evicted query %s: code=%d, want 404", ids[0], code)
	}
	if st := c.status("running"); st.Status != "running" {
		t.Fatalf("running query: status %q", st.Status)
	}
}
