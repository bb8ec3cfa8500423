// Package service exposes a quickr Engine over HTTP/JSON: a small
// asynchronous query service with submit, status, cancel and result
// endpoints plus process-wide gauges, so one engine can serve many
// concurrent clients through the shared worker pool and the byte-budget
// admission gate.
//
// Endpoints:
//
//	POST /query               {"sql": "...", "mode": "exact"|"approx"} → {"id": "..."}
//	GET  /query/{id}          status; includes the result (with error bars) once done
//	POST /query/{id}/cancel   cancel a queued or running query
//	GET  /metrics             process-wide pool/admission/cache gauges
//	GET  /debug/pprof/        live CPU/heap/goroutine profiles (net/http/pprof)
//
// A submitted query runs on its own goroutine under a cancellable
// context; cancellation takes effect within one executor batch boundary
// (the query returns quickr.ErrCanceled and its status becomes
// "canceled"). The server keeps the results of the maxFinished most
// recently finished queries; an older id reads as unknown (404) — the
// service is a harness for interactive and test traffic, not a durable
// job store.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"quickr"
	"quickr/internal/metrics"
)

// Server is the HTTP query service over one Engine.
type Server struct {
	eng *quickr.Engine

	mu sync.Mutex
	// guarded-by: mu
	nextID uint64
	// guarded-by: mu
	queries map[string]*query
	// finished lists the ids of finished queries still in queries,
	// oldest first.
	// guarded-by: mu
	finished []string
}

// maxFinished bounds the finished queries (each holding its whole
// result) the server keeps; running queries do not count and are never
// dropped.
const maxFinished = 1024

// query tracks one submitted query through its lifecycle.
type query struct {
	id     string
	sql    string
	approx bool
	cancel context.CancelFunc

	mu sync.Mutex
	// guarded-by: mu
	status string // "running" | "done" | "error" | "canceled"
	// guarded-by: mu
	res *quickr.Result
	// guarded-by: mu
	err       error
	submitted time.Time
	// guarded-by: mu
	finished time.Time

	done chan struct{}
}

// New builds a Server over the engine.
func New(eng *quickr.Engine) *Server {
	return &Server{eng: eng, queries: map[string]*query{}}
}

// Handler returns the HTTP handler serving the query API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleSubmit)
	mux.HandleFunc("/query/", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Live profiling of a serving engine: `go tool pprof
	// host/debug/pprof/profile` against the hash-path hot loops. Routed
	// explicitly so the service never depends on http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// submitRequest is the POST /query body.
type submitRequest struct {
	SQL  string `json:"sql"`
	Mode string `json:"mode"` // "exact" (default) or "approx"
}

// submitResponse is the POST /query reply.
type submitResponse struct {
	ID string `json:"id"`
}

// estimateJSON is one aggregated group with its error bars.
type estimateJSON struct {
	Key        []any     `json:"key"`
	Values     []any     `json:"values"`
	StdErr     []float64 `json:"stderr"`
	CI95       []float64 `json:"ci95"`
	SampleRows int64     `json:"sample_rows"`
}

// resultJSON is the completed-query payload inside a status response.
type resultJSON struct {
	Columns   []string          `json:"columns"`
	Rows      [][]any           `json:"rows"`
	Estimates []estimateJSON    `json:"estimates,omitempty"`
	Report    *quickr.RunReport `json:"report"`
	// Contract is the accuracy/latency contract outcome, present only
	// for contract-bearing queries.
	Contract *quickr.ContractReport `json:"contract,omitempty"`
}

// statusResponse is the GET /query/{id} (and cancel) reply.
type statusResponse struct {
	ID      string      `json:"id"`
	SQL     string      `json:"sql"`
	Mode    string      `json:"mode"`
	Status  string      `json:"status"`
	Error   string      `json:"error,omitempty"`
	Seconds float64     `json:"seconds"`
	Result  *resultJSON `json:"result,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /query")
		return
	}
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		httpError(w, http.StatusBadRequest, "empty sql")
		return
	}
	var approx bool
	switch req.Mode {
	case "", "exact":
	case "approx":
		approx = true
	default:
		httpError(w, http.StatusBadRequest, `mode must be "exact" or "approx"`)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	q := &query{
		sql:       req.SQL,
		approx:    approx,
		cancel:    cancel,
		status:    "running",
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.mu.Lock()
	s.nextID++
	q.id = fmt.Sprintf("q%d", s.nextID)
	s.queries[q.id] = q
	for len(s.finished) > maxFinished {
		delete(s.queries, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()

	go s.run(ctx, q)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(submitResponse{ID: q.id})
}

// run executes the query and records its outcome.
func (s *Server) run(ctx context.Context, q *query) {
	defer q.cancel()
	var res *quickr.Result
	var err error
	if q.approx {
		res, err = s.eng.ExecApproxContext(ctx, q.sql)
	} else {
		res, err = s.eng.ExecContext(ctx, q.sql)
	}
	q.mu.Lock()
	q.res, q.err = res, err
	q.finished = time.Now()
	switch {
	case err == nil:
		q.status = "done"
	case errors.Is(err, quickr.ErrCanceled) || errors.Is(err, quickr.ErrDeadline):
		q.status = "canceled"
	default:
		// quickr.ErrInternal among them: a panicking executor task fails
		// this query, and the server keeps serving the others.
		q.status = "error"
	}
	q.mu.Unlock()
	s.mu.Lock()
	s.finished = append(s.finished, q.id)
	s.mu.Unlock()
	close(q.done)
}

// handleQuery dispatches GET /query/{id} and POST /query/{id}/cancel.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/query/")
	id, action, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	q := s.queries[id]
	s.mu.Unlock()
	if q == nil {
		httpError(w, http.StatusNotFound, "unknown query "+id)
		return
	}
	switch {
	case action == "" && r.Method == http.MethodGet:
		s.writeStatus(w, q)
	case action == "cancel" && r.Method == http.MethodPost:
		q.cancel()
		s.writeStatus(w, q)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET /query/{id} or POST /query/{id}/cancel")
	}
}

func (s *Server) writeStatus(w http.ResponseWriter, q *query) {
	q.mu.Lock()
	resp := statusResponse{ID: q.id, SQL: q.sql, Mode: "exact", Status: q.status}
	if q.approx {
		resp.Mode = "approx"
	}
	end := q.finished
	if end.IsZero() {
		end = time.Now()
	}
	resp.Seconds = end.Sub(q.submitted).Seconds()
	if q.err != nil {
		resp.Error = q.err.Error()
	}
	if q.status == "done" && q.res != nil {
		rj := &resultJSON{
			Columns:  q.res.Columns,
			Rows:     q.res.Rows,
			Report:   q.res.RunReport(q.sql, q.approx),
			Contract: q.res.ContractReport(),
		}
		for _, g := range q.res.Estimates {
			rj.Estimates = append(rj.Estimates, estimateJSON{
				Key:        g.Key,
				Values:     g.Values,
				StdErr:     g.StdErr,
				CI95:       g.CI95,
				SampleRows: g.SampleRows,
			})
		}
		resp.Result = rj
	}
	q.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleMetrics serves the process-wide gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET /metrics")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(metrics.Gauges())
}

// Wait blocks until the query finishes (test hook; also used by the
// CLI's graceful shutdown).
func (s *Server) Wait(id string) bool {
	s.mu.Lock()
	q := s.queries[id]
	s.mu.Unlock()
	if q == nil {
		return false
	}
	<-q.done
	return true
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
