package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans are recorded from the
// benchmark's own files, around the calls; nothing inside the program
// is instrumented.
type span struct {
	Name string
	// Request is shared by the spans of one staged call.
	Request int
	// Parent is the index, in the same tracer, of the span that caused
	// this one, or -1.
	Parent     int
	Start, End time.Duration // since the tracer's epoch
	Args       map[string]any
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records the spans of one client. Clients never share a tracer,
// so recording takes no lock; spans stay in memory until the run ends.
type tracer struct {
	epoch  time.Time
	client int
	spans  []span
}

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.epoch) }

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeChromeTrace writes the tracers' spans as Chrome trace-event JSON,
// which Perfetto and chrome://tracing open: one complete event per span,
// one thread per client.
func writeChromeTrace(path string, tracers []*tracer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	for _, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			args := map[string]any{"request": s.Request, "self_us": float64(self[i]) / 1e3}
			for k, v := range s.Args {
				args[k] = v
			}
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: s.Name, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: 1, Tid: t.client, Args: args,
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
