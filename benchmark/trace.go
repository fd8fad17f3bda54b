package main

// trace.go records the ledger's spans. The spans are taken from outside
// the engine, around the call into each layer; spans inside the engine
// are a later change (ROADMAP aim 4). They are kept in memory and
// written once, when the benchmark ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span of the next-outer layer (0 at the top).
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Duration // since the tracer's origin
}

type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{on: true, origin: time.Now()} }

// call times fn and, when tracing is on, records a span for it. It
// returns the span's ID for the next-inner layer to name as its parent,
// and the duration, which is measured either way: the difference between
// a traced and an untraced call is the tracing overhead the report
// states.
func (t *tracer) call(name string, req, parent int, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	if !t.on {
		return 0, end.Sub(start), err
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin),
	})
	return id, end.Sub(start), err
}

// writeChrome writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one track
// per layer, request and parent in args.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	tracks := map[string]int{}
	w := bufio.NewWriter(f)
	_, _ = w.WriteString("{\"traceEvents\":[\n") // a failed write shows at Flush
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		layer := s.Name
		for j := range layer {
			if layer[j] == '.' {
				layer = layer[:j]
				break
			}
		}
		if _, ok := tracks[layer]; !ok {
			tracks[layer] = len(tracks) + 1
		}
		if err := enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tracks[layer],
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
