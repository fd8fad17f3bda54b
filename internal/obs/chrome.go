package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event JSON export: any SlowTrace captured by the flight
// recorder opens in chrome://tracing or Perfetto (ui.perfetto.dev).
//
// Each span becomes one complete ("ph":"X") event. Timestamps are
// microseconds relative to the earliest root start across the exported
// traces, so the viewer's time axis starts at zero. Every trace gets
// its own pid; within a trace, spans are laid out onto tids by greedy
// interval coloring — each span takes the lowest lane whose previous
// occupant has already ended — so overlapping spans (a parent and its
// children) always render on separate rows.

// chromeEvent is one trace-event object, per the Trace Event Format
// ("X" = complete event with an explicit duration).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since export epoch
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON Object Format wrapper.
type chromeFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChromeTrace writes the traces as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, traces []SlowTrace) error {
	f := chromeFile{
		TraceEvents:     []chromeEvent{}, // never null, even with no traces
		DisplayTimeUnit: "ms",
	}
	// Export epoch: the earliest span start across all traces.
	var epochSet bool
	var epoch int64
	for _, tr := range traces {
		for _, s := range tr.Spans {
			if ns := s.Start.UnixNano(); !epochSet || ns < epoch {
				epoch, epochSet = ns, true
			}
		}
	}
	for i, tr := range traces {
		f.TraceEvents = append(f.TraceEvents, chromeSpans(tr, i+1, epoch)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// chromeSpans lays one trace's spans out into events on lanes.
func chromeSpans(tr SlowTrace, pid int, epoch int64) []chromeEvent {
	spans := make([]Event, len(tr.Spans))
	copy(spans, tr.Spans)
	// Lay out in start order; ties broken depth-first by span id so a
	// parent claims its lane before its same-instant children.
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start.Equal(spans[j].Start) {
			return spans[i].SpanID < spans[j].SpanID
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	var laneEnds []int64 // per-lane end time, ns
	out := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		startNs, endNs := s.Start.UnixNano(), s.End().UnixNano()
		lane := -1
		for l, end := range laneEnds {
			if end <= startNs {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnds)
			laneEnds = append(laneEnds, 0)
		}
		laneEnds[lane] = endNs
		args := map[string]any{
			"trace":  s.TraceID,
			"span":   s.SpanID,
			"parent": s.ParentID,
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		out = append(out, chromeEvent{
			Name: s.Name,
			Cat:  "penguin",
			Ph:   "X",
			Ts:   float64(startNs-epoch) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  lane,
			Args: args,
		})
	}
	return out
}
