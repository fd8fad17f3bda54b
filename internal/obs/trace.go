package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one completed span of an operation's tree (or a point event
// with zero duration): a dotted name, a small preformatted detail, and
// its causal identity — which operation it belongs to (TraceID) and
// where it sits in that operation's tree (SpanID/ParentID).
type Event struct {
	// Name is the dotted event name, e.g. "vupdate.step.translate".
	Name string
	// Detail is a short preformatted description.
	Detail string
	// Start is when the span began.
	Start time.Time
	// Dur is the span duration (0 for point events).
	Dur time.Duration
	// TraceID identifies the operation this span belongs to (the root
	// span's SpanID).
	TraceID uint64
	// SpanID identifies this span within its trace.
	SpanID uint64
	// ParentID is the SpanID of the enclosing span (0 for a root span).
	ParentID uint64
}

// End returns when the span finished (Start for point events).
func (e Event) End() time.Time { return e.Start.Add(e.Dur) }

// String renders one trace line with a compact trace/span/parent
// suffix, so the shell's `.trace N` view shows which operation each
// span belongs to.
func (e Event) String() string {
	s := fmt.Sprintf("%-32s %10s", e.Name, e.Dur)
	if e.Detail != "" {
		s += "  " + e.Detail
	}
	if e.ParentID != 0 {
		return s + fmt.Sprintf(" (t=%d s=%d p=%d)", e.TraceID, e.SpanID, e.ParentID)
	}
	return s + fmt.Sprintf(" (t=%d s=%d)", e.TraceID, e.SpanID)
}

// Op is a lightweight handle on one in-flight operation's span tree. The
// zero value is inactive: every method is a no-op costing a nil check, so
// instrumented paths thread Op values unconditionally and stay
// allocation-free when no flight recorder is installed. An active Op
// (from Registry.StartOp) carries the trace identity; Child spans
// inherit it, so an operation and everything it calls yield one
// connected tree.
//
// Op is a value type and safe to copy across goroutines: span-ID
// allocation is atomic and the collector behind col is mutex-protected.
type Op struct {
	col    *opCollector // the op's span buffer; nil when inactive
	name   string
	start  time.Time
	trace  uint64
	span   uint64
	parent uint64
}

// Active reports whether the op records anything. Call sites gate
// Detail formatting (fmt.Sprintf) behind it to keep hot paths
// allocation-free when observability is off.
func (o Op) Active() bool { return o.col != nil }

// TraceID returns the op's trace identity (0 when inactive).
func (o Op) TraceID() uint64 { return o.trace }

// SpanID returns the op's own span identity (0 when inactive).
func (o Op) SpanID() uint64 { return o.span }

// Start returns when the span began (zero when inactive).
func (o Op) Start() time.Time { return o.start }

// Child starts a sub-span of this op beginning now. Finish it like any
// op. Inactive parents return an inactive child.
func (o Op) Child(name string) Op {
	return o.ChildAt(name, time.Now())
}

// ChildAt starts a sub-span with an explicit start time, for call sites
// that timestamped the interval before deciding to trace it (e.g. a
// commit span covering Begin→Commit).
func (o Op) ChildAt(name string, start time.Time) Op {
	if o.col == nil {
		return Op{}
	}
	return Op{
		col:    o.col,
		name:   name,
		start:  start,
		trace:  o.trace,
		span:   o.col.reg.opSeq.Add(1),
		parent: o.span,
	}
}

// Finish completes the span with the interval [start, now) and buffers
// it in the op's collector. Finishing the root span seals the op: the
// buffered tree is retained as a SlowTrace when the root duration
// reaches the recorder threshold and discarded otherwise. Detail should
// be preformatted under an Active() gate.
func (o Op) Finish(detail string) {
	if o.col == nil {
		return
	}
	ev := Event{
		Name:     o.name,
		Detail:   detail,
		Start:    o.start,
		Dur:      time.Since(o.start),
		TraceID:  o.trace,
		SpanID:   o.span,
		ParentID: o.parent,
	}
	o.col.add(ev)
	if o.parent == 0 {
		o.col.seal(ev)
	}
}

// Span records an already-completed child span of this op — for call
// sites that measured an interval themselves and only afterwards know
// it is worth a span (e.g. the delta-publish window inside the commit
// critical section, emitted after the lock is released).
func (o Op) Span(name, detail string, start time.Time, dur time.Duration) {
	if o.col == nil {
		return
	}
	o.col.add(Event{
		Name:     name,
		Detail:   detail,
		Start:    start,
		Dur:      dur,
		TraceID:  o.trace,
		SpanID:   o.col.reg.opSeq.Add(1),
		ParentID: o.span,
	})
}

// StartOp begins a root span for a new operation. It returns the
// inactive zero Op — without touching the ID allocator — unless the
// flight recorder is installed, so the disabled path costs one atomic
// load and zero allocations.
func (r *Registry) StartOp(name string) Op {
	return r.StartOpAt(name, time.Time{})
}

// StartOpAt is StartOp with an explicit start time (zero means now),
// for retroactive roots wrapped around an interval that was timed
// before the op was created.
func (r *Registry) StartOpAt(name string, start time.Time) Op {
	rec := r.recorder.Load()
	if rec == nil {
		return Op{}
	}
	if start.IsZero() {
		start = time.Now()
	}
	id := r.opSeq.Add(1)
	return Op{col: &opCollector{reg: r, rec: rec}, name: name, start: start, trace: id, span: id}
}

// OpUnder returns a child of parent when parent is active, and
// otherwise starts a new root op — the idiom for entry points that are
// sometimes called inside a larger traced operation (materializer
// rebuilds calling Instantiate) and sometimes stand alone.
func (r *Registry) OpUnder(parent Op, name string) Op {
	if parent.Active() {
		return parent.Child(name)
	}
	return r.StartOp(name)
}

// DefaultRecorderSpanCap bounds the spans buffered per operation;
// beyond it spans are dropped and counted in SlowTrace.TruncatedSpans.
const DefaultRecorderSpanCap = 512

// opCollector buffers the spans of one in-flight op for the flight
// recorder it started under. It is shared (by pointer) between every Op
// handle of the trace, including handles copied into worker goroutines,
// so it is mutex-protected. Sealing happens exactly once, when the root span
// finishes; spans finishing after the seal (a leaked handle) are
// ignored.
type opCollector struct {
	reg    *Registry
	rec    *Recorder
	mu     sync.Mutex
	spans  []Event
	extra  int
	sealed bool
}

func (c *opCollector) add(ev Event) {
	c.mu.Lock()
	if !c.sealed {
		if len(c.spans) < DefaultRecorderSpanCap {
			c.spans = append(c.spans, ev)
		} else {
			c.extra++
		}
	}
	c.mu.Unlock()
}

func (c *opCollector) seal(root Event) {
	c.mu.Lock()
	spans, extra := c.spans, c.extra
	c.spans, c.sealed = nil, true
	c.mu.Unlock()
	if root.Dur < c.rec.threshold {
		return // fast op: discard the buffer
	}
	c.reg.SlowTraceCaptured.Inc()
	if c.rec.keep(SlowTrace{
		TraceID:        root.TraceID,
		Name:           root.Name,
		Detail:         root.Detail,
		Start:          root.Start,
		Dur:            root.Dur,
		Spans:          spans,
		TruncatedSpans: extra,
	}) {
		c.reg.SlowTraceDropped.Inc()
	}
}

// SlowTrace is one operation's span tree retained by the flight
// recorder. Spans appear in completion order (children before their
// parent, the root last) and every span carries the same TraceID.
type SlowTrace struct {
	TraceID uint64
	Name    string        // root span name
	Detail  string        // root span detail
	Start   time.Time     // root span start
	Dur     time.Duration // root span duration
	Spans   []Event       // the whole tree, root included, completion order
	// TruncatedSpans counts spans dropped past DefaultRecorderSpanCap.
	TruncatedSpans int
}

// Validate checks span-tree well-formedness: exactly one root, every
// span carrying the trace's ID, every ParentID resolving to a span of
// the trace, and every child's interval contained in its parent's.
func (t SlowTrace) Validate() error {
	if len(t.Spans) == 0 {
		return fmt.Errorf("trace %d: no spans", t.TraceID)
	}
	byID := make(map[uint64]Event, len(t.Spans))
	roots := 0
	for _, s := range t.Spans {
		if s.TraceID != t.TraceID {
			return fmt.Errorf("trace %d: span %d carries trace %d", t.TraceID, s.SpanID, s.TraceID)
		}
		if s.SpanID == 0 {
			return fmt.Errorf("trace %d: span %q has no id", t.TraceID, s.Name)
		}
		if _, dup := byID[s.SpanID]; dup {
			return fmt.Errorf("trace %d: duplicate span id %d", t.TraceID, s.SpanID)
		}
		byID[s.SpanID] = s
		if s.ParentID == 0 {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("trace %d: %d root spans, want 1", t.TraceID, roots)
	}
	for _, s := range t.Spans {
		if s.ParentID == 0 {
			continue
		}
		p, ok := byID[s.ParentID]
		if !ok {
			return fmt.Errorf("trace %d: span %d (%s) has unresolvable parent %d",
				t.TraceID, s.SpanID, s.Name, s.ParentID)
		}
		if s.Start.Before(p.Start) || s.End().After(p.End()) {
			return fmt.Errorf("trace %d: span %d (%s) interval outside parent %d (%s)",
				t.TraceID, s.SpanID, s.Name, p.SpanID, p.Name)
		}
	}
	return nil
}

// Render formats the span tree as an indented outline, children ordered
// by start time under their parent — the shell's `.trace slow N` view.
func (t SlowTrace) Render() string {
	children := make(map[uint64][]Event, len(t.Spans))
	var root *Event
	for i, s := range t.Spans {
		if s.ParentID == 0 && s.SpanID == t.TraceID {
			root = &t.Spans[i]
			continue
		}
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Start.Equal(cs[j].Start) {
				return cs[i].SpanID < cs[j].SpanID
			}
			return cs[i].Start.Before(cs[j].Start)
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d  %s  %s", t.TraceID, t.Name, t.Dur)
	if t.Detail != "" {
		fmt.Fprintf(&b, "  %s", t.Detail)
	}
	b.WriteByte('\n')
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		for _, s := range children[parent] {
			fmt.Fprintf(&b, "%s+%-10s %-32s %10s",
				strings.Repeat("  ", depth), s.Start.Sub(t.Start), s.Name, s.Dur)
			if s.Detail != "" {
				fmt.Fprintf(&b, "  %s", s.Detail)
			}
			b.WriteByte('\n')
			walk(s.SpanID, depth+1)
		}
	}
	if root != nil {
		walk(root.SpanID, 1)
	} else {
		walk(0, 1)
	}
	if t.TruncatedSpans > 0 {
		fmt.Fprintf(&b, "  … %d spans truncated\n", t.TruncatedSpans)
	}
	return b.String()
}

// Recorder is the flight recorder: per-op span buffers are discarded
// when the op completes under the latency threshold and retained into a
// bounded ring of slow traces when it does not — tail-latency outliers
// are always captured without tracing everything. Install one with
// Registry.SetRecorder.
type Recorder struct {
	threshold time.Duration // <= 0 retains every completed op
	capacity  int
	mu        sync.Mutex
	traces    []SlowTrace // oldest first
}

// NewRecorder creates a flight recorder retaining ops whose root span
// lasts at least threshold (0 retains everything) into a ring of at
// most capacity traces.
func NewRecorder(threshold time.Duration, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{threshold: threshold, capacity: capacity}
}

// Threshold returns the retention threshold.
func (r *Recorder) Threshold() time.Duration { return r.threshold }

// keep retains one trace, reporting whether an older trace was evicted.
func (r *Recorder) keep(t SlowTrace) (evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.traces) >= r.capacity {
		copy(r.traces, r.traces[1:])
		r.traces[len(r.traces)-1] = t
		return true
	}
	r.traces = append(r.traces, t)
	return false
}

// Traces returns the retained slow traces, oldest first. The slice is a
// copy; the Span slices are shared but never mutated after capture.
func (r *Recorder) Traces() []SlowTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SlowTrace, len(r.traces))
	copy(out, r.traces)
	return out
}

// Trace returns the retained trace with the given TraceID.
func (r *Recorder) Trace(id uint64) (SlowTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.traces {
		if t.TraceID == id {
			return t, true
		}
	}
	return SlowTrace{}, false
}

// SetRecorder installs (or, with nil, removes) the flight recorder.
// Ops started before the swap finish against the recorder they started
// with.
func (r *Registry) SetRecorder(rec *Recorder) {
	r.recorder.Store(rec)
}

// Recorder returns the installed flight recorder (nil when off).
func (r *Registry) Recorder() *Recorder { return r.recorder.Load() }
