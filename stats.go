package penguin

import (
	"io"
	"time"

	"penguin/internal/obs"
	"penguin/internal/vupdate"
)

// Observability (internal/obs): engine-wide metrics and tracing.
type (
	// StatsSnapshot is a point-in-time copy of the engine metrics —
	// counters and histograms keyed by expvar-style dotted names.
	StatsSnapshot = obs.Snapshot
	// HistogramStat is one histogram's snapshot (count, sum, buckets).
	HistogramStat = obs.HistogramStat
	// TraceEvent is one span of an operation's tree, with its causal
	// identity (TraceID/SpanID/ParentID).
	TraceEvent = obs.Event
	// TraceOp is a handle on one operation's span tree; the engine
	// threads one through every update, instantiation, and serve.
	TraceOp = obs.Op
	// SlowTrace is one operation's span tree retained by the flight
	// recorder (Validate checks well-formedness, Render formats an
	// indented outline).
	SlowTrace = obs.SlowTrace
	// FlightRecorder retains the span trees of operations whose root
	// span exceeds a latency threshold, in a bounded ring.
	FlightRecorder = obs.Recorder
	// RejectReason classifies why an update translation was rejected.
	RejectReason = vupdate.Reason
)

// Rejection reasons (vupdate.reject.* counters).
const (
	ReasonUnknown          = vupdate.ReasonUnknown
	ReasonNoInstance       = vupdate.ReasonNoInstance
	ReasonTranslatorPolicy = vupdate.ReasonTranslatorPolicy
	ReasonIntegrity        = vupdate.ReasonIntegrity
	ReasonAmbiguousKey     = vupdate.ReasonAmbiguousKey
	ReasonConflict         = vupdate.ReasonConflict
)

// Stats captures the engine metrics accumulated so far by every layer
// (reldb transactions, view-object instantiation, the §5 update
// pipeline, the Keller baseline). Subtract two snapshots with Sub to
// measure one workload's activity.
func Stats() StatsSnapshot { return obs.Capture() }

// WriteStats renders a snapshot as sorted "name value" text lines.
func WriteStats(w io.Writer, s StatsSnapshot) error { return obs.WriteText(w, s) }

// WriteProm renders a snapshot in the Prometheus text exposition format
// (version 0.0.4): `# TYPE` headers, sanitized metric names, histograms
// as cumulative `_bucket{le="..."}` series ending in `+Inf` plus `_sum`
// and `_count`, and the per-view-object / per-relation families as
// labeled series. Serve it from an HTTP handler (or use ServeMetrics)
// to scrape the engine.
func WriteProm(w io.Writer, s StatsSnapshot) error { return obs.WriteProm(w, s) }

// MetricsServer is a running metrics/debug HTTP listener (hardened
// timeouts; Shutdown drains in-flight scrapes, Close stops hard).
type MetricsServer = obs.HTTPServer

// ServeMetrics starts an HTTP listener on addr exposing the engine
// metrics at /metrics in the Prometheus exposition format (plus
// /debug/traces and /debug/pprof/). The returned handle's Addr carries
// the resolved port for ":0"; Shutdown it to drain, or Close to stop.
func ServeMetrics(addr string) (*MetricsServer, error) { return obs.Serve(addr) }

// RejectReasonOf extracts the rejection reason from an update error
// (ReasonUnknown when the error carries none).
var RejectReasonOf = vupdate.ReasonOf

// NewFlightRecorder creates a flight recorder retaining operations
// whose root span lasts at least threshold (0 retains every completed
// operation) into a ring of at most capacity slow traces.
func NewFlightRecorder(threshold time.Duration, capacity int) *FlightRecorder {
	return obs.NewRecorder(threshold, capacity)
}

// SetFlightRecorder installs (or, with nil, removes) the engine flight
// recorder. While installed, every top-level operation (view-object
// update, instantiation, materialized serve, Keller translation)
// buffers its span tree; trees whose root exceeds the recorder's
// threshold are retained and readable via SlowTraces (threshold 0
// retains every operation). With no recorder installed — the default —
// the instrumented hot paths skip span construction entirely and stay
// allocation-free.
func SetFlightRecorder(rec *FlightRecorder) { obs.Default.SetRecorder(rec) }

// SlowTraces returns the slow traces the installed flight recorder has
// retained, oldest first (nil without a recorder).
func SlowTraces() []SlowTrace {
	if rec := obs.Default.Recorder(); rec != nil {
		return rec.Traces()
	}
	return nil
}

// WriteChromeTrace writes traces as Chrome trace-event JSON — load the
// output into chrome://tracing or Perfetto to see the span tree on a
// timeline.
func WriteChromeTrace(w io.Writer, traces []SlowTrace) error {
	return obs.WriteChromeTrace(w, traces)
}

// StartTraceOp opens a root span for an application-level operation so
// engine spans triggered underneath it join its trace; finish it with
// Finish. It returns an inactive no-op handle unless a flight recorder
// is installed.
func StartTraceOp(name string) TraceOp { return obs.Default.StartOp(name) }
