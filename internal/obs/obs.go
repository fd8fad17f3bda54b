// Package obs is the engine-wide observability layer: zero-dependency,
// race-clean metrics (atomic counters, striped histograms with fixed
// bucket bounds, bounded-cardinality labeled families) and causal span
// trees for the §5 update pipeline, retained by a flight recorder.
//
// Design constraints, in order:
//
//   - Race-clean. Every mutable word is accessed atomically; the whole
//     package is exercised under `go test -race` by the stress suite.
//   - Allocation-free when disabled. Counters and histograms are plain
//     atomic adds. Spans are the only part that allocates, and an Op is
//     active only while a Recorder is installed (one atomic load in
//     Registry.StartOp), so an instrumented hot path with no recorder
//     performs zero allocations and no formatting work.
//   - One store per fact. A metric split by a label is stored labeled
//     only and its aggregate derived at capture; a span goes to the
//     recorder and nowhere else.
//   - Zero dependencies. Standard library only, and nothing outside
//     sync/atomic + time on the hot paths.
//
// The package-level Default registry is what the engine packages (reldb,
// viewobject, vupdate, keller, serve, workload) write into;
// penguin.Stats() captures it as a Snapshot, obs.WriteText renders a
// snapshot with expvar-style dotted key names, and the cmd/penguin shell
// exposes both through the .stats and .trace commands.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters are monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }
