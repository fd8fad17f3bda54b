package obs

import "runtime"

// Go runtime health gauges, sampled at snapshot time (Registry.Snapshot
// / Capture) — there is no background sampling goroutine, so an idle
// process costs nothing and every scrape reflects the instant it was
// taken. The values are point-in-time levels, not monotone counts;
// Snapshot.Sub keeps the newer snapshot's values untouched.
const (
	// GaugeGoroutines is the live goroutine count.
	GaugeGoroutines = "runtime.goroutines"
	// GaugeHeapInuse is the heap memory in use, in bytes (spans with at
	// least one live object).
	GaugeHeapInuse = "runtime.heap_inuse_bytes"
	// GaugeGCPauseTotal is the cumulative stop-the-world GC pause, in
	// nanoseconds, since process start.
	GaugeGCPauseTotal = "runtime.gc.pause_total_ns"
	// GaugeGCCycles is the number of completed GC cycles since process
	// start.
	GaugeGCCycles = "runtime.gc.cycles"
)

// sampleRuntimeGauges reads the runtime once. ReadMemStats briefly
// stops the world, which is acceptable at scrape/snapshot frequency.
func sampleRuntimeGauges() map[string]int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]int64{
		GaugeGoroutines:   int64(runtime.NumGoroutine()),
		GaugeHeapInuse:    int64(ms.HeapInuse),
		GaugeGCPauseTotal: int64(ms.PauseTotalNs),
		GaugeGCCycles:     int64(ms.NumGC),
	}
}
