package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is a point-in-time copy of a Registry: flat maps keyed by
// expvar-style dotted names. It is a plain value — safe to retain,
// subtract, and render after the registry has moved on.
type Snapshot struct {
	// Counters maps metric name → count.
	Counters map[string]int64
	// Histograms maps metric name → stat. Latency histograms use the
	// "_ns" suffix and record nanoseconds.
	Histograms map[string]HistogramStat
	// LabeledCounters maps metric name → one-dimension labeled series.
	// A name present here may also be present in Counters: that entry is
	// the family's aggregate, derived at capture as the sum of these
	// values (overflow included).
	LabeledCounters map[string]LabeledCounter
	// LabeledHistograms is the histogram equivalent of LabeledCounters.
	LabeledHistograms map[string]LabeledHistogram
	// Gauges maps metric name → point-in-time level, sampled when the
	// snapshot was captured (Go runtime health: goroutines, heap in
	// use, GC pause total, GC cycles). Unlike counters these are not
	// monotone, so Sub carries the newer snapshot's values through
	// unchanged.
	Gauges map[string]int64
}

// LabeledCounter is one counter family split by a single label
// dimension. Zero-valued label slots are omitted at capture.
type LabeledCounter struct {
	// Label is the label key ("object", "relation").
	Label string
	// Values maps label value → count.
	Values map[string]int64
}

// LabeledHistogram is one histogram family split by a single label
// dimension. Slots that never observed are omitted at capture.
type LabeledHistogram struct {
	// Label is the label key ("object", "relation").
	Label string
	// Values maps label value → stat.
	Values map[string]HistogramStat
}

// Snapshot captures the registry. A family stored labeled is captured
// under its name twice over: the labeled series, and the aggregate
// derived from those same captured series as their sum, the overflow
// slot included. This is the one place aggregates are computed, so a
// snapshot's aggregate always equals the sum of its labeled values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:          make(map[string]int64, 64),
		Histograms:        make(map[string]HistogramStat, 16),
		LabeledCounters:   make(map[string]LabeledCounter, 32),
		LabeledHistograms: make(map[string]LabeledHistogram, 8),
	}
	c := func(name string, ctr *Counter) { s.Counters[name] = ctr.Load() }
	h := func(name string, hist *Histogram) { s.Histograms[name] = hist.Stat() }
	// split captures a labeled family without an aggregate: the
	// per-relation lookup costs, which nobody asks for in total.
	split := func(name string, v *CounterVec) map[string]int64 {
		vals := v.StatByLabel()
		if len(vals) > 0 {
			s.LabeledCounters[name] = LabeledCounter{Label: v.Set().Key(), Values: vals}
		}
		return vals
	}
	lc := func(name string, v *CounterVec) {
		var total int64
		for _, n := range split(name, v) {
			total += n
		}
		s.Counters[name] = total
	}
	lh := func(name string, v *HistogramVec) {
		vals := v.StatByLabel()
		if len(vals) > 0 {
			s.LabeledHistograms[name] = LabeledHistogram{Label: v.Set().Key(), Values: vals}
		}
		s.Histograms[name] = sumStats(v.bounds(), vals)
	}

	c("reldb.tx.commits", &r.Commits)
	c("reldb.tx.rollbacks", &r.Rollbacks)
	c("reldb.tx.txdone_hits", &r.TxDoneHits)
	c("reldb.tree.node_copies", &r.TreeNodeCopies)
	c("reldb.readtx.begins", &r.ReadTxBegins)
	c("reldb.readtx.stale_closes", &r.StaleCloses)
	c("reldb.readtx.stale_forks", &r.StaleForks)
	lc("reldb.wal.appends", r.WALAppendsByShard)
	lc("reldb.wal.bytes", r.WALBytesByShard)
	lc("reldb.wal.fsyncs", r.WALFsyncsByShard)
	lc("reldb.wal.checkpoints", r.WALCheckpointsByShard)
	c("reldb.wal.replayed", &r.WALReplayed)
	h("reldb.wal.fsync_ns", &r.WALFsyncNs)
	c("reldb.cross.prepares", &r.CrossPrepares)
	c("reldb.cross.commits", &r.CrossCommits)
	c("reldb.cross.aborts", &r.CrossAborts)
	h("reldb.tx.commit_ns", &r.CommitNs)
	h("reldb.readtx.lag_generations", &r.ReadTxLag)
	split("reldb.relation.scanned", r.RelScanned)
	split("reldb.relation.probes", r.RelProbes)
	split("reldb.relation.scans", r.RelScans)

	lc("viewobject.instantiate.calls", r.InstCallsByObject)
	lc("viewobject.instantiate.tuples_scanned", r.InstTuplesByObject)
	lc("viewobject.instantiate.nodes", r.InstNodesByObject)
	lh("viewobject.instantiate.ns", r.InstantiateNsByObject)
	c("viewobject.instantiate.batched_lookups", &r.BatchedLookups)
	h("viewobject.instantiate.level_fanout", &r.LevelFanOut)
	c("viewobject.materialize.hits", &r.MatHits)
	c("viewobject.materialize.misses", &r.MatMisses)
	c("viewobject.materialize.patches", &r.MatPatches)
	c("viewobject.materialize.falls_back", &r.MatFallbacks)
	h("viewobject.materialize.patch_ns", &r.MatPatchNs)

	lc("vupdate.updates.committed", r.CommittedByObject)
	lc("vupdate.updates.rejected", r.RejectedByObject)
	for i := Step(0); i < NumSteps; i++ {
		lh("vupdate.step."+stepNames[i]+"_ns", r.StepNsByObject[i])
	}
	for i := 0; i < NumOpKinds; i++ {
		lc("vupdate.ops."+opNames[i], r.OpsByObject[i])
	}
	for i := 0; i < NumRejectReasons; i++ {
		lc("vupdate.reject."+rejectReasonNames[i], r.RejectsByObject[i])
	}

	lc("penguin.http.requests", r.HTTPRequestsByEndpoint)
	lc("penguin.http.shed", r.HTTPShedByEndpoint)
	lh("penguin.http.ns", r.HTTPNsByEndpoint)
	for i := 0; i < NumStatusClasses; i++ {
		lc("penguin.http.status."+statusClassNames[i], r.HTTPStatusByEndpoint[i])
	}

	c("obs.slowtrace.captured", &r.SlowTraceCaptured)
	c("obs.slowtrace.dropped", &r.SlowTraceDropped)
	s.Gauges = sampleRuntimeGauges()
	return s
}

// Capture snapshots the Default registry.
func Capture() Snapshot { return Default.Snapshot() }

// Counter returns a counter by name (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Histogram returns a histogram stat by name (zero stat when absent).
func (s Snapshot) Histogram(name string) HistogramStat { return s.Histograms[name] }

// Sub returns the metric-wise difference s − prev: the activity between
// two snapshots of the same registry.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:          make(map[string]int64, len(s.Counters)),
		Histograms:        make(map[string]HistogramStat, len(s.Histograms)),
		LabeledCounters:   make(map[string]LabeledCounter, len(s.LabeledCounters)),
		LabeledHistograms: make(map[string]LabeledHistogram, len(s.LabeledHistograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v.Sub(prev.Histograms[k])
	}
	for k, fam := range s.LabeledCounters {
		pf := prev.LabeledCounters[k]
		d := LabeledCounter{Label: fam.Label, Values: make(map[string]int64, len(fam.Values))}
		for lv, n := range fam.Values {
			if n -= pf.Values[lv]; n != 0 {
				d.Values[lv] = n
			}
		}
		if len(d.Values) > 0 {
			out.LabeledCounters[k] = d
		}
	}
	for k, fam := range s.LabeledHistograms {
		pf := prev.LabeledHistograms[k]
		d := LabeledHistogram{Label: fam.Label, Values: make(map[string]HistogramStat, len(fam.Values))}
		for lv, st := range fam.Values {
			dst := st.Sub(pf.Values[lv])
			if dst.Count != 0 || dst.Sum != 0 {
				d.Values[lv] = dst
			}
		}
		if len(d.Values) > 0 {
			out.LabeledHistograms[k] = d
		}
	}
	// Gauges are levels, not counts: the delta of two heap sizes is not
	// a meaningful heap size, so the newer snapshot's sample carries
	// through as-is.
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(s.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
	}
	return out
}

// WriteText renders the snapshot as "name value" lines — expvar-style
// flat keys — grouped per metric and sorted by metric name. A counter is
// one line; a histogram expands into .count, .sum, .mean, then one
// .le_* line per bucket bound in ascending numeric order carrying the
// cumulative count of observations ≤ that bound (Prometheus `le`
// semantics), ending in .le_inf == .count. Bounds below the smallest
// observation (cumulative count still zero) are skipped. Labeled series
// follow their aggregate as name{label=value} lines, label values
// sorted:
//
//	reldb.tx.commits 42
//	reldb.tx.commit_ns.count 42
//	reldb.tx.commit_ns.sum 774165
//	reldb.tx.commit_ns.mean 18432.5
//	reldb.tx.commit_ns.le_100000 40
//	reldb.tx.commit_ns.le_1000000 42
//	reldb.tx.commit_ns.le_inf 42
//	reldb.relation.scanned{relation=COURSES} 812
//
// Earlier revisions sorted the rendered lines lexicographically (which
// put le_10 before le_2 and le_100000 before le_2500) and emitted raw
// per-bucket counts under the cumulative-sounding le_ names; both are
// fixed here and pinned by TestWriteTextBucketOrdering.
func WriteText(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters)+len(s.Histograms))
	seen := make(map[string]bool)
	for _, m := range []map[string]bool{namesOf(s.Counters), namesOf(s.Histograms),
		namesOf(s.LabeledCounters), namesOf(s.LabeledHistograms), namesOf(s.Gauges)} {
		for n := range m {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)

	var lines []string
	for _, name := range names {
		if v, ok := s.Counters[name]; ok {
			lines = append(lines, fmt.Sprintf("%s %d", name, v))
		}
		if v, ok := s.Gauges[name]; ok {
			lines = append(lines, fmt.Sprintf("%s %d", name, v))
		}
		if st, ok := s.Histograms[name]; ok {
			lines = append(lines, textHistLines(name, st)...)
		}
		if fam, ok := s.LabeledCounters[name]; ok {
			for _, lv := range sortedKeys(fam.Values) {
				lines = append(lines, fmt.Sprintf("%s{%s=%s} %d", name, fam.Label, lv, fam.Values[lv]))
			}
		}
		if fam, ok := s.LabeledHistograms[name]; ok {
			for _, lv := range sortedKeys(fam.Values) {
				series := fmt.Sprintf("%s{%s=%s}", name, fam.Label, lv)
				lines = append(lines, textHistLines(series, fam.Values[lv])...)
			}
		}
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// textHistLines expands one histogram series into its WriteText lines:
// count, sum, mean, then cumulative le_* lines in bound order.
func textHistLines(prefix string, st HistogramStat) []string {
	lines := []string{
		fmt.Sprintf("%s.count %d", prefix, st.Count),
		fmt.Sprintf("%s.sum %d", prefix, st.Sum),
		fmt.Sprintf("%s.mean %.1f", prefix, st.Mean()),
	}
	var cum int64
	for i, n := range st.Buckets {
		cum += n
		if cum == 0 {
			continue // below the smallest observation
		}
		if i < len(st.Bounds) {
			lines = append(lines, fmt.Sprintf("%s.le_%d %d", prefix, st.Bounds[i], cum))
		} else {
			lines = append(lines, fmt.Sprintf("%s.le_inf %d", prefix, cum))
		}
	}
	return lines
}

// namesOf collects a map's keys as a set (generic over the value type).
func namesOf[V any](m map[string]V) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// sortedKeys returns a map's keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary condenses the snapshot into one line for workload reports:
// commit and instantiation volume, mean latencies, op and rejection
// totals. Durations render in time.Duration notation.
func (s Snapshot) Summary() string {
	var ops, rejects int64
	for i := 0; i < NumOpKinds; i++ {
		ops += s.Counter("vupdate.ops." + opNames[i])
	}
	for i := 0; i < NumRejectReasons; i++ {
		rejects += s.Counter("vupdate.reject." + rejectReasonNames[i])
	}
	commit := s.Histogram("reldb.tx.commit_ns")
	inst := s.Histogram("viewobject.instantiate.ns")
	return fmt.Sprintf(
		"commits=%d (mean %s) rollbacks=%d instantiations=%d (mean %s) tuples_scanned=%d dbops=%d rejections=%d node_copies=%d",
		s.Counter("reldb.tx.commits"), time.Duration(int64(commit.Mean())),
		s.Counter("reldb.tx.rollbacks"),
		s.Counter("viewobject.instantiate.calls"), time.Duration(int64(inst.Mean())),
		s.Counter("viewobject.instantiate.tuples_scanned"),
		ops, rejects,
		s.Counter("reldb.tree.node_copies"))
}
