package obs

import (
	"strings"
	"sync"
	"testing"
)

// newHistogram returns a histogram over bounds, as Registry sets one up.
func newHistogram(bounds []int64) *Histogram {
	h := &Histogram{}
	h.init(bounds)
	return h
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(DurationBounds)
	h.Observe(500)           // ≤ 1µs
	h.Observe(5_000)         // ≤ 10µs
	h.Observe(2_000_000_000) // +Inf
	st := h.Stat()
	if st.Count != 3 {
		t.Fatalf("count = %d, want 3", st.Count)
	}
	if st.Sum != 500+5_000+2_000_000_000 {
		t.Fatalf("sum = %d", st.Sum)
	}
	if st.Buckets[0] != 1 || st.Buckets[1] != 1 || st.Buckets[len(st.Buckets)-1] != 1 {
		t.Fatalf("bucket layout wrong: %v", st.Buckets)
	}
	var total int64
	for _, b := range st.Buckets {
		total += b
	}
	if total != st.Count {
		t.Fatalf("Σbuckets %d != count %d", total, st.Count)
	}
}

// Concurrent observers never produce a snapshot with count > Σbuckets
// (the documented write/read ordering), and after quiescing the two are
// exactly equal.
func TestHistogramConcurrentCoherence(t *testing.T) {
	h := newHistogram(CountBounds)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := h.Stat()
			var total int64
			for _, b := range st.Buckets {
				total += b
			}
			if st.Count > total {
				t.Errorf("torn read: count %d > Σbuckets %d", st.Count, total)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	st := h.Stat()
	if st.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", st.Count, workers*perWorker)
	}
	var total int64
	for _, b := range st.Buckets {
		total += b
	}
	if total != st.Count {
		t.Fatalf("Σbuckets %d != count %d after quiesce", total, st.Count)
	}
}

// The hot-path primitives allocate nothing — the overhead-when-disabled
// guarantee the instrumented engine paths rely on (the trace fast path
// is pinned by TestOpZeroAllocationsWhenOff).
func TestPrimitivesAllocationFree(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Commits.Inc()
		r.CommitNs.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("hot-path primitives allocated %.1f/op, want 0", allocs)
	}
}

func TestSnapshotSubAndWriteText(t *testing.T) {
	r := NewRegistry()
	before := r.Snapshot()
	r.Commits.Inc()
	r.CommitNs.Observe(50_000)
	r.OpsByObject[0].At(0).Add(3)
	r.RejectsByObject[2].At(0).Inc()
	delta := r.Snapshot().Sub(before)
	if got := delta.Counter("reldb.tx.commits"); got != 1 {
		t.Fatalf("commits delta = %d, want 1", got)
	}
	if got := delta.Counter("vupdate.ops.insert"); got != 3 {
		t.Fatalf("insert ops delta = %d, want 3", got)
	}
	if got := delta.Counter("vupdate.reject.translator-policy"); got != 1 {
		t.Fatalf("rejection delta = %d, want 1", got)
	}
	if st := delta.Histogram("reldb.tx.commit_ns"); st.Count != 1 || st.Sum != 50_000 {
		t.Fatalf("commit hist delta = %+v", st)
	}

	var b strings.Builder
	if err := WriteText(&b, delta); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"reldb.tx.commits 1",
		"reldb.tx.commit_ns.count 1",
		"reldb.tx.commit_ns.sum 50000",
		"reldb.tx.commit_ns.le_100000 1",
		"vupdate.ops.insert 3",
		"vupdate.reject.translator-policy 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText missing %q:\n%s", want, text)
		}
	}
	// Metric blocks come out in sorted name order (bucket lines within a
	// block are bound-ordered, not lexicographic — see
	// TestWriteTextBucketOrdering).
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var metrics []string
	for _, l := range lines {
		name := strings.SplitN(l, " ", 2)[0]
		name = strings.SplitN(name, "{", 2)[0]
		for _, suffix := range []string{".count", ".sum", ".mean"} {
			name = strings.TrimSuffix(name, suffix)
		}
		if i := strings.Index(name, ".le_"); i >= 0 {
			name = name[:i]
		}
		if len(metrics) == 0 || metrics[len(metrics)-1] != name {
			metrics = append(metrics, name)
		}
	}
	for i := 1; i < len(metrics); i++ {
		if metrics[i] < metrics[i-1] {
			t.Fatalf("metric blocks unsorted: %q after %q", metrics[i], metrics[i-1])
		}
	}
	if !strings.Contains(delta.Summary(), "commits=1") {
		t.Errorf("summary line: %s", delta.Summary())
	}
}

// WriteText renders a histogram's bucket lines in ascending numeric bound
// order with cumulative counts. An earlier revision sorted all lines
// lexicographically — putting le_16 before le_2 — and printed raw
// per-bucket counts under the cumulative-sounding le_ names.
func TestWriteTextBucketOrdering(t *testing.T) {
	r := NewRegistry()
	// CountBounds buckets: lands in ≤2, ≤4, ≤16, and +Inf.
	for _, v := range []int64{2, 3, 12, 5000} {
		r.ReadTxLag.Observe(v)
	}
	var b strings.Builder
	if err := WriteText(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var le []string
	for _, l := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(l, "reldb.readtx.lag_generations.le_") {
			le = append(le, l)
		}
	}
	want := []string{
		"reldb.readtx.lag_generations.le_2 1",
		"reldb.readtx.lag_generations.le_4 2",
		"reldb.readtx.lag_generations.le_8 2",
		"reldb.readtx.lag_generations.le_16 3",
		"reldb.readtx.lag_generations.le_64 3",
		"reldb.readtx.lag_generations.le_256 3",
		"reldb.readtx.lag_generations.le_1024 3",
		"reldb.readtx.lag_generations.le_inf 4",
	}
	if len(le) != len(want) {
		t.Fatalf("le_ lines = %v, want %v", le, want)
	}
	for i := range want {
		if le[i] != want[i] {
			t.Errorf("le line %d = %q, want %q", i, le[i], want[i])
		}
	}
	// le_0 and le_1 (cumulative count still zero) are skipped; le_inf
	// equals the total count.
	if strings.Contains(b.String(), "lag_generations.le_0") || strings.Contains(b.String(), "lag_generations.le_1 ") {
		t.Error("leading zero-cumulative buckets should be skipped")
	}
}

// HistogramStat.Sub handles a zero-value prev (metric absent from the
// older snapshot) and a bucket-shape mismatch explicitly.
func TestHistogramStatSubShapes(t *testing.T) {
	h := newHistogram(CountBounds)
	h.Observe(1)
	h.Observe(100)
	cur := h.Stat()

	d := cur.Sub(HistogramStat{})
	if d.Count != 2 || d.Sum != 101 {
		t.Fatalf("zero-prev delta = %+v", d)
	}
	for i := range d.Buckets {
		if d.Buckets[i] != cur.Buckets[i] {
			t.Fatalf("zero-prev buckets = %v, want %v", d.Buckets, cur.Buckets)
		}
	}

	h.Observe(2)
	d = h.Stat().Sub(cur)
	if d.Count != 1 || d.Sum != 2 {
		t.Fatalf("same-shape delta = %+v", d)
	}
	var total int64
	for _, n := range d.Buckets {
		total += n
	}
	if total != 1 {
		t.Fatalf("same-shape bucket delta = %v, want one increment", d.Buckets)
	}

	// Mismatched bounds: Count/Sum subtract, st's raw buckets survive.
	mismatched := HistogramStat{Count: 1, Sum: 1, Bounds: []int64{5}, Buckets: []int64{1, 0}}
	d = cur.Sub(mismatched)
	if d.Count != 1 || d.Sum != 100 {
		t.Fatalf("mismatched-shape delta = %+v", d)
	}
	for i := range d.Buckets {
		if d.Buckets[i] != cur.Buckets[i] {
			t.Fatalf("mismatched-shape buckets = %v, want %v (st's raw buckets)", d.Buckets, cur.Buckets)
		}
	}
}

func TestStepAndReasonNames(t *testing.T) {
	if StepLocalValidate.String() != "local_validate" || StepGlobalValidate.String() != "global_validate" {
		t.Fatal("step names wrong")
	}
	if RejectReasonName(1) != "no-instance" || RejectReasonName(-1) != "unknown" || RejectReasonName(99) != "unknown" {
		t.Fatal("reason names wrong")
	}
}
