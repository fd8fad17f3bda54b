package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// treeRegistry builds a fresh registry with a flight recorder installed
// (threshold 0: retain every completed op).
func treeRegistry(capacity int) (*Registry, *Recorder) {
	r := NewRegistry()
	rec := NewRecorder(0, capacity)
	r.SetRecorder(rec)
	return r, rec
}

func TestOpSpanTreeConnected(t *testing.T) {
	r, rec := treeRegistry(4)

	op := r.StartOp("update")
	if !op.Active() {
		t.Fatal("op should be active with a recorder installed")
	}
	if op.TraceID() == 0 || op.TraceID() != op.SpanID() {
		t.Fatalf("root identity: trace=%d span=%d", op.TraceID(), op.SpanID())
	}

	step := op.Child("step.translate")
	if step.TraceID() != op.TraceID() {
		t.Fatalf("child trace %d, want %d", step.TraceID(), op.TraceID())
	}
	// A grandchild copied to another goroutine still joins the tree.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		step.Child("chunk").Finish("chunk=0")
	}()
	wg.Wait()
	step.Finish("object=omega")
	op.Span("commit.publish", "gen=2", op.Start(), time.Since(op.Start()))
	op.Finish("ops=3")

	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Name != "update" || tr.Detail != "ops=3" {
		t.Errorf("root = %q/%q", tr.Name, tr.Detail)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("captured %d spans, want 4", len(tr.Spans))
	}
	if got := r.SlowTraceCaptured.Load(); got != 1 {
		t.Errorf("SlowTraceCaptured = %d, want 1", got)
	}
	// Spans arrive in completion order, the root last; each renders its
	// causal identity, and only the root has no parent.
	child, root := tr.Spans[0], tr.Spans[len(tr.Spans)-1]
	if !strings.Contains(child.String(), "t=") || !strings.Contains(child.String(), "p=") {
		t.Errorf("child String lacks causal suffix: %s", child.String())
	}
	if strings.Contains(root.String(), "p=") {
		t.Errorf("root String shows a parent: %s", root.String())
	}

	rendered := tr.Render()
	for _, want := range []string{"update", "step.translate", "chunk", "commit.publish"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("Render missing %q:\n%s", want, rendered)
		}
	}
	// The chunk line must be indented deeper than its parent step.
	stepLine, chunkLine := "", ""
	for _, line := range strings.Split(rendered, "\n") {
		if strings.Contains(line, "step.translate") {
			stepLine = line
		}
		if strings.Contains(line, "chunk=0") {
			chunkLine = line
		}
	}
	if stepLine == "" || chunkLine == "" {
		t.Fatalf("missing lines in render:\n%s", rendered)
	}
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	if indent(chunkLine) <= indent(stepLine) {
		t.Errorf("chunk not nested under step:\n%s", rendered)
	}
}

func TestOpInactiveWithoutRecorder(t *testing.T) {
	r := NewRegistry()
	op := r.StartOp("noop")
	if op.Active() {
		t.Fatal("op should be inactive without a recorder")
	}
	// Every method is a safe no-op on the zero value.
	child := op.Child("x")
	child.Finish("")
	op.Span("y", "", time.Now(), time.Second)
	op.Finish("")
	if r.opSeq.Load() != 0 {
		t.Errorf("inactive ops consumed %d span ids", r.opSeq.Load())
	}
}

func TestOpZeroAllocationsWhenOff(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(100, func() {
		op := r.StartOp("update")
		step := op.Child("step")
		step.Finish("")
		op.Finish("")
	})
	if allocs != 0 {
		t.Errorf("op lifecycle allocated %.1f objects/op when off, want 0", allocs)
	}
}

func TestRecorderThresholdDiscardsFastOps(t *testing.T) {
	r := NewRegistry()
	rec := NewRecorder(10*time.Millisecond, 4)
	r.SetRecorder(rec)

	// Fast op: finishes immediately, far under the threshold.
	r.StartOp("fast").Finish("")
	if got := rec.Traces(); len(got) != 0 {
		t.Fatalf("fast op retained: %v", got)
	}
	if got := r.SlowTraceCaptured.Load(); got != 0 {
		t.Errorf("SlowTraceCaptured = %d after fast op", got)
	}

	// Slow op: a backdated start makes the root span exceed the threshold.
	r.StartOpAt("slow", time.Now().Add(-20*time.Millisecond)).Finish("d")
	traces := rec.Traces()
	if len(traces) != 1 || traces[0].Name != "slow" {
		t.Fatalf("slow op not retained: %v", traces)
	}
	if traces[0].Dur < 10*time.Millisecond {
		t.Errorf("retained Dur = %s", traces[0].Dur)
	}
	if got := r.SlowTraceCaptured.Load(); got != 1 {
		t.Errorf("SlowTraceCaptured = %d, want 1", got)
	}
}

func TestRecorderRingEvictionCountsDropped(t *testing.T) {
	r, rec := treeRegistry(2)
	for _, name := range []string{"a", "b", "c"} {
		r.StartOp(name).Finish("")
	}
	traces := rec.Traces()
	if len(traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(traces))
	}
	if traces[0].Name != "b" || traces[1].Name != "c" {
		t.Errorf("retained %q/%q, want b/c (oldest evicted)", traces[0].Name, traces[1].Name)
	}
	if got := r.SlowTraceCaptured.Load(); got != 3 {
		t.Errorf("SlowTraceCaptured = %d, want 3", got)
	}
	if got := r.SlowTraceDropped.Load(); got != 1 {
		t.Errorf("SlowTraceDropped = %d, want 1", got)
	}

	if _, ok := rec.Trace(traces[1].TraceID); !ok {
		t.Error("Trace(id) did not find a retained trace")
	}
}

func TestRecorderSpanCapTruncates(t *testing.T) {
	r, rec := treeRegistry(1)
	op := r.StartOp("big")
	for i := 0; i < DefaultRecorderSpanCap+5; i++ {
		op.Span("leaf", "", op.Start(), 0)
	}
	op.Finish("")
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces", len(traces))
	}
	// The root seals the buffer after the cap is hit, so the cap counts
	// the leaves plus the root overflowing.
	if got := traces[0].TruncatedSpans; got != 6 {
		t.Errorf("TruncatedSpans = %d, want 6", got)
	}
	if len(traces[0].Spans) != DefaultRecorderSpanCap {
		t.Errorf("captured %d spans, want %d", len(traces[0].Spans), DefaultRecorderSpanCap)
	}
}

func TestSlowTraceValidateRejectsMalformedTrees(t *testing.T) {
	now := time.Now()
	root := Event{Name: "r", Start: now, Dur: 10 * time.Millisecond, TraceID: 1, SpanID: 1}
	child := Event{Name: "c", Start: now.Add(time.Millisecond), Dur: time.Millisecond,
		TraceID: 1, SpanID: 2, ParentID: 1}

	cases := []struct {
		name  string
		trace SlowTrace
		want  string
	}{
		{"empty", SlowTrace{TraceID: 1}, "no spans"},
		{"foreign trace id", SlowTrace{TraceID: 1, Spans: []Event{
			root, {Name: "x", TraceID: 9, SpanID: 3, ParentID: 1, Start: now}}}, "carries trace"},
		{"zero span id", SlowTrace{TraceID: 1, Spans: []Event{
			root, {Name: "x", TraceID: 1, ParentID: 1, Start: now}}}, "no id"},
		{"duplicate span id", SlowTrace{TraceID: 1, Spans: []Event{root, root}}, "duplicate"},
		{"two roots", SlowTrace{TraceID: 1, Spans: []Event{
			root, {Name: "x", TraceID: 1, SpanID: 2, Start: now}}}, "root spans"},
		{"unresolvable parent", SlowTrace{TraceID: 1, Spans: []Event{
			root, {Name: "x", TraceID: 1, SpanID: 2, ParentID: 7, Start: now}}}, "unresolvable"},
		{"child outside parent", SlowTrace{TraceID: 1, Spans: []Event{
			root, {Name: "x", TraceID: 1, SpanID: 2, ParentID: 1,
				Start: now.Add(-time.Millisecond)}}}, "outside parent"},
		{"ok", SlowTrace{TraceID: 1, Spans: []Event{root, child}}, ""},
	}
	for _, tc := range cases {
		err := tc.trace.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
