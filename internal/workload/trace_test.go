package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"penguin/internal/keller"
	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// spanNames collects the set of span names in a trace.
func spanNames(tr obs.SlowTrace) map[string]int {
	out := make(map[string]int)
	for _, s := range tr.Spans {
		out[s.Name]++
	}
	return out
}

// TestStressCapturesSlowUpdateTrace is the tracing acceptance check: a
// deliberately slowed VO-CD translation under the concurrent stress
// workload must be captured by the flight recorder as one connected span
// tree — the update root, its §5 step children, the commit child with
// the delta publish under it — and export as valid Chrome trace JSON.
// RunStress itself validates every retained tree (well-formed parents,
// child intervals inside the parent) and reports failures as violations.
func TestStressCapturesSlowUpdateTrace(t *testing.T) {
	rec := obs.NewRecorder(2*time.Millisecond, 32)
	obs.Default.SetRecorder(rec)
	t.Cleanup(func() { obs.Default.SetRecorder(nil) })

	// Slow only the translate step, so the update root (which contains
	// it) crosses the 2ms retention threshold while unrelated serves do
	// not have to.
	prev := vupdate.SetStepProbe(func(st obs.Step, object string) {
		if st == obs.StepTranslate {
			time.Sleep(4 * time.Millisecond)
		}
	})
	t.Cleanup(func() { vupdate.SetStepProbe(prev) })

	res, err := RunStress(StressSpec{
		Tree:                TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 4, Peninsulas: 1},
		Readers:             2,
		MaterializedReaders: 1,
		Writers:             2,
		Cycles:              2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.SlowTraces == 0 {
		t.Fatal("the slowed updates produced no slow traces")
	}
	if got := res.Metrics.Counter("obs.slowtrace.captured"); got != res.SlowTraces {
		t.Errorf("SlowTraces = %d but metric delta = %d", res.SlowTraces, got)
	}

	retained := rec.Traces()
	var update *obs.SlowTrace
	for i := range retained {
		if retained[i].Name == "vupdate.update" {
			update = &retained[i]
			break
		}
	}
	if update == nil {
		t.Fatalf("no vupdate.update trace retained; got %d traces", len(retained))
	}
	if err := update.Validate(); err != nil {
		t.Fatalf("update trace malformed: %v", err)
	}
	names := spanNames(*update)
	for _, want := range []string{
		"vupdate.update",
		"vupdate.step.translate",
		"reldb.commit",
	} {
		if names[want] == 0 {
			t.Errorf("update trace missing span %q; has %v", want, names)
		}
	}
	// The commit child must hang off the update root, and the delta
	// publish (the workload's trees always produce deltas) off the commit.
	byID := make(map[uint64]obs.Event)
	for _, s := range update.Spans {
		byID[s.SpanID] = s
	}
	for _, s := range update.Spans {
		switch s.Name {
		case "reldb.commit":
			if s.ParentID != update.TraceID {
				t.Errorf("commit parent is %d (%s), want the update root",
					s.ParentID, byID[s.ParentID].Name)
			}
		case "reldb.delta.publish":
			if byID[s.ParentID].Name != "reldb.commit" {
				t.Errorf("delta publish parent is %q, want reldb.commit", byID[s.ParentID].Name)
			}
		case "vupdate.step.translate":
			if s.ParentID != update.TraceID {
				t.Errorf("translate step parent is %d, want the update root", s.ParentID)
			}
			if s.Dur < 4*time.Millisecond {
				t.Errorf("translate step Dur = %s, probe slept 4ms inside it", s.Dur)
			}
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, []obs.SlowTrace{*update}); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) != len(update.Spans) {
		t.Errorf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(update.Spans))
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" || ev.Ts < 0 {
			t.Errorf("malformed chrome event %+v", ev)
		}
	}
}

// TestMaterializerServeTraceNesting deterministically drives one
// materializer through its serve outcomes with a capture-everything
// recorder and checks the cause-named children: the first serve rebuilds
// under a "miss" span (the instantiate nested inside it), and a serve
// after a commit patches under a "patch" span.
func TestMaterializerServeTraceNesting(t *testing.T) {
	sw, err := NewShardedTree(TreeSpec{Depth: 1, Width: 2, Fanout: 2, Roots: 3, Peninsulas: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mat := viewobject.NewMaterializer(sw.C.DB(0), sw.Shards[0].Def)
	defer mat.Close()

	rec := obs.NewRecorder(0, 8)
	obs.Default.SetRecorder(rec)
	t.Cleanup(func() { obs.Default.SetRecorder(nil) })

	// Cold cache: the serve must rebuild (miss) with instantiate inside.
	if _, err := mat.Instantiate(viewobject.Query{}); err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) == 0 {
		t.Fatal("cold serve retained no trace")
	}
	cold := traces[len(traces)-1]
	if cold.Name != "viewobject.materialize.serve" {
		t.Fatalf("cold trace root = %q", cold.Name)
	}
	if err := cold.Validate(); err != nil {
		t.Fatalf("cold serve trace: %v", err)
	}
	names := spanNames(cold)
	if names["viewobject.materialize.miss"] == 0 || names["viewobject.instantiate"] == 0 {
		t.Errorf("cold serve spans = %v, want a miss child wrapping an instantiate", names)
	}

	// Commit one delta, then serve again: the trace carries a patch span.
	if _, err := replaceStamped(sw, 0, "patched"); err != nil {
		t.Fatal(err)
	}
	rec.Clear()
	if _, err := mat.Instantiate(viewobject.Query{}); err != nil {
		t.Fatal(err)
	}
	traces = rec.Traces()
	var patched *obs.SlowTrace
	for i := range traces {
		if spanNames(traces[i])["viewobject.materialize.patch"] > 0 {
			patched = &traces[i]
		}
	}
	if patched == nil {
		t.Fatalf("no serve trace with a patch span; retained %d traces", len(traces))
	}
	if err := patched.Validate(); err != nil {
		t.Fatalf("patched serve trace: %v", err)
	}
}

// TestFailedOperationsKeepTheirTrace pins the root span being finished
// on every failure path: an update whose commit is refused after a clean
// translation (a TxHooks.Finish error — the sharded fast-path abort, a
// 2PC prepare failure; tx.Commit failing on a WAL error takes the same
// return) and an instantiation that errors each leave exactly one
// retained, well-formed trace with an err= detail. Unfinished, the root
// never seals and the recorder silently drops the trace.
func TestFailedOperationsKeepTheirTrace(t *testing.T) {
	w, err := BuildTree(TreeSpec{Depth: 1, Width: 2, Fanout: 2, Roots: 3, Peninsulas: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0, 8)
	obs.Default.SetRecorder(rec)
	t.Cleanup(func() { obs.Default.SetRecorder(nil) })

	one := func(t *testing.T, root string) {
		t.Helper()
		traces := rec.Traces()
		if len(traces) != 1 {
			t.Fatalf("retained %d traces, want exactly the failed %s", len(traces), root)
		}
		if err := traces[0].Validate(); err != nil {
			t.Fatal(err)
		}
		if traces[0].Name != root || !strings.Contains(traces[0].Detail, "err=") {
			t.Fatalf("trace root = %q detail %q, want %s with err=", traces[0].Name, traces[0].Detail, root)
		}
		rec.Clear()
	}

	refused := errors.New("commit refused")
	u := &vupdate.Updater{T: vupdate.PermissiveTranslator(w.Def), Hooks: &vupdate.TxHooks{
		Finish: func(tx *reldb.Tx, _ []vupdate.DBOp) error {
			_ = tx.Rollback() // the coordinator owns the transaction's fate
			return refused
		},
	}}
	if _, err := u.DeleteByKey(reldb.Tuple{reldb.Int(0)}); !errors.Is(err, refused) {
		t.Fatalf("DeleteByKey = %v, want the Finish hook's error", err)
	}
	one(t, "vupdate.update")

	bad := viewobject.Query{PivotPred: reldb.Eq("NoSuchAttr", reldb.Int(1))}
	if _, err := viewobject.Instantiate(w.DB, w.Def, bad); err == nil {
		t.Fatal("bad pivot predicate accepted")
	}
	one(t, "viewobject.instantiate")

	// The materializer's serve span: the rebuild inside it succeeds, the
	// query's pivot predicate then fails.
	mat := viewobject.NewMaterializer(w.DB, w.Def)
	defer mat.Close()
	if _, err := mat.Instantiate(bad); err == nil {
		t.Fatal("materializer accepted the bad pivot predicate")
	}
	one(t, "viewobject.materialize.serve")

	// The Keller baseline: a flat view over the pivot relation, an insert
	// of the wrong arity.
	flat, err := keller.NewView(w.DB, "flat", []keller.Join{{Relation: w.Def.Pivot()}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keller.PermissiveTranslator(flat).Insert(reldb.Tuple{reldb.Int(1)}); err == nil {
		t.Fatal("Keller translator accepted a one-value tuple")
	}
	one(t, "keller.insert")
}
