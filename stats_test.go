// Acceptance tests for the observability surface: a VO-R / VO-CD / VO-CI
// run against the university fixture must light up all four §5 pipeline
// step histograms, and the emitted-operation counters must match the
// operations the translations actually returned.
package penguin_test

import (
	"errors"
	"strings"
	"testing"

	"penguin"
	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/vupdate"
)

// TestStatsAcrossUpdatePipeline drives one update of each kind and
// checks the metric deltas.
func TestStatsAcrossUpdatePipeline(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	u := vupdate.NewUpdater(vupdate.PermissiveTranslator(om))
	key := reldb.Tuple{reldb.String("CS345")}

	before := penguin.Stats()

	// VO-R: replace the instance with a retitled clone.
	rtx := db.BeginRead()
	cur, ok, err := penguin.InstantiateByKey(rtx, om, key)
	rtx.Close()
	if err != nil || !ok {
		t.Fatalf("instantiate CS345: ok=%v err=%v", ok, err)
	}
	repl := cur.Clone()
	if err := repl.Root().SetAttr(om, "Title", reldb.String("Databases, Observed")); err != nil {
		t.Fatal(err)
	}
	resR, err := u.ReplaceInstance(cur, repl)
	if err != nil {
		t.Fatalf("VO-R: %v", err)
	}
	// VO-CD: delete the whole instance.
	resD, err := u.DeleteByKey(key)
	if err != nil {
		t.Fatalf("VO-CD: %v", err)
	}
	// VO-CI: put it back.
	resI, err := u.InsertInstance(repl)
	if err != nil {
		t.Fatalf("VO-CI: %v", err)
	}

	delta := penguin.Stats().Sub(before)

	// All four §5 steps ran and took measurable time.
	for _, step := range []string{"local_validate", "propagate", "translate", "global_validate"} {
		st := delta.Histogram("vupdate.step." + step + "_ns")
		if st.Count == 0 {
			t.Errorf("step %s: no observations", step)
		}
		if st.Sum <= 0 {
			t.Errorf("step %s: sum = %d, want > 0", step, st.Sum)
		}
	}

	// The op counters match the returned results exactly.
	wantOps := map[string]int{"insert": 0, "delete": 0, "replace": 0}
	for _, res := range []*vupdate.Result{resR, resD, resI} {
		wantOps["insert"] += res.Count(penguin.OpInsert)
		wantOps["delete"] += res.Count(penguin.OpDelete)
		wantOps["replace"] += res.Count(penguin.OpReplace)
	}
	for kind, want := range wantOps {
		if got := delta.Counter("vupdate.ops." + kind); got != int64(want) {
			t.Errorf("vupdate.ops.%s = %d, want %d (the results' own op count)", kind, got, want)
		}
	}
	if got := delta.Counter("vupdate.updates.committed"); got != 3 {
		t.Errorf("updates.committed = %d, want 3", got)
	}
	if got := delta.Counter("vupdate.updates.rejected"); got != 0 {
		t.Errorf("updates.rejected = %d, want 0", got)
	}
	// The three updates committed three write transactions, and the
	// instantiations behind them scanned tuples and assembled nodes.
	if got := delta.Counter("reldb.tx.commits"); got != 3 {
		t.Errorf("reldb.tx.commits = %d, want 3", got)
	}
	if delta.Counter("viewobject.instantiate.tuples_scanned") == 0 {
		t.Error("no tuples scanned recorded")
	}
	if delta.Counter("viewobject.instantiate.nodes") == 0 {
		t.Error("no instance nodes recorded")
	}
}

// TestStatsRejectionReasons checks the rejection-taxonomy counters: a
// policy refusal and a missing instance land in their own buckets.
func TestStatsRejectionReasons(t *testing.T) {
	_, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	tr := vupdate.PermissiveTranslator(om)
	tr.AllowDeletion = false
	u := vupdate.NewUpdater(tr)

	before := penguin.Stats()
	if _, err := u.DeleteByKey(reldb.Tuple{reldb.String("CS345")}); !errors.Is(err, penguin.ErrRejected) {
		t.Fatalf("deletion with AllowDeletion=false: %v", err)
	}
	if _, err := u.DeleteByKey(reldb.Tuple{reldb.String("NO-SUCH")}); err == nil {
		t.Fatal("deleting a missing instance succeeded")
	}
	delta := penguin.Stats().Sub(before)

	if got := delta.Counter("vupdate.updates.rejected"); got != 2 {
		t.Errorf("updates.rejected = %d, want 2", got)
	}
	if got := delta.Counter("vupdate.reject.translator-policy"); got != 1 {
		t.Errorf("reject.translator-policy = %d, want 1", got)
	}
	if got := delta.Counter("vupdate.reject.no-instance"); got != 1 {
		t.Errorf("reject.no-instance = %d, want 1", got)
	}
	if got := delta.Counter("vupdate.updates.committed"); got != 0 {
		t.Errorf("updates.committed = %d, want 0", got)
	}
}

// TestFlightRecorderCapturesPipeline installs a threshold-0 flight
// recorder, runs one update, and checks its retained span tree carries
// the per-step spans.
func TestFlightRecorderCapturesPipeline(t *testing.T) {
	_, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	u := vupdate.NewUpdater(vupdate.PermissiveTranslator(om))

	penguin.SetFlightRecorder(penguin.NewFlightRecorder(0, 8))
	defer penguin.SetFlightRecorder(nil)

	if _, err := u.DeleteByKey(reldb.Tuple{reldb.String("CS345")}); err != nil {
		t.Fatalf("VO-CD: %v", err)
	}
	traces := penguin.SlowTraces()
	if len(traces) != 1 {
		t.Fatalf("recorder retained %d traces, want the one update", len(traces))
	}
	if err := traces[0].Validate(); err != nil {
		t.Fatal(err)
	}
	events := traces[0].Spans
	var names []string
	for _, ev := range events {
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{
		"viewobject.instantiate_by_key",
		"vupdate.step.local_validate",
		"vupdate.step.translate",
		"vupdate.update",
		"reldb.commit",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q (got: %s)", want, joined)
		}
	}
}

// TestWriteStatsRenders smoke-tests the text exporter on a live
// snapshot: flat sorted lines, histograms expanded.
func TestWriteStatsRenders(t *testing.T) {
	var b strings.Builder
	if err := penguin.WriteStats(&b, penguin.Stats()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"reldb.tx.commits ",
		"reldb.tx.commit_ns.count ",
		"vupdate.step.translate_ns.count ",
		"viewobject.instantiate.calls ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteStats output missing %q", want)
		}
	}
}
