package viewobject_test

import (
	"testing"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	. "penguin/internal/viewobject"
	"penguin/internal/workload"
)

// renderAll materializes every instance deterministically.
func renderAll(t *testing.T, insts []*Instance) []string {
	t.Helper()
	out := make([]string, len(insts))
	for i, in := range insts {
		out[i] = in.Render()
	}
	return out
}

// assembleAll assembles def's whole extent on the naive reference path
// or the batched production one.
func assembleAll(res structural.Resolver, def *Definition, naive bool) ([]*Instance, error) {
	if naive {
		return InstantiateNaive(res, def)
	}
	return Instantiate(res, def, Query{})
}

// withoutIndexes returns a copy of db with the same relations and rows
// but no secondary index, forcing traversal onto the scan path.
func withoutIndexes(t testing.TB, db *reldb.Database) *reldb.Database {
	t.Helper()
	bare := reldb.NewDatabase()
	for _, name := range db.Names() {
		src := db.MustRelation(name)
		dst, err := bare.CreateRelation(src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		src.Scan(func(tu reldb.Tuple) bool {
			err = dst.Insert(tu)
			return err == nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return bare
}

// The differential acceptance test: batched level-at-a-time assembly
// must emit byte-identical instances, in the same order, as the naive
// parent-at-a-time path — on the indexed and index-less (shared-scan)
// variants of the workload fixture and on the university Omega object.
func TestBatchedAssemblyMatchesNaiveByteForByte(t *testing.T) {
	spec := workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Roots: 7, Peninsulas: 1}

	compare := func(t *testing.T, res structural.Resolver, def *Definition) {
		t.Helper()
		insts, err := InstantiateNaive(res, def)
		if err != nil {
			t.Fatal(err)
		}
		naive := renderAll(t, insts)
		if len(naive) == 0 {
			t.Fatal("fixture produced no instances")
		}
		if insts, err = Instantiate(res, def, Query{}); err != nil {
			t.Fatal(err)
		}
		got := renderAll(t, insts)
		if len(naive) != len(got) {
			t.Fatalf("naive assembled %d instances, batched %d", len(naive), len(got))
		}
		for i := range naive {
			if naive[i] != got[i] {
				t.Fatalf("instance %d differs:\n--- naive ---\n%s\n--- batched ---\n%s", i, naive[i], got[i])
			}
		}
	}

	t.Run("workload indexed", func(t *testing.T) {
		w, err := workload.BuildTree(spec)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, w.DB, w.Def)
	})
	t.Run("workload index-less", func(t *testing.T) {
		w, err := workload.BuildTree(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.DB = withoutIndexes(t, w.DB)
		compare(t, w.DB, w.Def)
	})
	t.Run("university omega", func(t *testing.T) {
		db, g := university.MustNewSeeded()
		compare(t, db, university.MustOmega(g))
	})
	t.Run("by key", func(t *testing.T) {
		db, g := university.MustNewSeeded()
		om := university.MustOmega(g)
		naive, ok, err := InstantiateByKeyNaive(db, om, cs345Key())
		if err != nil || !ok {
			t.Fatalf("InstantiateByKeyNaive: %v, %v", ok, err)
		}
		batched, ok, err := InstantiateByKey(db, om, cs345Key())
		if err != nil || !ok {
			t.Fatalf("InstantiateByKey: %v, %v", ok, err)
		}
		if naive.Render() != batched.Render() {
			t.Fatal("InstantiateByKey differs between naive and batched assembly")
		}
	})
}

// instantiationRatio assembles every instance of the workload — on the
// naive reference path or the batched one — and returns tuples_scanned /
// nodes over the run.
func instantiationRatio(t *testing.T, w *workload.Workload, naive bool) float64 {
	t.Helper()
	before := obs.Capture()
	insts, err := assembleAll(w.DB, w.Def, naive)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) == 0 {
		t.Fatal("no instances assembled")
	}
	delta := obs.Capture().Sub(before)
	scanned := delta.Counter("viewobject.instantiate.tuples_scanned")
	nodes := delta.Counter("viewobject.instantiate.nodes")
	if nodes == 0 {
		t.Fatal("no nodes counted")
	}
	return float64(scanned) / float64(nodes)
}

// The scan-amplification acceptance test: on the workload stress fixture
// the batched path's tuples_scanned/nodes ratio must be at least 5× lower
// than the naive per-parent path's. Measured on the index-less variant,
// where the difference is purely the batching (one shared scan per level
// versus one scan per parent); with the auto edge indexes the ratio drops
// to ~1 for both paths.
func TestBatchedAssemblyCollapsesScanRatio(t *testing.T) {
	spec := workload.TreeSpec{Depth: 2, Width: 2, Fanout: 4, Roots: 30, Peninsulas: 1}
	build := func() *workload.Workload {
		w, err := workload.BuildTree(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.DB = withoutIndexes(t, w.DB)
		return w
	}

	naiveRatio := instantiationRatio(t, build(), true)
	batchedRatio := instantiationRatio(t, build(), false)

	if naiveRatio < 5*batchedRatio {
		t.Fatalf("scan ratio did not collapse: naive %.2f, batched %.2f (want >= 5x drop)",
			naiveRatio, batchedRatio)
	}

	// With the auto edge indexes in place the batched ratio stays as low.
	w, err := workload.BuildTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	indexedRatio := instantiationRatio(t, w, false)
	if indexedRatio > batchedRatio+1 {
		t.Fatalf("indexed ratio %.2f above index-less batched ratio %.2f", indexedRatio, batchedRatio)
	}

	// The batched run issues a bounded number of lookups: one per
	// (level, path edge), not one per parent tuple.
	before := obs.Capture()
	if _, err := Instantiate(w.DB, w.Def, Query{}); err != nil {
		t.Fatal(err)
	}
	delta := obs.Capture().Sub(before)
	lookups := delta.Counter("viewobject.instantiate.batched_lookups")
	nodes := delta.Counter("viewobject.instantiate.nodes")
	if lookups == 0 {
		t.Fatal("batched_lookups not counted")
	}
	if lookups >= nodes/10 {
		t.Fatalf("batched lookups = %d for %d nodes; batching is not level-at-a-time", lookups, nodes)
	}
	if delta.Histogram("viewobject.instantiate.level_fanout").Count == 0 {
		t.Fatal("level_fanout histogram not observed")
	}
}

// A pivot selection that errors must not bump the scan counter (the scan
// did not complete).
func TestInstantiatePivotErrorDoesNotCountScans(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	before := obs.Capture()
	_, err := Instantiate(db, om, Query{PivotPred: reldb.Eq("NoSuchAttr", reldb.Int(1))})
	if err == nil {
		t.Fatal("bad pivot predicate accepted")
	}
	delta := obs.Capture().Sub(before)
	if n := delta.Counter("viewobject.instantiate.tuples_scanned"); n != 0 {
		t.Fatalf("error path counted %d scanned tuples, want 0", n)
	}
	if n := delta.Counter("viewobject.instantiate.calls"); n != 0 {
		t.Fatalf("error path counted %d instantiations, want 0", n)
	}
}

// Multi-edge paths must dedup intermediate fan-in identically in both
// assembly paths: two MID rows lead to the same TGT row, which must
// appear exactly once among the pivot's components.
func TestTraverseMultiEdgeDedupBatched(t *testing.T) {
	db := reldb.NewDatabase()
	db.MustCreateRelation(reldb.MustSchema("PIVOT", []reldb.Attribute{
		{Name: "K", Type: reldb.KindInt},
	}, []string{"K"}))
	db.MustCreateRelation(reldb.MustSchema("MID", []reldb.Attribute{
		{Name: "ID", Type: reldb.KindInt},
		{Name: "K", Type: reldb.KindInt, Nullable: true},
		{Name: "T", Type: reldb.KindInt, Nullable: true},
	}, []string{"ID"}))
	db.MustCreateRelation(reldb.MustSchema("TGT", []reldb.Attribute{
		{Name: "T", Type: reldb.KindInt},
	}, []string{"T"}))
	g := structural.NewGraph(db)
	toPivot := &structural.Connection{
		Name: "mid-pivot", Type: structural.Reference,
		From: "MID", To: "PIVOT",
		FromAttrs: []string{"K"}, ToAttrs: []string{"K"},
	}
	toTgt := &structural.Connection{
		Name: "mid-tgt", Type: structural.Reference,
		From: "MID", To: "TGT",
		FromAttrs: []string{"T"}, ToAttrs: []string{"T"},
	}
	g.MustAddConnection(toPivot)
	g.MustAddConnection(toTgt)

	mustInsert := func(rel string, rows ...reldb.Tuple) {
		r := db.MustRelation(rel)
		for _, row := range rows {
			if err := r.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := reldb.Int
	mustInsert("PIVOT", reldb.Tuple{i(1)}, reldb.Tuple{i(2)})
	mustInsert("TGT", reldb.Tuple{i(10)}, reldb.Tuple{i(20)})
	mustInsert("MID",
		// Pivot 1: two MID rows converge on TGT 10; one reaches TGT 20.
		reldb.Tuple{i(100), i(1), i(10)},
		reldb.Tuple{i(101), i(1), i(10)},
		reldb.Tuple{i(102), i(1), i(20)},
		// Pivot 2: a single path to TGT 20.
		reldb.Tuple{i(200), i(2), i(20)},
	)

	def, err := NewDefinition("dedup", g, &Node{
		Relation: "PIVOT",
		Children: []*Node{{
			Relation: "TGT",
			Path: []structural.Edge{
				{Conn: toPivot, Forward: false},
				{Conn: toTgt, Forward: true},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, naive := range []bool{false, true} {
		insts, err := assembleAll(db, def, naive)
		if err != nil {
			t.Fatal(err)
		}
		if len(insts) != 2 {
			t.Fatalf("naive=%v: %d instances, want 2", naive, len(insts))
		}
		// Pivot 1 reaches TGT 10 (via two MID rows, deduped) and TGT 20.
		if n := insts[0].Count("TGT"); n != 2 {
			t.Fatalf("naive=%v: pivot 1 has %d TGT components, want 2 (dedup failed)", naive, n)
		}
		if n := insts[1].Count("TGT"); n != 1 {
			t.Fatalf("naive=%v: pivot 2 has %d TGT components, want 1", naive, n)
		}
		if insts[0].Render() == insts[1].Render() {
			t.Fatalf("naive=%v: distinct instances rendered identically", naive)
		}
	}
}

// E13 — level-at-a-time batched assembly versus the naive
// parent-at-a-time oracle, on the workload tree. The index-less variants
// expose the scan amplification (per-parent child fetches degrade to one
// full scan per parent; the batched path shares one scan per level); the
// scanned/node custom metric is the ratio the obs counters track.
func BenchmarkBatchedInstantiation(b *testing.B) {
	spec := workload.TreeSpec{Depth: 2, Width: 2, Fanout: 4, Roots: 30, Peninsulas: 1}
	for _, mode := range []struct {
		name    string
		naive   bool
		noIndex bool
	}{
		{"naive-noindex", true, true},
		{"batched-noindex", false, true},
		{"batched-indexed", false, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			w, err := workload.BuildTree(spec)
			if err != nil {
				b.Fatal(err)
			}
			if mode.noIndex {
				w.DB = withoutIndexes(b, w.DB)
			}
			before := obs.Capture()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := assembleAll(w.DB, w.Def, mode.naive); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := obs.Capture().Sub(before)
			if nodes := d.Counter("viewobject.instantiate.nodes"); nodes > 0 {
				scanned := d.Counter("viewobject.instantiate.tuples_scanned")
				b.ReportMetric(float64(scanned)/float64(nodes), "scanned/node")
			}
		})
	}
}
