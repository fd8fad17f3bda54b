package viewobject_test

import (
	"fmt"
	"slices"
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
// but no secondary index, forcing every crossing no row tree serves onto
// the scan path.
func withoutIndexes(t testing.TB, db *reldb.Database) *reldb.Database {
	t.Helper()
	bare := reldb.NewDatabase()
	for _, name := range db.Names() {
		src := db.MustRelation(name)
		dst, err := bare.CreateRelation(src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		src.Scan(func(tu reldb.Row) bool {
			err = dst.Insert(tu.Tuple())
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
// parent-at-a-time path — on the indexed and index-less variants of the
// workload fixture, on a schema whose every crossing is a shared scan,
// and on the university Omega object.
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
	t.Run("owner-last keys index-less", func(t *testing.T) {
		// The workload's owned relations are keyed owner-first, so their
		// row trees serve every crossing with or without indexes; here
		// every crossing is a shared scan.
		w := tailKeyed(t, 7, 3)
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

// tailKeyed builds a three-level ownership chain whose owned keys list
// the inherited owner key last — OWNER(K0) owns MID(K1, K0), which owns
// LEAF(K2, K1, K0) — so no row tree serves an edge crossing: with the
// edge indexes AddConnection registers, every crossing probes an index;
// without them (withoutIndexes), each is a scan. Every owner tuple owns
// fanout tuples.
func tailKeyed(t *testing.T, roots, fanout int) *workload.Workload {
	t.Helper()
	db := reldb.NewDatabase()
	g := structural.NewGraph(db)
	var parent, root *Node
	var ownerKey []string
	for level, name := range []string{"OWNER", "MID", "LEAF"} {
		key := append([]string{fmt.Sprintf("K%d", level)}, ownerKey...)
		attrs := []reldb.Attribute{{Name: "V", Type: reldb.KindString, Nullable: true}}
		for _, k := range key {
			attrs = append(attrs, reldb.Attribute{Name: k, Type: reldb.KindInt})
		}
		if _, err := db.CreateRelation(reldb.MustSchema(name, attrs, key)); err != nil {
			t.Fatal(err)
		}
		node := &Node{Relation: name}
		if parent == nil {
			root = node
		} else {
			conn := &structural.Connection{Name: parent.Relation + ">" + name, Type: structural.Ownership,
				From: parent.Relation, To: name, FromAttrs: ownerKey, ToAttrs: ownerKey}
			g.MustAddConnection(conn)
			if len(db.MustRelation(name).IndexNames()) == 0 {
				t.Fatalf("%s: no edge index registered", conn.Name)
			}
			node.Path = []structural.Edge{{Conn: conn, Forward: true}}
			parent.Children = append(parent.Children, node)
		}
		parent, ownerKey = node, key
	}
	def, err := NewDefinition("tail-keyed", g, root)
	if err != nil {
		t.Fatal(err)
	}
	err = db.RunInTx(func(tx *reldb.Tx) error {
		// keys are the previous level's keys: each owns n rows, keyed by
		// their own number followed by the owner's key.
		keys := []reldb.Tuple{nil}
		for _, name := range []string{"OWNER", "MID", "LEAF"} {
			n := fanout
			if name == "OWNER" {
				n = roots
			}
			var next []reldb.Tuple
			for _, owner := range keys {
				for i := 0; i < n; i++ {
					key := append(reldb.Tuple{reldb.Int(int64(i))}, owner...)
					if err := tx.Insert(name, append(reldb.Tuple{reldb.String("v")}, key...)); err != nil {
						return err
					}
					next = append(next, key)
				}
			}
			keys = next
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return &workload.Workload{DB: db, G: g, Def: def}
}

// The scan-amplification acceptance test: the batched path's
// tuples_scanned/nodes ratio must be at least 5× lower than the naive
// per-parent path's. Measured on a schema whose edges no tree serves,
// stripped of its edge indexes, where the difference is purely the
// batching (one shared scan per level versus one scan per parent); with
// the edge indexes the ratio drops to ~1 for both paths.
func TestBatchedAssemblyCollapsesScanRatio(t *testing.T) {
	build := func() *workload.Workload {
		w := tailKeyed(t, 30, 4)
		w.DB = withoutIndexes(t, w.DB)
		return w
	}

	naiveRatio := instantiationRatio(t, build(), true)
	batchedRatio := instantiationRatio(t, build(), false)

	if naiveRatio < 5*batchedRatio {
		t.Fatalf("scan ratio did not collapse: naive %.2f, batched %.2f (want >= 5x drop)",
			naiveRatio, batchedRatio)
	}

	// With the edge indexes in place the batched ratio stays as low.
	w := tailKeyed(t, 30, 4)
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

// An ownership crossing whose owned key lists the owner key first is a
// prefix probe of the owned relation's row tree: AddConnection registers
// no index for it, and assembly scans nothing. The TreeSpec workload's
// owned relations are all keyed so; in the university schema,
// DEPARTMENT → CURRICULUM and COURSES → GRADES are, while STUDENT →
// GRADES (GRADES is keyed CourseID, PID) keeps its index.
func TestOwnershipCrossingsProbeTheRowTree(t *testing.T) {
	tree, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Roots: 7, Peninsulas: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, g := university.MustNewSeeded()
	for _, c := range []struct {
		name    string
		db      *reldb.Database
		g       *structural.Graph
		def     *Definition
		key     reldb.Tuple
		indexed []string // the ownership connections that keep an index
	}{
		{"tree", tree.DB, tree.G, tree.Def, reldb.Tuple{reldb.Int(3)}, nil},
		{"university", db, g, university.MustOmega(g), cs345Key(), []string{university.ConnStudentGrades}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var indexed []string
			for _, conn := range c.g.Connections() {
				if conn.Type != structural.Ownership {
					continue
				}
				if !c.db.MustRelation(conn.To).TreeServes(conn.ToAttrs) {
					t.Fatalf("%s: no tree serves the owned side", conn.Name)
				}
				for _, ix := range c.db.MustRelation(conn.To).IndexNames() {
					if ix == "conn_"+conn.Name+"_to" {
						indexed = append(indexed, conn.Name)
					}
				}
			}
			if !slices.Equal(indexed, c.indexed) {
				t.Fatalf("ownership connections with an edge index: %v, want %v", indexed, c.indexed)
			}
			before := obs.Capture()
			_, ok, err := InstantiateByKey(c.db, c.def, c.key)
			if err != nil || !ok {
				t.Fatalf("InstantiateByKey = %v, %v", ok, err)
			}
			delta := obs.Capture().Sub(before)
			if scans := delta.LabeledCounters["reldb.relation.scans"].Values; len(scans) != 0 {
				t.Fatalf("assembling one instance scanned %v, want no scan", scans)
			}
			if probed := delta.LabeledCounters["reldb.relation.probes"].Values; len(probed) < 3 {
				t.Fatalf("assembly probed only %v", probed)
			}
		})
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
