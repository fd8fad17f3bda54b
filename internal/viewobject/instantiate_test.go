package viewobject_test

import (
	"errors"
	"fmt"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	. "penguin/internal/viewobject"
	"penguin/internal/workload"
)

// The pivot probe: an indexable equality predicate must run as a point
// or index probe charging only the tuples it visits, not a whole-
// relation scan — and must select exactly the pivots the scan would.
func TestPivotProbeChargesOnlyVisitedTuples(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 40})
	if err != nil {
		t.Fatal(err)
	}
	// A pivot-only definition isolates the pivot-selection cost: no child
	// traversal contributes to tuples_scanned.
	g := structural.NewGraph(w.DB)
	def, err := NewDefinition("pivot-only", g, &Node{Relation: "N0"})
	if err != nil {
		t.Fatal(err)
	}
	scannedBy := func(q Query) (int64, []*Instance) {
		before := obs.Capture()
		insts, err := Instantiate(w.DB, def, q)
		if err != nil {
			t.Fatal(err)
		}
		d := obs.Capture().Sub(before)
		return d.Counter("viewobject.instantiate.tuples_scanned"), insts
	}

	// Equality on the pivot key: a point probe visiting exactly 1 tuple.
	probeScanned, probed := scannedBy(Query{PivotPred: reldb.Eq("K0", reldb.Int(3))})
	if len(probed) != 1 {
		t.Fatalf("probe selected %d instances, want 1", len(probed))
	}
	if probeScanned != 1 {
		t.Fatalf("probe charged %d scanned tuples, want 1", probeScanned)
	}

	// The same predicate wrapped so EqConjunction rejects it (a 1-term
	// Or) takes the scan path: same instances, whole relation charged.
	scanScanned, scanned := scannedBy(Query{
		PivotPred: reldb.Or{Terms: []reldb.Expr{reldb.Eq("K0", reldb.Int(3))}},
	})
	if len(scanned) != 1 || scanned[0].Render() != probed[0].Render() {
		t.Fatalf("scan and probe paths disagree: %d instances", len(scanned))
	}
	if scanScanned != 40 {
		t.Fatalf("scan charged %d tuples, want the whole relation (40)", scanScanned)
	}

	// A non-indexed attribute falls back to the scan honestly.
	vScanned, vInsts := scannedBy(Query{PivotPred: reldb.Eq("V", reldb.String("root7"))})
	if len(vInsts) != 1 || vScanned != 40 {
		t.Fatalf("non-indexed equality: %d instances, %d scanned; want 1, 40", len(vInsts), vScanned)
	}
}

// Satellite check for the probe on a richer object: the probe-eligible
// and scan-forced selections of the university Omega must render
// byte-identically.
func TestPivotProbeMatchesScanOnOmega(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	render := func(q Query) []string {
		insts, err := Instantiate(db, om, q)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, insts)
	}
	key := cs345Key()
	probe := render(Query{PivotPred: reldb.Eq("CourseID", key[0])})
	scan := render(Query{PivotPred: reldb.Or{Terms: []reldb.Expr{reldb.Eq("CourseID", key[0])}}})
	if len(probe) == 0 || len(probe) != len(scan) {
		t.Fatalf("probe %d instances, scan %d", len(probe), len(scan))
	}
	for i := range probe {
		if probe[i] != scan[i] {
			t.Fatalf("instance %d differs between probe and scan pivot selection", i)
		}
	}
}

// failingResolver resolves through the database until it meets failRel,
// which always errors — simulating a mid-assembly resolution failure.
type failingResolver struct {
	db      *reldb.Database
	failRel string
}

var errResolveBoom = errors.New("resolver boom")

func (f *failingResolver) Relation(name string) (*reldb.Relation, error) {
	if name == f.failRel {
		return nil, fmt.Errorf("%s: %w", name, errResolveBoom)
	}
	return f.db.Relation(name)
}

// TestParallelErrorPropagation: a resolver that fails below the pivots
// surfaces its error, and no partly assembled instances.
func TestParallelErrorPropagation(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 12})
	if err != nil {
		t.Fatal(err)
	}
	res := &failingResolver{db: w.DB, failRel: "N0_0_0"}
	insts, err := Instantiate(res, w.Def, Query{})
	if !errors.Is(err, errResolveBoom) {
		t.Fatalf("err = %v, want errResolveBoom", err)
	}
	if insts != nil {
		t.Fatalf("errored Instantiate returned %d instances, want nil", len(insts))
	}
}

// The range probe: an ordering predicate over the pivot key must walk
// only its window of the row tree — the first time as every time — and
// must select exactly the pivots the scan would, in the same order.
func TestPivotRangeProbe(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 40})
	if err != nil {
		t.Fatal(err)
	}
	g := structural.NewGraph(w.DB)
	def, err := NewDefinition("pivot-only-range", g, &Node{Relation: "N0"})
	if err != nil {
		t.Fatal(err)
	}
	scannedBy := func(q Query) (int64, []*Instance) {
		before := obs.Capture()
		insts, err := Instantiate(w.DB, def, q)
		if err != nil {
			t.Fatal(err)
		}
		d := obs.Capture().Sub(before)
		return d.Counter("viewobject.instantiate.tuples_scanned"), insts
	}
	rangePred := reldb.And{Terms: []reldb.Expr{
		reldb.Cmp{Op: reldb.OpGe, L: reldb.Attr{Name: "K0"}, R: reldb.Const{V: reldb.Int(10)}},
		reldb.Cmp{Op: reldb.OpLt, L: reldb.Attr{Name: "K0"}, R: reldb.Const{V: reldb.Int(20)}},
	}}

	// There is nothing to build: the first range on this relation version
	// already charges only the selected window.
	hitScanned, hit := scannedBy(Query{PivotPred: rangePred})
	if len(hit) != 10 || hitScanned != 10 {
		t.Fatalf("first range: %d instances, %d scanned; want 10, 10", len(hit), hitScanned)
	}
	narrowScanned, narrow := scannedBy(Query{PivotPred: reldb.Cmp{
		Op: reldb.OpGt, L: reldb.Attr{Name: "K0"}, R: reldb.Const{V: reldb.Int(36)},
	}})
	if len(narrow) != 3 || narrowScanned != 3 {
		t.Fatalf("narrow range: %d instances, %d scanned; want 3, 3", len(narrow), narrowScanned)
	}

	// The same predicate forced down the scan path selects identically.
	_, scanInsts := scannedBy(Query{PivotPred: reldb.Or{Terms: []reldb.Expr{rangePred}}})
	if len(scanInsts) != len(hit) {
		t.Fatalf("scan and range paths disagree: %d vs %d instances", len(scanInsts), len(hit))
	}
	for i := range hit {
		if hit[i].Render() != scanInsts[i].Render() {
			t.Fatalf("instance %d differs between range probe and scan selection", i)
		}
	}
}

// TestWriteTxResolverStaysSequential: the update translators
// instantiate through their write transaction, which must read what the
// database holds.
func TestWriteTxResolverStaysSequential(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 10, Roots: 8, Peninsulas: 1})
	if err != nil {
		t.Fatal(err)
	}
	fromDB, err := Instantiate(w.DB, w.Def, Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, fromDB)

	tx := w.DB.Begin()
	defer tx.Rollback()
	insts, err := Instantiate(tx, w.Def, Query{})
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, insts)
	if len(got) != len(want) {
		t.Fatalf("%d instances through the transaction, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("instance %d differs between the transaction and the database", i)
		}
	}
}
