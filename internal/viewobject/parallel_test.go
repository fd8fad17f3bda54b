package viewobject_test

import (
	"errors"
	"fmt"
	"runtime"
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

func TestParallelInstantiationMetrics(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Roots: 16, Peninsulas: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	before := obs.Capture()
	insts, err := Instantiate(w.DB, w.Def, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 16 {
		t.Fatalf("%d instances, want 16", len(insts))
	}
	d := obs.Capture().Sub(before)
	workers := d.Counter("viewobject.parallel.workers")
	chunks := d.Counter("viewobject.parallel.chunks")
	if workers < 2 || workers > 4 {
		t.Fatalf("parallel.workers = %d, want 2..4", workers)
	}
	if chunks < workers || chunks > 16 {
		t.Fatalf("parallel.chunks = %d (workers %d)", chunks, workers)
	}
	if n := d.Histogram("viewobject.instantiate.parallel_ns").Count; n != 1 {
		t.Fatalf("parallel_ns observed %d times, want 1", n)
	}
	if n := d.LabeledHistogramValue("viewobject.instantiate.parallel_ns", w.Def.Name).Count; n != 1 {
		t.Fatalf("labeled parallel_ns observed %d times, want 1", n)
	}

	// With a budget of 1 the fan-out (and its metrics) must not engage.
	runtime.GOMAXPROCS(1)
	before = obs.Capture()
	if _, err := Instantiate(w.DB, w.Def, Query{}); err != nil {
		t.Fatal(err)
	}
	d = obs.Capture().Sub(before)
	if n := d.Counter("viewobject.parallel.workers"); n != 0 {
		t.Fatalf("sequential run counted %d parallel workers", n)
	}
	if n := d.Histogram("viewobject.instantiate.parallel_ns").Count; n != 0 {
		t.Fatalf("sequential run observed parallel_ns %d times", n)
	}
}

// failingResolver resolves through the database until it meets failRel,
// which always errors — simulating a mid-assembly resolution failure
// inside the worker pool.
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

func TestParallelErrorPropagation(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 12})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	// Every worker hits the failure when it descends to the failing child
	// relation; the fan-out must drain cleanly and surface the error.
	res := &failingResolver{db: w.DB, failRel: "N0_0_0"}
	insts, err := Instantiate(res, w.Def, Query{})
	if !errors.Is(err, errResolveBoom) {
		t.Fatalf("err = %v, want errResolveBoom", err)
	}
	if insts != nil {
		t.Fatalf("errored Instantiate returned %d instances, want nil", len(insts))
	}

	// The sequential path reports the same error.
	runtime.GOMAXPROCS(1)
	if _, err := Instantiate(res, w.Def, Query{}); !errors.Is(err, errResolveBoom) {
		t.Fatalf("sequential err = %v, want errResolveBoom", err)
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

// Work stealing: a wide level must split across spare worker tokens —
// and produce instances byte-identical to a sequential fill, which is
// the whole point of the disjoint-segment design.
func TestLevelWorkStealingMatchesSequential(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 10, Roots: 2, Peninsulas: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two pivots keep the chunked fan-out off (below minParallelPivots),
	// so any parallelism below comes from level stealing alone.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	before := obs.Capture()
	stolen, err := Instantiate(w.DB, w.Def, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if n := obs.Capture().Sub(before).Counter("viewobject.parallel.steals"); n == 0 {
		t.Fatal("wide levels with spare workers recorded no steals")
	}

	runtime.GOMAXPROCS(1)
	before = obs.Capture()
	sequential, err := Instantiate(w.DB, w.Def, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if n := obs.Capture().Sub(before).Counter("viewobject.parallel.steals"); n != 0 {
		t.Fatalf("parallelism 1 stole %d times", n)
	}

	if len(stolen) != len(sequential) || len(stolen) != 2 {
		t.Fatalf("instance counts: stolen %d, sequential %d, want 2", len(stolen), len(sequential))
	}
	for i := range stolen {
		if stolen[i].Render() != sequential[i].Render() {
			t.Fatalf("instance %d differs between stolen and sequential assembly:\n%s\n---\n%s",
				i, stolen[i].Render(), sequential[i].Render())
		}
	}
}

// chunkShapeWorkers × 4..33 items covers every way a rounded-up chunk
// size can overshoot the item count (10 items in 8 chunks of 2 need only
// 5) — the shapes a 1- and 4-core CI host never produced.
var chunkShapeWorkers = []int{1, 2, 3, 4, 8}

// renderWith instantiates the whole object under the given worker budget.
func renderWith(t *testing.T, w *workload.Workload, workers int) []string {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	insts, err := Instantiate(w.DB, w.Def, Query{})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return renderAll(t, insts)
}

// TestChunkShapesMatchSequential runs the table over both splits of the
// assembler: the pivot chunking of instantiateParallel (n roots) and the
// segment split of fillChildLevel (one root whose second level has n
// parents, so only level stealing can fan out). Neither may panic, and
// each must equal the sequential result element by element.
func TestChunkShapesMatchSequential(t *testing.T) {
	for n := 4; n <= 33; n++ {
		for name, spec := range map[string]workload.TreeSpec{
			"pivots":  {Depth: 1, Width: 1, Fanout: 2, Roots: n},
			"parents": {Depth: 2, Width: 1, Fanout: n, Roots: 1},
		} {
			w, err := workload.BuildTree(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := renderWith(t, w, 1)
			for _, workers := range chunkShapeWorkers {
				got := renderWith(t, w, workers)
				if len(got) != len(want) {
					t.Fatalf("%s=%d workers=%d: %d instances, want %d", name, n, workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s=%d workers=%d: instance %d differs from the sequential result", name, n, workers, i)
					}
				}
			}
		}
	}
}

// A write transaction is not safe to resolve through from several
// goroutines (Relation clones lazily into a plain map), and the update
// translators instantiate through theirs: neither the pivot fan-out nor
// level stealing may engage for it, whatever the worker budget.
func TestWriteTxResolverStaysSequential(t *testing.T) {
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 10, Roots: 8, Peninsulas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	want := renderWith(t, w, 1)

	tx := w.DB.Begin()
	defer tx.Rollback()
	before := obs.Capture()
	insts, err := Instantiate(tx, w.Def, Query{})
	if err != nil {
		t.Fatal(err)
	}
	d := obs.Capture().Sub(before)
	if workers, steals := d.Counter("viewobject.parallel.workers"), d.Counter("viewobject.parallel.steals"); workers != 0 || steals != 0 {
		t.Fatalf("write-transaction resolver fanned out: %d pool workers, %d steals", workers, steals)
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
