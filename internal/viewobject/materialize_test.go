package viewobject_test

import (
	"runtime"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/university"
	. "penguin/internal/viewobject"
	"penguin/internal/workload"
)

// matCounters reads the materializer counter family.
type matCounters struct {
	hits, misses, patches, fallbacks int64
}

func captureMat() matCounters {
	s := obs.Capture()
	return matCounters{
		hits:      s.Counter("viewobject.materialize.hits"),
		misses:    s.Counter("viewobject.materialize.misses"),
		patches:   s.Counter("viewobject.materialize.patches"),
		fallbacks: s.Counter("viewobject.materialize.falls_back"),
	}
}

// mustMatchFresh asserts the materialized serve is byte-identical —
// contents and order — to a fresh instantiation of the same query over
// the current committed state.
func mustMatchFresh(t *testing.T, db *reldb.Database, def *Definition, m *Materializer, q Query) {
	t.Helper()
	got, err := m.Instantiate(q)
	if err != nil {
		t.Fatalf("materialized instantiate: %v", err)
	}
	rtx := db.BeginRead()
	want, err := Instantiate(rtx, def, q)
	rtx.Close()
	if err != nil {
		t.Fatalf("fresh instantiate: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("materialized %d instances, fresh %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].Render(), want[i].Render(); g != w {
			t.Fatalf("instance %d diverged\nmaterialized:\n%s\nfresh:\n%s", i, g, w)
		}
	}
}

func TestMaterializerPatchesMatchFresh(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	m := NewMaterializer(db, om)
	defer m.Close()
	s := reldb.String
	i := reldb.Int

	c0 := captureMat()
	mustMatchFresh(t, db, om, m, Query{}) // cold: miss
	mustMatchFresh(t, db, om, m, Query{}) // unchanged: hit, nothing to patch
	c1 := captureMat()
	if c1.misses-c0.misses != 1 || c1.hits-c0.hits != 1 {
		t.Fatalf("cold+warm serves: misses +%d hits +%d, want +1/+1", c1.misses-c0.misses, c1.hits-c0.hits)
	}
	if c1.patches != c0.patches {
		t.Fatalf("no data changed but %d patches applied", c1.patches-c0.patches)
	}
	if m.Generation() != db.Generation() {
		t.Fatalf("cache at gen %d, head %d", m.Generation(), db.Generation())
	}

	// Pivot membership: a new course adds an instance; deleting one drops
	// it; a same-key pivot replace rebuilds it in place.
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		return tx.Insert(university.Courses, reldb.Tuple{s("CS999"), s("Seminar"), s("Computer Science"), i(1), s("graduate")})
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Replace(university.Courses, reldb.Tuple{s("CS999")},
			reldb.Tuple{s("CS999"), s("Research Seminar"), s("Computer Science"), i(2), s("graduate")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Delete(university.Courses, reldb.Tuple{s("CS999")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})

	// Non-pivot deltas localize through reverse paths: a new grade patches
	// the CS101 instance (and, through the two-connection STUDENT path,
	// whatever instances the student reaches).
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		return tx.Insert(university.Grades, reldb.Tuple{s("CS101"), i(6), s("Win91"), s("C")})
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Replace(university.Grades, reldb.Tuple{s("CS101"), i(6)},
			reldb.Tuple{s("CS101"), i(6), s("Win91"), s("B")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})
	// A key-changing replace (delete+insert in the delta) moves the grade
	// to another course: both instances patch.
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Replace(university.Grades, reldb.Tuple{s("CS101"), i(6)},
			reldb.Tuple{s("CS345"), i(6), s("Win91"), s("B")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})
	// A mid-path relation (STUDENT sits behind GRADES): patching must find
	// every course the student is graded in.
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Replace(university.Student, reldb.Tuple{i(1)},
			reldb.Tuple{i(1), s("PhD"), i(4)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})

	c2 := captureMat()
	if c2.patches == c1.patches {
		t.Fatal("data changed across serves but no patches were counted")
	}
	if c2.fallbacks != c1.fallbacks {
		t.Fatalf("localizable deltas triggered %d fallbacks", c2.fallbacks-c1.fallbacks)
	}
	ps := obs.Capture().Histogram("viewobject.materialize.patch_ns")
	if ps.Count == 0 {
		t.Fatal("patch latency histogram recorded nothing")
	}
}

func TestMaterializerQueriesMatchFresh(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	m := NewMaterializer(db, om)
	defer m.Close()

	queries := []Query{
		{PivotPred: reldb.Eq("Level", reldb.String("graduate"))},
		{
			PivotPred:  reldb.Eq("Level", reldb.String("graduate")),
			CountConds: []CountCond{{NodeID: university.Student, Op: reldb.OpLt, N: 5}},
		},
		{NodePreds: []NodePred{{NodeID: university.Student, Pred: reldb.Eq("Degree", reldb.String("PhD"))}}},
	}
	for _, q := range queries {
		mustMatchFresh(t, db, om, m, q)
	}
	// Patch, then re-run every query shape against the patched cache.
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Delete(university.Grades, reldb.Tuple{reldb.String("EE380"), reldb.Int(3)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		mustMatchFresh(t, db, om, m, q)
	}
}

func TestMaterializerInstantiateByKey(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	m := NewMaterializer(db, om)
	defer m.Close()

	check := func(course string, wantOK bool) {
		t.Helper()
		key := reldb.Tuple{reldb.String(course)}
		got, ok, err := m.InstantiateByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		rtx := db.BeginRead()
		want, wok, werr := InstantiateByKey(rtx, om, key)
		rtx.Close()
		if werr != nil {
			t.Fatal(werr)
		}
		if ok != wok || ok != wantOK {
			t.Fatalf("%s: materialized ok=%v fresh ok=%v want %v", course, ok, wok, wantOK)
		}
		if ok && got.Render() != want.Render() {
			t.Fatalf("%s diverged\nmaterialized:\n%s\nfresh:\n%s", course, got.Render(), want.Render())
		}
	}
	check("CS345", true)
	check("NOPE", false)
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Delete(university.Courses, reldb.Tuple{reldb.String("CS345")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("CS345", false)
}

func TestMaterializerDDL(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	m := NewMaterializer(db, om)
	defer m.Close()

	mustMatchFresh(t, db, om, m, Query{})
	c0 := captureMat()

	// DDL on a relation outside the definition is invisible: the next
	// serve is still a plain hit.
	aux := reldb.MustSchema("AUX", []reldb.Attribute{{Name: "ID", Type: reldb.KindInt}}, []string{"ID"})
	if _, err := db.CreateRelation(aux); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("AUX"); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})
	c1 := captureMat()
	if c1.hits-c0.hits != 1 || c1.fallbacks != c0.fallbacks {
		t.Fatalf("unrelated DDL: hits +%d fallbacks +%d, want +1/+0", c1.hits-c0.hits, c1.fallbacks-c0.fallbacks)
	}

	// Structural DDL on a definition relation cannot be localized: the
	// serve falls back to full re-instantiation (and still matches).
	sch := db.MustRelation(university.Curriculum).Schema()
	rows := db.MustRelation(university.Curriculum).All()
	if err := db.DropRelation(university.Curriculum); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(sch); err != nil {
		t.Fatal(err)
	}
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		for _, r := range rows {
			if err := tx.Insert(university.Curriculum, r.Tuple()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mustMatchFresh(t, db, om, m, Query{})
	c2 := captureMat()
	if c2.fallbacks-c1.fallbacks != 1 {
		t.Fatalf("structural DDL on a definition relation: fallbacks +%d, want +1", c2.fallbacks-c1.fallbacks)
	}
}

// TestMaterializerOverflowResyncs: more commits land between two reads
// than a delta-stream subscription queue would hold (DefaultDeltaBuffer),
// and the cache still catches up by patching — it diffs the relation
// versions at its generation against the head's, so the length of the
// window costs nothing but the size of its net change.
func TestMaterializerOverflowResyncs(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	m := NewMaterializer(db, om)
	defer m.Close()

	mustMatchFresh(t, db, om, m, Query{})
	c0 := captureMat()
	const commits = reldb.DefaultDeltaBuffer + 44
	for n := 0; n < commits; n++ {
		if err := db.RunInTx(func(tx *reldb.Tx) error {
			return tx.Insert(university.Grades, reldb.Tuple{reldb.String("EE201"), reldb.Int(int64(4 + n)), reldb.String("Spr91"), reldb.String("B")})
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustMatchFresh(t, db, om, m, Query{})
	c1 := captureMat()
	if c1.hits-c0.hits != 1 || c1.misses != c0.misses || c1.fallbacks != c0.fallbacks {
		t.Fatalf("catch-up over %d commits: hits +%d misses +%d fallbacks +%d, want +1/+0/+0",
			commits, c1.hits-c0.hits, c1.misses-c0.misses, c1.fallbacks-c0.fallbacks)
	}
	if c1.patches == c0.patches {
		t.Fatalf("catch-up over %d commits patched nothing", commits)
	}
	if m.Generation() != db.Generation() {
		t.Fatalf("cache at gen %d, head %d", m.Generation(), db.Generation())
	}
}

// Served instances are clones: mutating the caller's copy must not leak
// into later serves.
func TestMaterializerServesClones(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	m := NewMaterializer(db, om)
	defer m.Close()

	a, err := m.Instantiate(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no instances")
	}
	if err := a[0].Root().SetAttr(om, "Title", reldb.String("CLOBBERED")); err != nil {
		t.Fatal(err)
	}
	b, err := m.Instantiate(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range b {
		if v, ok := inst.Root().Get(om, "Title"); ok {
			if sv, _ := v.AsString(); sv == "CLOBBERED" {
				t.Fatal("mutation through a served clone leaked into the cache")
			}
		}
	}
}

// TestMaterializerRetention pins what a patched materialized instance
// keeps alive (DESIGN §11). Assembly builds each level's components in
// slabs shared by the instances of one batch — one full build, or the
// instances one sync rebuilt — so a live instance pins
// its batch-mates' nodes until every one of them is replaced or
// dropped. Replacing every instance once therefore frees every earlier
// batch, and the cache costs what one built fresh at that generation
// costs; a full build with a single survivor pins at most that build's
// nodes besides the live ones.
func TestMaterializerRetention(t *testing.T) {
	const roots, perCommit = 256, 32
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Peninsulas: 1, Roots: roots})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// cost is the heap m's cache holds: the heap with it, less the heap
	// once it is dropped. The database must outlive every measurement
	// (see the KeepAlive below), or the last one would count it too.
	cost := func(m *Materializer) int64 {
		with := heap()
		m.Close()
		return with - heap()
	}
	sync := func(m *Materializer) {
		if _, ok, err := m.InstantiateByKey(reldb.Tuple{reldb.Int(0)}); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}
	build := func() *Materializer {
		m := NewMaterializer(w.DB, w.Def)
		sync(m)
		return m
	}
	// replace rewrites the pivot payload of keys [from, roots), perCommit
	// pivots a commit, and syncs m after each commit: every sync rebuilds
	// its commit's instances as one batch.
	replace := func(m *Materializer, from int, stamp string) {
		for lo := from; lo < roots; lo += perCommit {
			tx := w.DB.Begin()
			for k := lo; k < min(lo+perCommit, roots); k++ {
				key := reldb.Int(int64(k))
				if _, err := tx.Replace("N0", reldb.Tuple{key}, reldb.Tuple{key, reldb.String(stamp)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			sync(m)
		}
	}

	m := build()
	replace(m, 0, "every")
	patched := cost(m)
	fresh := cost(build())
	t.Logf("every instance replaced: %d B against %d B built fresh (%.2fx)", patched, fresh, float64(patched)/float64(fresh))
	if patched > fresh*11/10 {
		t.Errorf("a cache whose every instance was replaced holds %d B, want <= 1.1 x %d B (fresh)", patched, fresh)
	}

	m = build()
	replace(m, 1, "all-but-one")
	pinned := cost(m)
	fresh = cost(build())
	t.Logf("one survivor of a full build: %d B against %d B built fresh (%.2fx)", pinned, fresh, float64(pinned)/float64(fresh))
	if pinned > fresh*22/10 {
		t.Errorf("a cache with one survivor of its full build holds %d B, want <= 2.2 x %d B (its own nodes plus that build's)", pinned, fresh)
	}
	runtime.KeepAlive(w)
}
