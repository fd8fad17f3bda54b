package penguin_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// TestScaleIntegration exercises the whole stack at ~50k rows: seed,
// snapshot to disk and back, instantiate, update through objects, audit.
func TestScaleIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	db, g := university.New()
	spec := university.ScaleSpec{
		Departments:      40,
		StudentsPerDept:  100,
		FacultyPerDept:   5,
		CoursesPerDept:   20,
		GradesPerCourse:  40,
		DegreesPerDept:   3,
		CoursesPerDegree: 4,
	}
	if err := university.SeedScaled(db, spec); err != nil {
		t.Fatal(err)
	}
	total := db.TotalRows()
	if total < 40_000 {
		t.Fatalf("scale too small: %d rows", total)
	}
	t.Logf("seeded %d rows", total)

	// Snapshot round trip through a real file.
	path := filepath.Join(t.TempDir(), "scale.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := reldb.ReadSnapshot(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalRows() != total {
		t.Fatalf("snapshot lost rows: %d vs %d", loaded.TotalRows(), total)
	}

	// Object work at scale.
	om := university.MustOmega(g)
	u := vupdate.NewUpdater(vupdate.PermissiveTranslator(om))
	inst, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{reldb.String("C000-005")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if inst.Count(university.Grades) != spec.GradesPerCourse {
		t.Fatalf("grades = %d, want %d", inst.Count(university.Grades), spec.GradesPerCourse)
	}

	// Delete 10 courses, rename 10 more.
	for i := 0; i < 10; i++ {
		key := reldb.Tuple{reldb.String(fmt.Sprintf("C%03d-%03d", i, 0))}
		if _, err := u.DeleteByKey(key); err != nil {
			t.Fatalf("delete %v: %v", key, err)
		}
	}
	for i := 0; i < 10; i++ {
		key := reldb.Tuple{reldb.String(fmt.Sprintf("C%03d-%03d", i, 1))}
		old, ok, err := viewobject.InstantiateByKey(db, om, key)
		if err != nil || !ok {
			t.Fatalf("instance %v: %v %v", key, ok, err)
		}
		repl := old.Clone()
		if err := repl.Root().SetAttr(om, "CourseID", reldb.String(fmt.Sprintf("REN-%03d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := u.ReplaceInstance(old, repl); err != nil {
			t.Fatalf("replace %v: %v", key, err)
		}
	}

	in := &structural.Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("%d violations after scale updates", len(vs))
	}
}

// TestMaterializedReadSpeedup is the perf gate for the materialized
// view-object cache. Correctness is not at stake (the differential
// tests pin the two paths byte-identical); this guards the point of the
// cache — that serving patched instances skips the per-read traversal
// work. It asserts the mechanism by counts: on the university fixture a
// cold instantiation of ω scans 38 tuples, and a patched-cache hit scans
// none and counts one hit. The wall-clock ratio — a hit at least 5x
// faster than a cold instantiation at the same generation — is timed
// only when the run selects this test alone (make speedup): under
// go test ./... the other packages' suites share the host, and one such
// run on two cores read 3.42x.
func TestMaterializedReadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup test skipped in -short mode")
	}
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	m := viewobject.NewMaterializer(db, om)
	defer m.Close()
	if _, err := m.Instantiate(viewobject.Query{}); err != nil {
		t.Fatal(err) // build the cache cold once
	}
	readHit := func() error {
		insts, err := m.Instantiate(viewobject.Query{})
		if err == nil && len(insts) != 6 {
			return fmt.Errorf("%d instances, want 6", len(insts))
		}
		return err
	}
	readCold := func() error {
		rtx := db.BeginRead()
		defer rtx.Close()
		insts, err := viewobject.Instantiate(rtx, om, viewobject.Query{})
		if err == nil && len(insts) != 6 {
			return fmt.Errorf("%d instances, want 6", len(insts))
		}
		return err
	}
	counts := func(read func() error) (scanned, hits int64) {
		before := obs.Capture()
		if err := read(); err != nil {
			t.Fatal(err)
		}
		d := obs.Capture().Sub(before)
		return d.Counter("viewobject.instantiate.tuples_scanned"), d.Counter("viewobject.materialize.hits")
	}
	if scanned, hits := counts(readCold); scanned != 38 || hits != 0 {
		t.Fatalf("cold read: %d tuples scanned, %d hits; want 38 and 0", scanned, hits)
	}
	if scanned, hits := counts(readHit); scanned != 0 || hits != 1 {
		t.Fatalf("materialized read: %d tuples scanned, %d hits; want 0 and 1", scanned, hits)
	}
	if flag.Lookup("test.run").Value.String() != "^TestMaterializedReadSpeedup$" {
		t.Log("wall-clock ratio not timed: run alone with make speedup")
		return
	}
	// Interleaved best-of-N: the two modes alternate within each round so
	// host-load bursts hit both alike, and best-of discards the bursts.
	// Round 0 is warm-up for the allocator.
	const reads = 50
	batch := func(read func() error) time.Duration {
		start := time.Now()
		for r := 0; r < reads; r++ {
			if err := read(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	hit := time.Duration(1<<63 - 1)
	cold := hit
	for i := 0; i < 8; i++ {
		h, c := batch(readHit), batch(readCold)
		if i == 0 {
			continue
		}
		if h < hit {
			hit = h
		}
		if c < cold {
			cold = c
		}
	}
	ratio := float64(cold) / float64(hit)
	t.Logf("materialized hit %v, cold instantiate %v, speedup %.2fx", hit, cold, ratio)
	if ratio < 5 {
		t.Errorf("materialized read speedup %.2fx < 5x (hit %v, cold %v)", ratio, hit, cold)
	}
}

// TestConcurrentTransactions hammers the database from many goroutines;
// the single-writer transaction discipline must serialize them without
// losing or duplicating rows (run with -race in CI).
func TestConcurrentTransactions(t *testing.T) {
	db := reldb.NewDatabase()
	db.MustCreateRelation(reldb.MustSchema("N", []reldb.Attribute{
		{Name: "ID", Type: reldb.KindInt},
		{Name: "Writer", Type: reldb.KindInt},
	}, []string{"ID"}))

	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				err := db.RunInTx(func(tx *reldb.Tx) error {
					return tx.Insert("N", reldb.Tuple{reldb.Int(id), reldb.Int(int64(w))})
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Reads serialize through a no-op transaction so they
				// never observe a torn write.
				_ = db.RunInTx(func(tx *reldb.Tx) error {
					rel, err := tx.Relation("N")
					if err != nil {
						return err
					}
					_ = rel.Count()
					return nil
				})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := db.MustRelation("N").Count(); got != writers*perWriter {
		t.Fatalf("rows = %d, want %d", got, writers*perWriter)
	}
}
