// Concurrency acceptance tests over the university fixture: snapshot
// readers instantiating ω while writers run VO-CD / VO-CI / VO-R update
// translations. These are the top-level proof (run with `go test -race`)
// that the unlocked read path is gone: instantiation reads through
// snapshot-isolated ReadTx values and never observes a torn instance.
package penguin_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"penguin"
	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
	"penguin/internal/workload"
)

// TestConcurrentInstantiationDuringUpdates runs 4 snapshot readers
// instantiating ω for every course while one writer cycles a course
// through VO-R (title stamp), VO-CD, and VO-CI. Readers assert that an
// instance, when present, is whole: it carries the same GRADES /
// CURRICULUM component counts as the seeded state and exactly one
// DEPARTMENT component. A read overlapping a half-applied translation
// would see a partial shape; snapshot isolation makes that impossible.
func TestConcurrentInstantiationDuringUpdates(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	u := vupdate.NewUpdater(vupdate.PermissiveTranslator(om))

	const hot = "CS345" // the course the writer churns
	courses := courseIDs(t, db)

	// Record the seeded component shape of every course; VO-R / VO-CD /
	// VO-CI preserve it, so any deviation is a torn read.
	type shape struct{ grades, curriculum int }
	want := make(map[string]shape)
	for _, id := range courses {
		inst, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{reldb.String(id)})
		if err != nil || !ok {
			t.Fatalf("seed instantiate %s: ok=%v err=%v", id, ok, err)
		}
		want[id] = shape{
			grades:     inst.Count(university.Grades),
			curriculum: inst.Count(university.Curriculum),
		}
	}

	const readers = 4
	const cycles = 60
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := courses[i%len(courses)]
				rtx := db.BeginRead()
				inst, ok, err := viewobject.InstantiateByKey(rtx, om, reldb.Tuple{reldb.String(id)})
				rtx.Close()
				if err != nil {
					errs <- fmt.Errorf("reader %d: %s: %v", r, id, err)
					return
				}
				if !ok {
					if id != hot { // only the hot course is ever deleted
						errs <- fmt.Errorf("reader %d: course %s vanished", r, id)
						return
					}
					continue
				}
				w := want[id]
				if got := inst.Count(university.Grades); got != w.grades {
					errs <- fmt.Errorf("reader %d: %s has %d GRADES, want %d (torn)", r, id, got, w.grades)
					return
				}
				if got := inst.Count(university.Curriculum); got != w.curriculum {
					errs <- fmt.Errorf("reader %d: %s has %d CURRICULUM, want %d (torn)", r, id, got, w.curriculum)
					return
				}
				if got := inst.Count(university.Department); got != 1 {
					errs <- fmt.Errorf("reader %d: %s has %d DEPARTMENT components (torn)", r, id, got)
					return
				}
			}
		}(r)
	}

	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		key := reldb.Tuple{reldb.String(hot)}
		for c := 0; c < cycles; c++ {
			// VO-R: restamp the title in place.
			rtx := db.BeginRead()
			cur, ok, err := viewobject.InstantiateByKey(rtx, om, key)
			rtx.Close()
			if err != nil || !ok {
				errs <- fmt.Errorf("writer: capture cycle %d: ok=%v err=%v", c, ok, err)
				return
			}
			repl := cur.Clone()
			if err := repl.Root().SetAttr(om, "Title", reldb.String(fmt.Sprintf("Databases (rev %d)", c))); err != nil {
				errs <- err
				return
			}
			if _, err := u.ReplaceInstance(cur, repl); err != nil {
				errs <- fmt.Errorf("writer: VO-R cycle %d: %v", c, err)
				return
			}
			// VO-CD then VO-CI: delete the whole instance and put it back.
			if _, err := u.DeleteByKey(key); err != nil {
				errs <- fmt.Errorf("writer: VO-CD cycle %d: %v", c, err)
				return
			}
			if _, err := u.InsertInstance(repl); err != nil {
				errs <- fmt.Errorf("writer: VO-CI cycle %d: %v", c, err)
				return
			}
		}
	}()
	wwg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After the churn the hot course must be whole in the committed state.
	inst, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{reldb.String(hot)})
	if err != nil || !ok {
		t.Fatalf("final instantiate: ok=%v err=%v", ok, err)
	}
	if got := inst.Count(university.Grades); got != want[hot].grades {
		t.Fatalf("final GRADES count %d, want %d", got, want[hot].grades)
	}
}

// TestReadTxForkPreviewDuringWrites runs vupdate previews (what-if reads
// on a ReadTx fork) concurrently with committing writers; previews must
// neither block on nor perturb the live database.
func TestReadTxForkPreviewDuringWrites(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	u := vupdate.NewUpdater(vupdate.PermissiveTranslator(om))
	before := db.MustRelation(university.Grades).Count()

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := u.PreviewDeleteByKey(reldb.Tuple{reldb.String("CS101")})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Ops) == 0 {
					errs <- fmt.Errorf("preview %d produced no operations", i)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			pid := int64(1000 + i)
			err := db.RunInTx(func(tx *reldb.Tx) error {
				return tx.Insert(university.Grades,
					reldb.Tuple{reldb.String("CS101"), reldb.Int(pid), reldb.String("Spr91"), reldb.String("B")})
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Previews were what-if only: CS108 still exists, and exactly the
	// writer's 30 grade rows were added.
	if !db.MustRelation(university.Courses).Has(reldb.Tuple{reldb.String("CS101")}) {
		t.Fatal("preview deleted CS101 from the live database")
	}
	if got := db.MustRelation(university.Grades).Count(); got != before+30 {
		t.Fatalf("GRADES count %d, want %d", got, before+30)
	}
}

// TestConcurrentMetricCoherence hammers the commit path from several
// writers while a sampler goroutine snapshots the metrics mid-flight.
// The histogram ordering contract (bucket, sum, count written in that
// order; count read first) means a sampled commit-latency histogram may
// trail the buckets but never lead them — Count <= ΣBuckets always, and
// after the writers quiesce the counters match the work performed
// exactly: commits recorded == commits performed, Count == ΣBuckets.
func TestConcurrentMetricCoherence(t *testing.T) {
	db, _ := university.MustNewSeeded()
	before := penguin.Stats()

	const writers = 4
	const perWriter = 50
	stop := make(chan struct{})
	var torn atomic.Int64
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := penguin.Stats().Histogram("reldb.tx.commit_ns")
			var sum int64
			for _, b := range st.Buckets {
				sum += b
			}
			if st.Count > sum {
				torn.Add(1)
			}
		}
	}()

	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				pid := int64(10_000 + w*perWriter + i)
				err := db.RunInTx(func(tx *reldb.Tx) error {
					return tx.Insert(university.Grades,
						reldb.Tuple{reldb.String("CS101"), reldb.Int(pid), reldb.String("Spr91"), reldb.String("A")})
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if n := torn.Load(); n != 0 {
		t.Errorf("sampler observed %d torn histogram reads (Count > ΣBuckets)", n)
	}
	delta := penguin.Stats().Sub(before)
	if got := delta.Counter("reldb.tx.commits"); got != writers*perWriter {
		t.Errorf("reldb.tx.commits = %d, want %d (commits performed)", got, writers*perWriter)
	}
	hist := delta.Histogram("reldb.tx.commit_ns")
	if hist.Count != writers*perWriter {
		t.Errorf("commit_ns.count = %d, want %d", hist.Count, writers*perWriter)
	}
	var sum int64
	for _, b := range hist.Buckets {
		sum += b
	}
	if sum != hist.Count {
		t.Errorf("quiesced histogram torn: Count=%d ΣBuckets=%d", hist.Count, sum)
	}
}

// TestStressMetricsCoherent runs the workload stress suite and checks
// the metric delta it captured is internally coherent: every commit the
// counter recorded also landed in the latency histogram, and every
// committed update translation was counted.
func TestStressMetricsCoherent(t *testing.T) {
	res, err := workload.RunStress(workload.StressSpec{
		Tree:    workload.TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 4},
		Readers: 3,
		Writers: 2,
		Cycles:  4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("stress violations: %v", res.Violations)
	}
	m := res.Metrics
	commits := m.Counter("reldb.tx.commits")
	if commits == 0 {
		t.Fatal("stress run recorded no commits")
	}
	if got := m.Histogram("reldb.tx.commit_ns").Count; got != commits {
		t.Errorf("commit_ns.count = %d, want %d (commits counter)", got, commits)
	}
	performed := res.Replaces + res.Deletes + res.Inserts
	if got := m.Counter("vupdate.updates.committed"); got < performed {
		t.Errorf("updates.committed = %d, want >= %d (stress tallies)", got, performed)
	}
	if s := res.Summary(); !strings.Contains(s, "stress: ") || !strings.Contains(s, "violations") {
		t.Errorf("summary line malformed: %s", s)
	}
}

// courseIDs lists the seeded course keys.
func courseIDs(t *testing.T, db *reldb.Database) []string {
	t.Helper()
	var ids []string
	db.MustRelation(university.Courses).Scan(func(tup reldb.Tuple) bool {
		s, _ := tup[0].AsString()
		ids = append(ids, s)
		return true
	})
	if len(ids) == 0 {
		t.Fatal("no courses seeded")
	}
	return ids
}
