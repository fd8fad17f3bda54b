// Benchmark harness: the paper's figure stages (E1-E6), the experiments
// it argues qualitatively (E7, E10-E12), and what no row of the
// end-to-end benchmark's layer ledger (go run ./benchmark) reports: the
// design ablations and shard-count scaling. Run with
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the measured shapes against the paper's claims.
package penguin_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"penguin"
	"penguin/internal/keller"
	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
	"penguin/internal/workload"
)

// E1 — Figure 1: constructing and validating the structural schema.
func BenchmarkFig1SchemaConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, g := university.New()
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// E2 — Figure 2(a): relevant-subgraph extraction via the information
// metric.
func BenchmarkFig2aSubgraphExtraction(b *testing.B) {
	_, g := university.New()
	m := viewobject.DefaultMetric()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := viewobject.ExtractSubgraph(g, university.Courses, m); err != nil {
			b.Fatal(err)
		}
	}
}

// E3 — Figure 2(b): tree expansion with circuit breaking.
func BenchmarkFig2bTreeGeneration(b *testing.B) {
	_, g := university.New()
	sub, err := viewobject.ExtractSubgraph(g, university.Courses, viewobject.DefaultMetric())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := viewobject.BuildTree(sub)
		if tree.Size() == 0 {
			b.Fatal("empty tree")
		}
	}
}

// E4 — Figure 2(c): pruning the tree into ω.
func BenchmarkFig2cPruning(b *testing.B) {
	_, g := university.New()
	sub, err := viewobject.ExtractSubgraph(g, university.Courses, viewobject.DefaultMetric())
	if err != nil {
		b.Fatal(err)
	}
	tree := viewobject.BuildTree(sub)
	include := map[string][]string{
		university.Courses:    {"CourseID", "Title", "DeptName", "Units", "Level"},
		university.Department: {"DeptName", "Building"},
		university.Curriculum: {"DeptName", "Degree", "CourseID"},
		university.Grades:     {"CourseID", "PID", "Quarter", "Grade"},
		university.Student:    {"PID", "Degree", "Year"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Configure("omega", include); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — Figure 3: the alternate object ω′ (full pipeline, multi-connection
// paths).
func BenchmarkFig3AlternateObject(b *testing.B) {
	_, g := university.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := university.OmegaPrime(g); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 — Figure 4: instantiating ω for "graduate courses with less than 5
// students enrolled", at growing database scale.
func BenchmarkFig4Instantiation(b *testing.B) {
	for _, scale := range []struct {
		name  string
		depts int
	}{
		{"3courses", 1}, {"30courses", 5}, {"300courses", 50},
	} {
		b.Run(scale.name, func(b *testing.B) {
			db, g := university.New()
			err := university.SeedScaled(db, university.ScaleSpec{
				Departments:      scale.depts,
				StudentsPerDept:  20,
				FacultyPerDept:   2,
				CoursesPerDept:   6,
				GradesPerCourse:  8,
				DegreesPerDept:   2,
				CoursesPerDegree: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			om := university.MustOmega(g)
			q, err := oql.Parse(om, `Level = 'graduate' and count(STUDENT) < 5`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := viewobject.Instantiate(db, om, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E7 — §6: the translator-selection dialog for ω.
func BenchmarkDialogTranslatorChoice(b *testing.B) {
	_, g := university.New()
	om := university.MustOmega(g)
	answers := vupdate.PaperDialogAnswers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vupdate.ChooseTranslator(om, answers); err != nil {
			b.Fatal(err)
		}
	}
}

// E10 — amortization: the definition-time translator (dialog once, then
// translate every update) versus re-running the dialog before every
// update. The paper's claim: "the effort of answering the series of
// questions once during view-definition time is amortized over all the
// times that updates against the view are subsequently requested."
func BenchmarkAmortization(b *testing.B) {
	prepare := func(b *testing.B) (*vupdate.Updater, *university.UpdateCycle) {
		b.Helper()
		db, g := university.New()
		err := university.SeedScaled(db, university.ScaleSpec{
			Departments: 1, StudentsPerDept: 8, CoursesPerDept: 1, GradesPerCourse: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		om := university.MustOmega(g)
		tr, _, err := vupdate.ChooseTranslator(om, vupdate.PaperDialogAnswers())
		if err != nil {
			b.Fatal(err)
		}
		tr.RepairInserts = true
		cycle := university.NewUpdateCycle(om)
		return vupdate.NewUpdater(tr), cycle
	}
	b.Run("precompiled-translator", func(b *testing.B) {
		u, cycle := prepare(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cycle.Run(u, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dialog-per-update", func(b *testing.B) {
		u, cycle := prepare(b)
		om := u.T.Definition()
		answers := vupdate.PaperDialogAnswers()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Re-derive the translator before every update, as a system
			// without definition-time choice would have to.
			tr, _, err := vupdate.ChooseTranslator(om, answers)
			if err != nil {
				b.Fatal(err)
			}
			tr.RepairInserts = true
			if err := cycle.Run(vupdate.NewUpdater(tr), i); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The paper's amortization argument is about DBA effort: a dialog is
	// answered by a person. Simulate a (very fast) DBA taking 1ms per
	// question; the definition-time translator pays it once, the
	// per-update dialog pays ~19ms on every single update.
	slowDBA := vupdate.AnswerFunc(func(q vupdate.Question) (bool, error) {
		busyWait(time.Millisecond)
		return vupdate.PaperDialogAnswers().Answer(q)
	})
	b.Run("precompiled-with-1ms-DBA", func(b *testing.B) {
		_, cycle := prepare(b)
		db2, g2 := university.New()
		if err := university.SeedScaled(db2, university.ScaleSpec{
			Departments: 1, StudentsPerDept: 8, CoursesPerDept: 1, GradesPerCourse: 1,
		}); err != nil {
			b.Fatal(err)
		}
		_ = db2
		om2 := university.MustOmega(g2)
		cycle = university.NewUpdateCycle(om2)
		b.ResetTimer()
		// The dialog runs once, inside the measured region, then every
		// update reuses the translator.
		tr, _, err := vupdate.ChooseTranslator(om2, slowDBA)
		if err != nil {
			b.Fatal(err)
		}
		tr.RepairInserts = true
		u := vupdate.NewUpdater(tr)
		for i := 0; i < b.N; i++ {
			if err := cycle.Run(u, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dialog-per-update-with-1ms-DBA", func(b *testing.B) {
		u, cycle := prepare(b)
		om := u.T.Definition()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, _, err := vupdate.ChooseTranslator(om, slowDBA)
			if err != nil {
				b.Fatal(err)
			}
			tr.RepairInserts = true
			if err := cycle.Run(vupdate.NewUpdater(tr), i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// busyWait spins for d so the simulated DBA latency counts as CPU work in
// the benchmark rather than scheduler sleep.
func busyWait(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// E11 — baseline: flat-view deletion (Keller, §4) vs view-object deletion
// (VO-CD, §5.1) of one course with its grades. The flat translation is
// faster (one operation) but leaves integrity violations; the view-object
// translation cleans up everything. EXPERIMENTS.md records both op counts
// and the violation counts.
func BenchmarkBaselineKellerDelete(b *testing.B) {
	db, g := university.New()
	err := university.SeedScaled(db, university.ScaleSpec{
		Departments: 1, StudentsPerDept: 12, CoursesPerDept: 1, GradesPerCourse: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	view, err := keller.NewView(db, "course-grades",
		[]keller.Join{
			{Relation: university.Courses},
			{Relation: university.Grades,
				LeftAttrs: []string{"COURSES.CourseID"}, RightAttrs: []string{"CourseID"}},
		}, nil,
		[]string{"COURSES.CourseID", "COURSES.Title", "COURSES.Level", "GRADES.PID", "GRADES.Grade"})
	if err != nil {
		b.Fatal(err)
	}
	ft := keller.PermissiveTranslator(view)
	_ = g
	courses := db.MustRelation(university.Courses)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := fmt.Sprintf("FLAT%07d", i)
		err := db.RunInTx(func(tx *reldb.Tx) error {
			return tx.Insert(university.Courses, reldb.Tuple{
				reldb.String(id), reldb.String("T"), reldb.String("Dept000"),
				reldb.Int(3), reldb.String("graduate"),
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ft.Delete(reldb.Tuple{
			reldb.String(id), reldb.String("T"), reldb.String("graduate"),
			reldb.Int(1), reldb.String("A"),
		}); err != nil {
			b.Fatal(err)
		}
	}
	_ = courses
}

// E12 — scaling by object complexity: instantiation and complete deletion
// over synthetic ownership trees of growing depth and width.
func BenchmarkComplexitySweep(b *testing.B) {
	for _, spec := range []workload.TreeSpec{
		{Depth: 1, Width: 1, Fanout: 4, Roots: 4, Peninsulas: 1},
		{Depth: 2, Width: 2, Fanout: 4, Roots: 4, Peninsulas: 1},
		{Depth: 3, Width: 2, Fanout: 4, Roots: 4, Peninsulas: 1},
		{Depth: 2, Width: 4, Fanout: 4, Roots: 4, Peninsulas: 1},
	} {
		name := fmt.Sprintf("d%dw%d-%drels", spec.Depth, spec.Width, spec.Relations())
		b.Run("instantiate/"+name, func(b *testing.B) {
			w, err := workload.BuildTree(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ok, err := viewobject.InstantiateByKey(w.DB, w.Def, reldb.Tuple{reldb.Int(0)})
				if err != nil || !ok {
					b.Fatal(err)
				}
			}
		})
		b.Run("delete/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := workload.BuildTree(spec)
				if err != nil {
					b.Fatal(err)
				}
				u := vupdate.NewUpdater(vupdate.PermissiveTranslator(w.Def))
				b.StartTimer()
				if _, err := u.DeleteByKey(reldb.Tuple{reldb.Int(0)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: instantiating Keller's translation-space enumeration (§4) —
// the cost of materializing "the space of alternatives" that the
// definition-time dialog lets the system avoid at runtime.
func BenchmarkTranslationEnumeration(b *testing.B) {
	db, _ := university.MustNewSeeded()
	view, err := keller.NewView(db, "course-grades",
		[]keller.Join{
			{Relation: university.Courses},
			{Relation: university.Grades,
				LeftAttrs: []string{"COURSES.CourseID"}, RightAttrs: []string{"CourseID"}},
		}, nil,
		[]string{"COURSES.CourseID", "COURSES.Title", "COURSES.Level", "GRADES.PID", "GRADES.Grade"})
	if err != nil {
		b.Fatal(err)
	}
	tr := keller.PermissiveTranslator(view)
	viewTuple := reldb.Tuple{
		reldb.String("CS445"), reldb.String("Distributed Systems"), reldb.String("graduate"),
		reldb.Int(5), reldb.String("B"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := tr.EnumerateDeletionTranslations(viewTuple)
		if err != nil || len(cands) == 0 {
			b.Fatal(err)
		}
	}
}

// Ablation: the order-preserving key codec versus a naive string join.
// The codec buys deterministic key-ordered scans; this measures its cost.
func BenchmarkKeyCodec(b *testing.B) {
	tuple := reldb.Tuple{reldb.String("CS345"), reldb.Int(42)}
	b.Run("order-preserving", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = reldb.EncodeValues(tuple...)
		}
	})
	b.Run("naive-sprintf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fmt.Sprintf("%v|%v", tuple[0], tuple[1])
		}
	})
}

// Ablation: connection traversal with a secondary index versus a scan.
func BenchmarkConnectionIndex(b *testing.B) {
	build := func(b *testing.B, indexed bool) *reldb.Relation {
		b.Helper()
		db := reldb.NewDatabase()
		rel := db.MustCreateRelation(reldb.MustSchema("G", []reldb.Attribute{
			{Name: "CourseID", Type: reldb.KindString},
			{Name: "PID", Type: reldb.KindInt},
		}, []string{"CourseID", "PID"}))
		if indexed {
			if err := rel.CreateIndex("byCourse", []string{"CourseID"}); err != nil {
				b.Fatal(err)
			}
		}
		for c := 0; c < 100; c++ {
			for s := 0; s < 50; s++ {
				if err := rel.Insert(reldb.Tuple{
					reldb.String(fmt.Sprintf("C%03d", c)), reldb.Int(int64(s)),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		return rel
	}
	probe := reldb.Tuple{reldb.String("C050")}
	b.Run("indexed", func(b *testing.B) {
		rel := build(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := rel.MatchEqual([]string{"CourseID"}, probe)
			if err != nil || len(rows) != 50 {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		rel := build(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := rel.MatchEqual([]string{"CourseID"}, probe)
			if err != nil || len(rows) != 50 {
				b.Fatal(err)
			}
		}
	})
}

// Guard: the facade re-exports work (compile-time wiring check exercised
// at runtime once).
func BenchmarkFacadeSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := penguin.NewDatabase()
		if db.TotalRows() != 0 {
			b.Fatal("fresh database not empty")
		}
	}
}

// E16 — sharded write scaling: VO-CI commits through the shard
// coordinator with 1, 2, and 4 shards. Every insert routes to its pivot
// key's home shard and commits on that shard's fast path, so with N
// shards there are N independent writer locks and WAL-free in-memory
// commit paths; throughput should scale near-linearly
// in the shard count under parallel load (run with -cpu 1,4). The
// cross-shard counters must stay zero — island-only traffic never pays
// for coordination.
func BenchmarkShardedCommit(b *testing.B) {
	spec := workload.TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 2}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			before := obs.Capture()
			sw, err := workload.NewShardedTree(spec, shards)
			if err != nil {
				b.Fatal(err)
			}
			defer sw.Close()
			def, err := sw.C.Object(workload.ShardedObject)
			if err != nil {
				b.Fatal(err)
			}
			var key int64 = 1 << 20 // above the seeded roots
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := atomic.AddInt64(&key, 1)
					inst := viewobject.MustNewInstance(def, reldb.Tuple{reldb.Int(k), reldb.String("v")})
					inst.Root().MustAddChild(def, "N0_0", reldb.Tuple{reldb.Int(k), reldb.Int(0), reldb.String("v")})
					if _, err := sw.C.InsertInstance(workload.ShardedObject, inst); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if n := obs.Capture().Sub(before).Counter("reldb.cross.commits"); n != 0 {
				b.Fatalf("%d cross-shard commits on island-only traffic", n)
			}
		})
	}
}
