package vupdate_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
)

// databaseFingerprint captures the exact database contents: every
// relation's schema, index declarations, and sorted rows — but not the
// generation counter, which advances on every commit (snapshots carry
// it since v2, so raw snapshot bytes would differ across any
// do-then-undo pair).
func databaseFingerprint(t *testing.T, db *reldb.Database) string {
	t.Helper()
	rtx := db.BeginRead()
	defer rtx.Close()
	var buf bytes.Buffer
	for _, name := range rtx.Names() {
		rel := rtx.MustRelation(name)
		fmt.Fprintf(&buf, "%s %v %v\n", name, rel.Schema(), rel.IndexNames())
		var rows []string
		rel.Scan(func(tu reldb.Row) bool {
			rows = append(rows, tu.Encode())
			return true
		})
		sort.Strings(rows)
		for _, row := range rows {
			fmt.Fprintf(&buf, "  %q\n", row)
		}
	}
	return buf.String()
}

// Property: every committed view-object update leaves the database with
// zero structural-model violations, and every rejected update leaves it
// bit-for-bit unchanged. Exercised with a long random mix of complete
// insertions, deletions, replacements, and partial updates under a
// randomly restrictive translator.
func TestSoakRandomUpdateMixKeepsIntegrity(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	in := &structural.Integrity{G: g}
	rng := rand.New(rand.NewSource(42))

	// A translator with random restrictions re-chosen every 50 steps.
	makeTranslator := func() *Updater {
		tr := PermissiveTranslator(om)
		if rng.Intn(4) == 0 {
			tr.Outside[university.Department] = OutsidePolicy{Modifiable: false}
		}
		if rng.Intn(4) == 0 {
			p := tr.Island[university.Courses]
			p.AllowDBKeyReplace = false
			tr.Island[university.Courses] = p
		}
		if rng.Intn(4) == 0 {
			tr.Peninsula[university.Curriculum] = PeninsulaPolicy{AllowUpdateOnDelete: false}
		}
		if rng.Intn(6) == 0 {
			tr.RepairInserts = false
		}
		return NewUpdater(tr)
	}
	u := makeTranslator()

	liveCourses := func() []string {
		var ids []string
		db.MustRelation(university.Courses).Scan(func(tu reldb.Row) bool {
			ids = append(ids, tu.At(0).MustString())
			return true
		})
		return ids
	}

	commits, rejections := 0, 0
	for step := 0; step < 400; step++ {
		if step%50 == 0 {
			u = makeTranslator()
		}
		before := databaseFingerprint(t, db)
		var err error
		switch rng.Intn(5) {
		case 0: // complete insertion of a fresh course
			id := fmt.Sprintf("R%04d", step)
			inst := viewobject.MustNewInstance(om, reldb.Tuple{
				s(id), s("Random"), s("Computer Science"), iv(int64(rng.Intn(5) + 1)), s("graduate"),
			})
			for n := 0; n < rng.Intn(3); n++ {
				pid := int64(rng.Intn(8) + 1)
				gr, aerr := inst.Root().AddChild(om, university.Grades,
					reldb.Tuple{s(id), iv(pid), s("Aut91"), s("B")})
				if aerr != nil {
					continue
				}
				_, _ = gr.AddChild(om, university.Student, reldb.Tuple{iv(pid), s("BS"), iv(1)})
			}
			_, err = u.InsertInstance(inst)
		case 1: // complete deletion of a random course
			ids := liveCourses()
			if len(ids) == 0 {
				continue
			}
			_, err = u.DeleteByKey(reldb.Tuple{s(ids[rng.Intn(len(ids))])})
		case 2: // replacement: rename a random course
			ids := liveCourses()
			if len(ids) == 0 {
				continue
			}
			key := reldb.Tuple{s(ids[rng.Intn(len(ids))])}
			old, ok, ierr := viewobject.InstantiateByKey(db, om, key)
			if ierr != nil || !ok {
				t.Fatal(ierr)
			}
			repl := old.Clone()
			err = repl.Root().SetAttr(om, "CourseID", s(fmt.Sprintf("X%04d", step)))
			if err == nil {
				_, err = u.ReplaceInstance(old, repl)
			}
		case 3: // partial insert of a grade
			ids := liveCourses()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			_, err = u.PartialInsert(reldb.Tuple{s(id)}, university.Grades,
				reldb.Tuple{s(id), iv(int64(rng.Intn(50) + 100)), s("Win92"), s("C")})
		case 4: // non-key replacement of a random course's title
			ids := liveCourses()
			if len(ids) == 0 {
				continue
			}
			key := reldb.Tuple{s(ids[rng.Intn(len(ids))])}
			old, ok, ierr := viewobject.InstantiateByKey(db, om, key)
			if ierr != nil || !ok {
				t.Fatal(ierr)
			}
			repl := old.Clone()
			err = repl.Root().SetAttr(om, "Title", s(fmt.Sprintf("Title %d", step)))
			if err == nil {
				_, err = u.ReplaceInstance(old, repl)
			}
		}
		switch {
		case err == nil:
			commits++
			vs, aerr := in.Audit(db)
			if aerr != nil {
				t.Fatal(aerr)
			}
			if len(vs) != 0 {
				t.Fatalf("step %d: committed update left violations:\n%s",
					step, structural.FormatViolations(vs))
			}
		case errors.Is(err, ErrRejected) || errors.Is(err, reldb.ErrNoSuchTuple) || errors.Is(err, reldb.ErrDuplicateKey):
			rejections++
			if after := databaseFingerprint(t, db); after != before {
				t.Fatalf("step %d: rejected update mutated the database (%v)", step, err)
			}
		default:
			t.Fatalf("step %d: unexpected error: %v", step, err)
		}
	}
	if commits < 50 || rejections < 10 {
		t.Fatalf("soak mix too one-sided: %d commits, %d rejections", commits, rejections)
	}
	t.Logf("soak: %d commits, %d rejections, %d rows", commits, rejections, db.TotalRows())
}

// Property: insert-then-instantiate round-trips — a fully specified
// instance inserted with VO-CI and re-assembled by its key matches the
// original on every island component and on the existential components
// it carried.
func TestInsertInstantiateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		db, g := university.MustNewSeeded()
		om := university.MustOmega(g)
		u := NewUpdater(PermissiveTranslator(om))

		id := fmt.Sprintf("RT%03d", trial)
		nGrades := rng.Intn(5)
		inst := viewobject.MustNewInstance(om, reldb.Tuple{
			s(id), s("Round Trip"), s("Computer Science"), iv(int64(rng.Intn(4) + 1)), s("graduate"),
		})
		wantPIDs := map[int64]bool{}
		for n := 0; n < nGrades; n++ {
			pid := int64(rng.Intn(5) + 1)
			if wantPIDs[pid] {
				continue
			}
			wantPIDs[pid] = true
			gr := inst.Root().MustAddChild(om, university.Grades,
				reldb.Tuple{s(id), iv(pid), s("Aut91"), s("A")})
			stu, _ := db.MustRelation(university.Student).Get(reldb.Tuple{iv(pid)})
			gr.MustAddChild(om, university.Student, stu.Tuple())
		}
		if _, err := u.InsertInstance(inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{s(id)})
		if err != nil || !ok {
			t.Fatalf("trial %d: %v %v", trial, ok, err)
		}
		if !got.Root().Row().Tuple().Equal(inst.Root().Row().Tuple()) {
			t.Fatalf("trial %d: pivot differs: %v vs %v", trial, got.Root().Row().Tuple(), inst.Root().Row().Tuple())
		}
		gotGrades := got.NodesAt(university.Grades)
		if len(gotGrades) != len(wantPIDs) {
			t.Fatalf("trial %d: %d grades, want %d", trial, len(gotGrades), len(wantPIDs))
		}
		for _, gr := range gotGrades {
			pid := gr.Row().Tuple()[1].MustInt()
			if !wantPIDs[pid] {
				t.Fatalf("trial %d: unexpected grade PID %d", trial, pid)
			}
			students := gr.Children(university.Student)
			if len(students) != 1 || students[0].Row().Tuple()[0].MustInt() != pid {
				t.Fatalf("trial %d: student mismatch under grade %d", trial, pid)
			}
		}
	}
}

// Property: delete-then-audit over every course in a scaled database —
// deleting all instances one by one drains the island relations
// completely and never violates integrity.
func TestDeleteAllInstancesDrainsIsland(t *testing.T) {
	db, g := university.New()
	err := university.SeedScaled(db, university.ScaleSpec{
		Departments: 3, StudentsPerDept: 10, CoursesPerDept: 5,
		GradesPerCourse: 4, DegreesPerDept: 2, CoursesPerDegree: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	om := university.MustOmega(g)
	u := NewUpdater(PermissiveTranslator(om))
	in := &structural.Integrity{G: g}

	var ids []string
	db.MustRelation(university.Courses).Scan(func(tu reldb.Row) bool {
		ids = append(ids, tu.At(0).MustString())
		return true
	})
	for _, id := range ids {
		if _, err := u.DeleteByKey(reldb.Tuple{s(id)}); err != nil {
			t.Fatalf("deleting %s: %v", id, err)
		}
	}
	if n := db.MustRelation(university.Courses).Count(); n != 0 {
		t.Fatalf("courses left: %d", n)
	}
	if n := db.MustRelation(university.Grades).Count(); n != 0 {
		t.Fatalf("grades left: %d", n)
	}
	if n := db.MustRelation(university.Curriculum).Count(); n != 0 {
		t.Fatalf("curriculum left: %d", n)
	}
	// Students, people, departments survive.
	if db.MustRelation(university.Student).Count() == 0 ||
		db.MustRelation(university.Department).Count() == 0 {
		t.Fatal("non-island relations were drained")
	}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations:\n%s", structural.FormatViolations(vs))
	}
}

// Property: replacement is invertible — renaming a course A→B and then
// B→A restores the original database exactly.
func TestReplaceIsInvertible(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	u := NewUpdater(PermissiveTranslator(om))
	before := databaseFingerprint(t, db)

	rename := func(from, to string) {
		t.Helper()
		old, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{s(from)})
		if err != nil || !ok {
			t.Fatalf("instance %s: %v %v", from, ok, err)
		}
		repl := old.Clone()
		if err := repl.Root().SetAttr(om, "CourseID", s(to)); err != nil {
			t.Fatal(err)
		}
		if _, err := u.ReplaceInstance(old, repl); err != nil {
			t.Fatalf("rename %s->%s: %v", from, to, err)
		}
	}
	rename("CS345", "TMP999")
	rename("TMP999", "CS345")
	if after := databaseFingerprint(t, db); after != before {
		t.Fatal("A->B->A did not restore the database")
	}
}

// Failure injection: a replacement that fails at the LAST component (a
// frozen STUDENT modification) must undo the island key replacements that
// already executed.
func TestMidTranslationFailureRollsBackEverything(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	tr := PermissiveTranslator(om)
	tr.Outside[university.Student] = OutsidePolicy{Modifiable: false}
	u := NewUpdater(tr)
	before := databaseFingerprint(t, db)

	old, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{s("CS345")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	repl := old.Clone()
	// Pivot key change (succeeds, replaces COURSES + GRADES + CURRICULUM)
	// plus a STUDENT year change (rejected) — the rejection arrives after
	// the island work is done.
	_ = repl.Root().SetAttr(om, "CourseID", s("EES345"))
	grades := repl.Root().Children(university.Grades)
	st := grades[len(grades)-1].Children(university.Student)[0]
	_ = st.SetAttr(om, "Year", iv(7))

	_, err = u.ReplaceInstance(old, repl)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if after := databaseFingerprint(t, db); after != before {
		t.Fatal("partial translation survived the rollback")
	}
}
