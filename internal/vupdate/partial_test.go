package vupdate_test

import (
	"errors"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
	. "penguin/internal/vupdate"
)

func TestPartialInsertGrade(t *testing.T) {
	db, g, _, u := fixture(t)
	// Enroll student 2 in CS345.
	res, err := u.PartialInsert(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS345"), iv(2), s("Win91"), s("B")})
	if err != nil {
		t.Fatal(err)
	}
	if !db.MustRelation(university.Grades).Has(reldb.Tuple{s("CS345"), iv(2)}) {
		t.Fatal("grade not inserted")
	}
	if res.Count(OpInsert) != 1 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

func TestPartialInsertRepairsDependencies(t *testing.T) {
	db, g, _, u := fixture(t)
	// A grade for an unknown student repairs STUDENT and PEOPLE.
	res, err := u.PartialInsert(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS345"), iv(888), s("Win91"), s("C")})
	if err != nil {
		t.Fatal(err)
	}
	if !db.MustRelation(university.Student).Has(reldb.Tuple{iv(888)}) ||
		!db.MustRelation(university.People).Has(reldb.Tuple{iv(888)}) {
		t.Fatal("dependencies not repaired")
	}
	if res.Count(OpInsert) != 3 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

func TestPartialInsertDisconnectedRejected(t *testing.T) {
	db, _, _, u := fixture(t)
	// A grade whose CourseID names a different course is not connected to
	// the addressed instance.
	before := db.TotalRows()
	_, err := u.PartialInsert(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS101"), iv(99), s("Win91"), s("B")})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	if db.TotalRows() != before {
		t.Fatal("rolled-back insert left changes")
	}
}

func TestPartialInsertErrors(t *testing.T) {
	_, _, _, u := fixture(t)
	if _, err := u.PartialInsert(reldb.Tuple{s("CS345")}, "NOPE", reldb.Tuple{}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := u.PartialInsert(reldb.Tuple{s("NOPE")}, university.Grades,
		reldb.Tuple{s("NOPE"), iv(1), reldb.Null(), reldb.Null()}); !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
	// Gate.
	_, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.AllowInsertion = false
	u2 := NewUpdater(tr)
	if _, err := u2.PartialInsert(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS345"), iv(2), reldb.Null(), reldb.Null()}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartialDeleteIslandComponent(t *testing.T) {
	db, g, _, u := fixture(t)
	res, err := u.PartialDelete(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS345"), iv(1)})
	if err != nil {
		t.Fatal(err)
	}
	if db.MustRelation(university.Grades).Has(reldb.Tuple{s("CS345"), iv(1)}) {
		t.Fatal("grade survived")
	}
	if res.Count(OpDelete) != 1 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

func TestPartialDeleteOutsideRejected(t *testing.T) {
	_, _, _, u := fixture(t)
	_, err := u.PartialDelete(reldb.Tuple{s("CS345")}, university.Student, reldb.Tuple{iv(1)})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection (outside island)", err)
	}
}

func TestPartialDeletePivotRedirects(t *testing.T) {
	_, _, _, u := fixture(t)
	_, err := u.PartialDelete(reldb.Tuple{s("CS345")}, university.Courses, reldb.Tuple{s("CS345")})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartialDeleteWrongInstance(t *testing.T) {
	_, _, _, u := fixture(t)
	// CS101's grade does not belong to CS345's instance.
	_, err := u.PartialDelete(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS101"), iv(1)})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	// Missing tuple.
	_, err = u.PartialDelete(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS345"), iv(999)})
	if !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartialUpdateNonKey(t *testing.T) {
	db, g, _, u := fixture(t)
	old := reldb.Tuple{s("CS345"), iv(1), s("Win91"), s("A")}
	res, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Grades,
		old, reldb.Tuple{s("CS345"), iv(1), s("Win91"), s("A+")})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db.MustRelation(university.Grades).Get(reldb.Tuple{s("CS345"), iv(1)})
	if got.At(3).MustString() != "A+" {
		t.Fatalf("grade = %v", got.At(3))
	}
	if res.Count(OpReplace) != 1 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

func TestPartialUpdateIslandKeyChange(t *testing.T) {
	db, g, _, u := fixture(t)
	// Reassign the grade of student 1 to student 2 (key complement change).
	old := reldb.Tuple{s("CS345"), iv(1), s("Win91"), s("A")}
	_, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Grades,
		old, reldb.Tuple{s("CS345"), iv(2), s("Win91"), s("A")})
	if err != nil {
		t.Fatal(err)
	}
	grades := db.MustRelation(university.Grades)
	if grades.Has(reldb.Tuple{s("CS345"), iv(1)}) || !grades.Has(reldb.Tuple{s("CS345"), iv(2)}) {
		t.Fatal("key change not applied")
	}
	auditClean(t, db, g)
}

// A GRADES key inherits the COURSES key: rewriting it would move the
// grade out of the addressed instance, into another course's instance or,
// for a course that does not exist, under an all-null course the repair
// inserts. Both are rejected as PartialInsert rejects a disconnected
// tuple, and the transaction rolls back.
func TestPartialUpdateIslandKeyLeavingInstanceRejected(t *testing.T) {
	for _, course := range []string{"EE201", "EE999"} {
		t.Run(course, func(t *testing.T) {
			db, _, _, u := fixture(t)
			before := db.TotalRows()
			old, _ := db.MustRelation(university.Grades).Get(reldb.Tuple{s("CS345"), iv(4)})
			nt := old.Tuple()
			nt[0] = s(course)
			_, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Grades, old.Tuple(), nt)
			if !errors.Is(err, ErrRejected) || ReasonOf(err) != ReasonIntegrity {
				t.Fatalf("err = %v (reason %s), want an integrity rejection", err, ReasonOf(err))
			}
			if db.TotalRows() != before || !db.MustRelation(university.Grades).Has(reldb.Tuple{s("CS345"), iv(4)}) {
				t.Fatal("rejected update left changes")
			}
		})
	}
}

func TestPartialUpdatePivotKeyChangePropagates(t *testing.T) {
	db, g, _, u := fixture(t)
	old, _ := db.MustRelation(university.Courses).Get(reldb.Tuple{s("CS345")})
	nt := old.Tuple()
	nt[0] = s("CS346")
	if _, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Courses, old.Tuple(), nt); err != nil {
		t.Fatal(err)
	}
	// Grades and curriculum rows followed.
	moved, _ := db.MustRelation(university.Grades).MatchEqual([]string{"CourseID"}, reldb.Tuple{s("CS346")})
	if len(moved) != 3 {
		t.Fatalf("grades moved = %d", len(moved))
	}
	curr, _ := db.MustRelation(university.Curriculum).MatchEqual([]string{"CourseID"}, reldb.Tuple{s("CS346")})
	if len(curr) != 2 {
		t.Fatalf("curriculum moved = %d", len(curr))
	}
	auditClean(t, db, g)
}

func TestPartialUpdateOutsideKeyChangeRejected(t *testing.T) {
	db, _, _, u := fixture(t)
	old, _ := db.MustRelation(university.Student).Get(reldb.Tuple{iv(1)})
	nt := old.Tuple()
	nt[0] = iv(999)
	_, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Student, old.Tuple(), nt)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartialUpdateReferencedKeyInserts(t *testing.T) {
	db, g, _, u := fixture(t)
	old, _ := db.MustRelation(university.Department).Get(reldb.Tuple{s("Computer Science")})
	nt := reldb.Tuple{s("Engineering Economic Systems"), reldb.Null(), reldb.Null()}
	res, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Department, old.Tuple(), nt)
	if err != nil {
		t.Fatal(err)
	}
	// Rule 2: insertion, not replacement.
	if !db.MustRelation(university.Department).Has(reldb.Tuple{s("Engineering Economic Systems")}) {
		t.Fatal("EES not inserted")
	}
	if !db.MustRelation(university.Department).Has(reldb.Tuple{s("Computer Science")}) {
		t.Fatal("old department removed")
	}
	if res.Count(OpInsert) != 1 || res.Count(OpDelete) != 0 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

func TestPartialUpdateIdenticalNoOp(t *testing.T) {
	db, _, _, u := fixture(t)
	old, _ := db.MustRelation(university.Grades).Get(reldb.Tuple{s("CS345"), iv(1)})
	res, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Grades, old.Tuple(), old.Tuple())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 0 {
		t.Fatalf("ops:\n%s", res)
	}
}

func TestPartialUpdateGates(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.AllowReplacement = false
	u := NewUpdater(tr)
	old, _ := db.MustRelation(university.Grades).Get(reldb.Tuple{s("CS345"), iv(1)})
	nt := old.Tuple()
	nt[3] = s("B")
	if _, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Grades, old.Tuple(), nt); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	// Deletion gate for partial delete.
	tr2 := PermissiveTranslator(om)
	tr2.AllowDeletion = false
	u2 := NewUpdater(tr2)
	if _, err := u2.PartialDelete(reldb.Tuple{s("CS345")}, university.Grades,
		reldb.Tuple{s("CS345"), iv(1)}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartialUpdateStaleOldTuple(t *testing.T) {
	db, _, _, u := fixture(t)
	ghost := reldb.Tuple{s("CS345"), iv(42), s("Win91"), s("A")}
	nt := ghost.Clone()
	nt[3] = s("B")
	_, err := u.PartialUpdate(reldb.Tuple{s("CS345")}, university.Grades, ghost, nt)
	if !errors.Is(err, ErrRejected) && !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
	_ = db
}
