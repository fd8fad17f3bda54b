package vupdate_test

import (
	"errors"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
)

// newCourseInstance hand-builds a fully specified ω instance for a new
// course CS999 with one grade by an existing student and an existing
// department.
func newCourseInstance(t *testing.T, om *viewobject.Definition) *viewobject.Instance {
	t.Helper()
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS999"), s("Advanced Penguins"), s("Computer Science"), iv(3), s("graduate"),
	})
	inst.Root().MustAddChild(om, university.Department,
		reldb.Tuple{s("Computer Science"), s("Gates"), reldb.Null()})
	gr := inst.Root().MustAddChild(om, university.Grades,
		reldb.Tuple{s("CS999"), iv(1), s("Aut91"), s("A")})
	gr.MustAddChild(om, university.Student, reldb.Tuple{iv(1), s("PhD"), iv(3)})
	inst.Root().MustAddChild(om, university.Curriculum,
		reldb.Tuple{s("Computer Science"), s("MS"), s("CS999")})
	return inst
}

func TestVOCIInsertNewInstance(t *testing.T) {
	db, g, om, u := fixture(t)
	res, err := u.InsertInstance(newCourseInstance(t, om))
	if err != nil {
		t.Fatal(err)
	}
	if !db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS999")}) {
		t.Fatal("course not inserted")
	}
	if !db.MustRelation(university.Grades).Has(reldb.Tuple{s("CS999"), iv(1)}) {
		t.Fatal("grade not inserted")
	}
	if !db.MustRelation(university.Curriculum).Has(reldb.Tuple{s("Computer Science"), s("MS"), s("CS999")}) {
		t.Fatal("curriculum row not inserted")
	}
	// CASE 1 outside the island: DEPARTMENT and STUDENT already exist
	// identically — no operation.
	if db.MustRelation(university.Department).Count() != 3 {
		t.Fatal("department duplicated")
	}
	if db.MustRelation(university.Student).Count() != 5 {
		t.Fatal("student duplicated")
	}
	// course + grade + curriculum.
	if res.Count(OpInsert) != 3 || res.Count(OpReplace) != 0 || res.Count(OpDelete) != 0 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

func TestVOCINotAllowed(t *testing.T) {
	_, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.AllowInsertion = false
	u := NewUpdater(tr)
	if _, err := u.InsertInstance(newCourseInstance(t, om)); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// CASE 1 in the island: inserting an instance whose pivot tuple already
// exists identically is rejected, and nothing is left behind.
func TestVOCIRejectsIdenticalIslandTuple(t *testing.T) {
	db, _, om, u := fixture(t)
	inst, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{s("CS345")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	before := db.TotalRows()
	_, err = u.InsertInstance(inst)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if db.TotalRows() != before {
		t.Fatal("rejected insertion mutated the database")
	}
}

// CASE 3 in the island: key exists with differing values — rejected.
func TestVOCIRejectsConflictingIslandTuple(t *testing.T) {
	db, _, om, u := fixture(t)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS345"), s("Different Title"), s("Computer Science"), iv(4), s("graduate"),
	})
	before := db.TotalRows()
	if _, err := u.InsertInstance(inst); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	if db.TotalRows() != before {
		t.Fatal("mutated despite rejection")
	}
}

// CASE 3 outside the island: conflicting values replace the existing
// tuple when the translator allows it, merging only projected attributes.
func TestVOCIOutsideConflictReplaces(t *testing.T) {
	db, g, om, u := fixture(t)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS999"), s("T"), s("Computer Science"), iv(3), s("graduate"),
	})
	// DEPARTMENT with a different building: ω projects (DeptName,
	// Building), so Building is replaced and Budget (outside the
	// projection) is preserved.
	inst.Root().MustAddChild(om, university.Department,
		reldb.Tuple{s("Computer Science"), s("New Gates Wing"), reldb.Null()})
	if _, err := u.InsertInstance(inst); err != nil {
		t.Fatal(err)
	}
	dep, _ := db.MustRelation(university.Department).Get(reldb.Tuple{s("Computer Science")})
	if dep.At(1).MustString() != "New Gates Wing" {
		t.Fatalf("building = %v", dep.At(1))
	}
	if dep.At(2).IsNull() {
		t.Fatal("budget (outside projection) should be preserved")
	}
	auditClean(t, db, g)
}

func TestVOCIOutsideConflictRejectedWhenNotModifiable(t *testing.T) {
	_, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.Outside[university.Department] = OutsidePolicy{Modifiable: true, AllowInsert: true, AllowModifyExisting: false}
	u := NewUpdater(tr)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS999"), s("T"), s("Computer Science"), iv(3), s("graduate"),
	})
	inst.Root().MustAddChild(om, university.Department,
		reldb.Tuple{s("Computer Science"), s("Elsewhere"), reldb.Null()})
	if _, err := u.InsertInstance(inst); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// Global repair (§5.2): inserting an instance with a grade for an unknown
// student triggers recursive dependency insertion — STUDENT, then PEOPLE.
func TestVOCIGlobalRepairRecursive(t *testing.T) {
	db, g, om, u := fixture(t)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS999"), s("T"), s("Computer Science"), iv(3), s("graduate"),
	})
	inst.Root().MustAddChild(om, university.Grades,
		reldb.Tuple{s("CS999"), iv(777), s("Aut91"), s("B")})
	res, err := u.InsertInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	// STUDENT 777 and PEOPLE 777 were repaired into existence.
	if !db.MustRelation(university.Student).Has(reldb.Tuple{iv(777)}) {
		t.Fatal("missing repaired STUDENT")
	}
	if !db.MustRelation(university.People).Has(reldb.Tuple{iv(777)}) {
		t.Fatal("missing repaired PEOPLE")
	}
	// course + grade + student + people = 4 inserts.
	if res.Count(OpInsert) != 4 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

// The same insertion is rejected when the translator forbids the repair
// insertions (STUDENT is an object node gated by its outside policy;
// PEOPLE is out-of-object gated by RepairInserts).
func TestVOCIGlobalRepairGated(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.Outside[university.Student] = OutsidePolicy{Modifiable: false}
	u := NewUpdater(tr)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS998"), s("T"), s("Computer Science"), iv(3), s("graduate"),
	})
	inst.Root().MustAddChild(om, university.Grades,
		reldb.Tuple{s("CS998"), iv(778), s("Aut91"), s("B")})
	before := db.TotalRows()
	if _, err := u.InsertInstance(inst); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	if db.TotalRows() != before {
		t.Fatal("mutated despite rejection")
	}

	// Allow STUDENT repairs but forbid out-of-object repairs (PEOPLE).
	tr2 := PermissiveTranslator(om)
	tr2.RepairInserts = false
	u2 := NewUpdater(tr2)
	if _, err := u2.InsertInstance(inst); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	if db.TotalRows() != before {
		t.Fatal("mutated despite rejection")
	}
}

// Inserting a course in a brand-new department: the forward-reference
// repair inserts the DEPARTMENT tuple (§5.2's check along reference
// connections) even though the instance carries no DEPARTMENT component.
func TestVOCIRepairInsertsReferencedDepartment(t *testing.T) {
	db, g, om, u := fixture(t)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("EES345"), s("Decision Analysis"), s("Engineering Economic Systems"), iv(3), s("graduate"),
	})
	if _, err := u.InsertInstance(inst); err != nil {
		t.Fatal(err)
	}
	if !db.MustRelation(university.Department).Has(reldb.Tuple{s("Engineering Economic Systems")}) {
		t.Fatal("referenced department not repaired")
	}
	auditClean(t, db, g)
}

func TestVOCIInsertPermissionOutside(t *testing.T) {
	_, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.Outside[university.Curriculum] = OutsidePolicy{Modifiable: true, AllowInsert: false, AllowModifyExisting: true}
	u := NewUpdater(tr)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS997"), s("T"), s("Computer Science"), iv(3), s("graduate"),
	})
	inst.Root().MustAddChild(om, university.Curriculum,
		reldb.Tuple{s("Computer Science"), s("MS"), s("CS997")})
	if _, err := u.InsertInstance(inst); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestVOCIInvalidComponentTuple(t *testing.T) {
	_, _, om, u := fixture(t)
	inst := viewobject.MustNewInstance(om, reldb.Tuple{
		s("CS996"), s("T"), s("Computer Science"), iv(3), s("graduate"),
	})
	// A grade referencing a different course: the island key propagation
	// applies to replacements, not insertions, so CheckTuple passes but
	// the ownership repair kicks in — verify no orphan is possible by
	// checking the inserted grade's owner chain.
	inst.Root().MustAddChild(om, university.Grades,
		reldb.Tuple{s("CS996"), iv(1), reldb.Null(), reldb.Null()})
	if _, err := u.InsertInstance(inst); err != nil {
		t.Fatal(err)
	}
}
