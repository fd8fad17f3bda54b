package vupdate_test

import (
	"errors"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
)

// currentInstance fetches the live instance for a pivot key.
func currentInstance(t *testing.T, db *reldb.Database, om *viewobject.Definition, key string) *viewobject.Instance {
	t.Helper()
	inst, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{s(key)})
	if err != nil || !ok {
		t.Fatalf("instance %s: %v %v", key, ok, err)
	}
	return inst
}

// CASE R-2: non-key replacement on the pivot.
func TestVORNonKeyReplace(t *testing.T) {
	db, g, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	if err := repl.Root().SetAttr(om, "Title", s("Advanced Database Systems")); err != nil {
		t.Fatal(err)
	}
	res, err := u.ReplaceInstance(old, repl)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db.MustRelation(university.Courses).Get(reldb.Tuple{s("CS345")})
	if got.At(1).MustString() != "Advanced Database Systems" {
		t.Fatalf("title = %v", got.At(1))
	}
	if res.Count(OpReplace) != 1 || res.Count(OpInsert) != 0 || res.Count(OpDelete) != 0 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

// CASE R-1: identical instances translate to zero operations.
func TestVORIdenticalNoOps(t *testing.T) {
	db, _, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	res, err := u.ReplaceInstance(old, old.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 0 {
		t.Fatalf("identical replacement produced ops:\n%s", res)
	}
}

// The §6 example: replacing ω's CS345 instance with an EES345 instance in
// the (nonexistent) department "Engineering Economic Systems". Under the
// permissive translator this leads, among other things, to the insertion
// of ⟨Engineering Economic Systems⟩ into DEPARTMENT.
func TestVORSection6Example(t *testing.T) {
	db, g, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	// New pivot key and new department.
	if err := repl.Root().SetAttr(om, "CourseID", s("EES345")); err != nil {
		t.Fatal(err)
	}
	if err := repl.Root().SetAttr(om, "DeptName", s("Engineering Economic Systems")); err != nil {
		t.Fatal(err)
	}
	dep := repl.Root().Children(university.Department)[0]
	if err := dep.SetTuple(om, reldb.Tuple{s("Engineering Economic Systems"), reldb.Null(), reldb.Null()}); err != nil {
		t.Fatal(err)
	}
	// GRADES and CURRICULUM components: leave them; the island key
	// propagation (step 1) and the peninsula FK propagation (step 3)
	// rewrite them.
	res, err := u.ReplaceInstance(old, repl)
	if err != nil {
		t.Fatal(err)
	}

	courses := db.MustRelation(university.Courses)
	if courses.Has(reldb.Tuple{s("CS345")}) {
		t.Fatal("old pivot key survived")
	}
	ees, ok := courses.Get(reldb.Tuple{s("EES345")})
	if !ok {
		t.Fatal("new pivot key missing")
	}
	if ees.At(2).MustString() != "Engineering Economic Systems" {
		t.Fatalf("course dept = %v", ees.At(2))
	}
	// The paper's highlighted effect: a ⟨Engineering Economic Systems⟩
	// tuple was inserted in DEPARTMENT.
	if !db.MustRelation(university.Department).Has(reldb.Tuple{s("Engineering Economic Systems")}) {
		t.Fatal("EES department not inserted")
	}
	// And Computer Science remains (rule 2: insertion, not replacement).
	if !db.MustRelation(university.Department).Has(reldb.Tuple{s("Computer Science")}) {
		t.Fatal("old department was removed")
	}
	// Island propagation: the three grades moved to EES345.
	grades := db.MustRelation(university.Grades)
	moved, _ := grades.MatchEqual([]string{"CourseID"}, reldb.Tuple{s("EES345")})
	if len(moved) != 3 {
		t.Fatalf("grades under new key = %d, want 3", len(moved))
	}
	stale, _ := grades.MatchEqual([]string{"CourseID"}, reldb.Tuple{s("CS345")})
	if len(stale) != 0 {
		t.Fatalf("grades left under old key: %v", stale)
	}
	// Peninsula propagation: curriculum rows follow the key.
	curr := db.MustRelation(university.Curriculum)
	movedCurr, _ := curr.MatchEqual([]string{"CourseID"}, reldb.Tuple{s("EES345")})
	if len(movedCurr) != 2 {
		t.Fatalf("curriculum rows under new key = %d, want 2", len(movedCurr))
	}
	if res.Count(OpInsert) != 1 { // the EES department
		t.Fatalf("inserts = %d, want 1\n%s", res.Count(OpInsert), res)
	}
	auditClean(t, db, g)
}

// The §6 restrictive translator: answering NO to "Can the relation
// DEPARTMENT be modified during insertions (or replacements)?" makes the
// same replacement request fail, "since the application is not allowed to
// insert tuples in DEPARTMENT."
func TestVORSection6RestrictiveTranslator(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.Outside[university.Department] = OutsidePolicy{Modifiable: false}
	u := NewUpdater(tr)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	_ = repl.Root().SetAttr(om, "CourseID", s("EES345"))
	_ = repl.Root().SetAttr(om, "DeptName", s("Engineering Economic Systems"))
	dep := repl.Root().Children(university.Department)[0]
	_ = dep.SetTuple(om, reldb.Tuple{s("Engineering Economic Systems"), reldb.Null(), reldb.Null()})
	before := db.TotalRows()
	_, err := u.ReplaceInstance(old, repl)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if db.TotalRows() != before {
		t.Fatal("rolled-back replacement left changes")
	}
	if !db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS345")}) {
		t.Fatal("rollback did not restore the pivot")
	}
}

func TestVORNotAllowed(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.AllowReplacement = false
	u := NewUpdater(tr)
	old := currentInstance(t, db, om, "CS345")
	if _, err := u.ReplaceInstance(old, old.Clone()); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// Island key modification disallowed: the dialog's first island question
// answered NO.
func TestVORIslandKeyModForbidden(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	p := tr.Island[university.Courses]
	p.AllowKeyModification = false
	tr.Island[university.Courses] = p
	u := NewUpdater(tr)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	_ = repl.Root().SetAttr(om, "CourseID", s("EES345"))
	if _, err := u.ReplaceInstance(old, repl); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	// Second island question answered NO.
	tr2 := PermissiveTranslator(om)
	p2 := tr2.Island[university.Courses]
	p2.AllowDBKeyReplace = false
	tr2.Island[university.Courses] = p2
	u2 := NewUpdater(tr2)
	if _, err := u2.ReplaceInstance(old, repl); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// R-3 merge case: the new key already exists in the database. The
// permissive translator answers NO to the merge question (as in §6), so
// the request is rejected; flipping it to YES deletes the old tuple and
// the existing tuple absorbs the new values.
func TestVORMergeWithExisting(t *testing.T) {
	db, g, om, _ := fixture(t)
	old := currentInstance(t, db, om, "CS445")
	repl := old.Clone()
	_ = repl.Root().SetAttr(om, "CourseID", s("CS101")) // CS101 exists

	u := NewUpdater(PermissiveTranslator(om))
	if _, err := u.ReplaceInstance(old, repl); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection (merge not allowed)", err)
	}

	tr := PermissiveTranslator(om)
	p := tr.Island[university.Courses]
	p.AllowMergeWithExisting = true
	tr.Island[university.Courses] = p
	// The merged grades collide with existing CS101 grades for the same
	// students; allow the GRADES merge as well.
	pg := tr.Island[university.Grades]
	pg.AllowMergeWithExisting = true
	tr.Island[university.Grades] = pg
	u2 := NewUpdater(tr)
	if _, err := u2.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	if db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS445")}) {
		t.Fatal("old tuple survived the merge")
	}
	got, _ := db.MustRelation(university.Courses).Get(reldb.Tuple{s("CS101")})
	// CS445's projected values were absorbed.
	if got.At(1).MustString() != "Distributed Systems" {
		t.Fatalf("absorbed title = %v", got.At(1))
	}
	auditClean(t, db, g)
}

// Island key change on a non-pivot island node: replacing a grade's
// student (PID is part of GRADES' key complement).
func TestVORIslandChildKeyChange(t *testing.T) {
	db, g, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS445")
	repl := old.Clone()
	// Move the grade of student 5 to student 3 and also change the mark.
	for _, gr := range repl.Root().Children(university.Grades) {
		if gr.Row().Tuple()[1].MustInt() == 5 {
			if err := gr.SetTuple(om, reldb.Tuple{s("CS445"), iv(3), s("Spr91"), s("A-")}); err != nil {
				t.Fatal(err)
			}
			// The STUDENT child below follows.
			st := gr.Children(university.Student)[0]
			if err := st.SetTuple(om, reldb.Tuple{iv(3), s("MS"), iv(2)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	grades := db.MustRelation(university.Grades)
	if grades.Has(reldb.Tuple{s("CS445"), iv(5)}) {
		t.Fatal("old grade survived")
	}
	got, ok := grades.Get(reldb.Tuple{s("CS445"), iv(3)})
	if !ok || got.At(3).MustString() != "A-" {
		t.Fatalf("new grade = %v, %v", got, ok)
	}
	auditClean(t, db, g)
}

// Adding and removing island components through a replacement: a new
// grade appears, an old one disappears.
func TestVORAddAndRemoveIslandComponents(t *testing.T) {
	db, g, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS445")
	repl := old.Clone()
	// Remove the grade of student 5 by rebuilding the instance without it.
	rebuilt := viewobject.MustNewInstance(om, repl.Root().Row().Tuple())
	for _, cid := range []string{university.Department, university.Curriculum} {
		for _, c := range repl.Root().Children(cid) {
			rebuilt.Root().MustAddChild(om, cid, c.Row().Tuple())
		}
	}
	for _, gr := range repl.Root().Children(university.Grades) {
		if gr.Row().Tuple()[1].MustInt() == 5 {
			continue // dropped
		}
		n := rebuilt.Root().MustAddChild(om, university.Grades, gr.Row().Tuple())
		for _, st := range gr.Children(university.Student) {
			n.MustAddChild(om, university.Student, st.Row().Tuple())
		}
	}
	// Add a new grade for student 2.
	ng := rebuilt.Root().MustAddChild(om, university.Grades,
		reldb.Tuple{s("CS445"), iv(2), s("Spr91"), s("B+")})
	ng.MustAddChild(om, university.Student, reldb.Tuple{iv(2), s("MS"), iv(1)})

	res, err := u.ReplaceInstance(old, rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	grades := db.MustRelation(university.Grades)
	if grades.Has(reldb.Tuple{s("CS445"), iv(5)}) {
		t.Fatal("removed grade survived")
	}
	got, ok := grades.Get(reldb.Tuple{s("CS445"), iv(2)})
	if !ok || got.At(3).MustString() != "B+" {
		t.Fatalf("added grade = %v, %v", got, ok)
	}
	// The remove+add pair collapses into a single key replacement — the
	// paper's own simplification ("If we have a deletion followed by an
	// insertion, we perform a replacement instead").
	if len(res.Ops) != 1 || res.Count(OpReplace) != 1 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

// User-requested key changes on peninsulas are prohibited (§5.3).
func TestVORPeninsulaKeyChangeRejected(t *testing.T) {
	db, _, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	// Change a curriculum row's Degree (part of its key, not the FK).
	cu := repl.Root().Children(university.Curriculum)[0]
	tu := cu.Row().Tuple()
	tu[1] = s("MBA")
	if err := cu.SetTuple(om, tu); err != nil {
		t.Fatal(err)
	}
	if _, err := u.ReplaceInstance(old, repl); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
}

// Key changes on plain outside relations are precluded (§5.3).
func TestVOROutsideKeyChangeRejected(t *testing.T) {
	db, _, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	// Change a student's PID (its key): STUDENT is an outside relation.
	gr := repl.Root().Children(university.Grades)[0]
	st := gr.Children(university.Student)[0]
	tu := st.Row().Tuple()
	tu[0] = iv(999)
	if err := st.SetTuple(om, tu); err != nil {
		t.Fatal(err)
	}
	if _, err := u.ReplaceInstance(old, repl); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
}

// Non-key changes on outside relations follow the outside policy (R-2).
func TestVOROutsideNonKeyReplace(t *testing.T) {
	db, g, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	gr := repl.Root().Children(university.Grades)[0]
	st := gr.Children(university.Student)[0]
	pid := st.Row().Tuple()[0]
	if err := st.SetAttr(om, "Year", iv(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	got, _ := db.MustRelation(university.Student).Get(reldb.Tuple{pid})
	if y, _ := got.At(2).AsInt(); y != 4 {
		t.Fatalf("year = %v", got.At(2))
	}
	auditClean(t, db, g)

	// The same change is rejected when STUDENT is not modifiable.
	tr := PermissiveTranslator(om)
	tr.Outside[university.Student] = OutsidePolicy{Modifiable: false}
	u2 := NewUpdater(tr)
	old2 := currentInstance(t, db, om, "CS345")
	repl2 := old2.Clone()
	gr2 := repl2.Root().Children(university.Grades)[0]
	st2 := gr2.Children(university.Student)[0]
	_ = st2.SetAttr(om, "Year", iv(5))
	if _, err := u2.ReplaceInstance(old2, repl2); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// Stale request: the pivot tuple was deleted between instantiation and
// replacement.
func TestVORStaleInstance(t *testing.T) {
	db, _, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	if _, err := u.DeleteByKey(reldb.Tuple{s("CS345")}); err != nil {
		t.Fatal(err)
	}
	repl := old.Clone()
	_ = repl.Root().SetAttr(om, "Title", s("Ghost"))
	if _, err := u.ReplaceInstance(old, repl); !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
	_ = db
}

func TestVORWrongDefinitionRejected(t *testing.T) {
	db, g, om, u := fixture(t)
	op := university.MustOmegaPrime(g)
	other, ok, err := viewobject.InstantiateByKey(db, op, reldb.Tuple{s("CS101")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	old := currentInstance(t, db, om, "CS101")
	if _, err := u.ReplaceInstance(old, other); err == nil {
		t.Fatal("foreign new instance accepted")
	}
	if _, err := u.ReplaceInstance(other, old); err == nil {
		t.Fatal("foreign old instance accepted")
	}
}

// The replacement leaves the caller's new instance untouched (it is
// cloned before propagation).
func TestVORDoesNotMutateCallerInstance(t *testing.T) {
	db, _, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS345")
	repl := old.Clone()
	_ = repl.Root().SetAttr(om, "CourseID", s("EES345"))
	_ = repl.Root().SetAttr(om, "DeptName", s("Engineering Economic Systems"))
	dep := repl.Root().Children(university.Department)[0]
	_ = dep.SetTuple(om, reldb.Tuple{s("Engineering Economic Systems"), reldb.Null(), reldb.Null()})
	// Grades in repl still carry CS345; propagation must not leak back.
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	for _, gr := range repl.Root().Children(university.Grades) {
		if gr.Row().Tuple()[0].MustString() != "CS345" {
			t.Fatal("caller's instance was mutated by propagation")
		}
	}
	_ = db
}
