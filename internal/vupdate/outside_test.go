package vupdate_test

import (
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
)

// §5.1: "for relations in the dependency island that have outgoing
// ownership or subset connections, the deletions must be propagated
// (repeatedly, if necessary) to those owned and subset relations" — even
// when those relations are NOT part of the view object. Build an
// out-of-object chain GRADES —* APPEALS —* APPEALNOTES, with ESCALATIONS
// a subset of APPEALS, and verify VO-CD on ω reaches all three.
func TestVOCDCascadesOutsideTheObject(t *testing.T) {
	db, g := university.MustNewSeeded()
	db.MustCreateRelation(reldb.MustSchema("APPEALS", []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Seq", Type: reldb.KindInt},
		{Name: "Reason", Type: reldb.KindString, Nullable: true},
	}, []string{"CourseID", "PID", "Seq"}))
	db.MustCreateRelation(reldb.MustSchema("APPEALNOTES", []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Seq", Type: reldb.KindInt},
		{Name: "NoteNo", Type: reldb.KindInt},
		{Name: "Text", Type: reldb.KindString, Nullable: true},
	}, []string{"CourseID", "PID", "Seq", "NoteNo"}))
	db.MustCreateRelation(reldb.MustSchema("ESCALATIONS", []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Seq", Type: reldb.KindInt},
		{Name: "Board", Type: reldb.KindString, Nullable: true},
	}, []string{"CourseID", "PID", "Seq"}))
	g.MustAddConnection(&structural.Connection{
		Name: "grade-appeals", Type: structural.Ownership,
		From: university.Grades, To: "APPEALS",
		FromAttrs: []string{"CourseID", "PID"}, ToAttrs: []string{"CourseID", "PID"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: "appeal-notes", Type: structural.Ownership,
		From: "APPEALS", To: "APPEALNOTES",
		FromAttrs: []string{"CourseID", "PID", "Seq"}, ToAttrs: []string{"CourseID", "PID", "Seq"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: "appeal-escalation", Type: structural.Subset,
		From: "APPEALS", To: "ESCALATIONS",
		FromAttrs: []string{"CourseID", "PID", "Seq"}, ToAttrs: []string{"CourseID", "PID", "Seq"},
	})
	err := db.RunInTx(func(tx *reldb.Tx) error {
		if err := tx.Insert("APPEALS", reldb.Tuple{s("CS345"), iv(4), iv(1), s("regrade")}); err != nil {
			return err
		}
		if err := tx.Insert("APPEALNOTES", reldb.Tuple{s("CS345"), iv(4), iv(1), iv(1), s("pending")}); err != nil {
			return err
		}
		return tx.Insert("ESCALATIONS", reldb.Tuple{s("CS345"), iv(4), iv(1), s("faculty senate")})
	})
	if err != nil {
		t.Fatal(err)
	}

	// ω does NOT include APPEALS or APPEALNOTES.
	om := university.MustOmega(g)
	if _, ok := om.Node("APPEALS"); ok {
		t.Fatal("test premise broken: APPEALS is in ω")
	}
	u := NewUpdater(PermissiveTranslator(om))
	res, err := u.DeleteByKey(reldb.Tuple{s("CS345")})
	if err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("APPEALS").Count() != 0 || db.MustRelation("APPEALNOTES").Count() != 0 {
		t.Fatal("out-of-object ownership chain not cascaded")
	}
	if db.MustRelation("ESCALATIONS").Count() != 0 {
		t.Fatal("out-of-object subset tuple not cascaded")
	}
	// course + 3 grades + 2 curricula + appeal + note + escalation.
	if res.Count(OpDelete) != 9 {
		t.Fatalf("deletes = %d\n%s", res.Count(OpDelete), res)
	}
	auditClean(t, db, g)
}

// Replacement of an island key also propagates to out-of-object owned
// relations (§5.3: "if a relation outside of the object is attached to
// the dependency island by an ownership or subset connection, the
// replacement has to be propagated to it").
func TestVORKeyChangePropagatesOutsideTheObject(t *testing.T) {
	db, g := university.MustNewSeeded()
	db.MustCreateRelation(reldb.MustSchema("SYLLABUS", []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "Week", Type: reldb.KindInt},
		{Name: "Topic", Type: reldb.KindString, Nullable: true},
	}, []string{"CourseID", "Week"}))
	g.MustAddConnection(&structural.Connection{
		Name: "course-syllabus", Type: structural.Ownership,
		From: university.Courses, To: "SYLLABUS",
		FromAttrs: []string{"CourseID"}, ToAttrs: []string{"CourseID"},
	})
	err := db.RunInTx(func(tx *reldb.Tx) error {
		return tx.Insert("SYLLABUS", reldb.Tuple{s("CS345"), iv(1), s("relational model")})
	})
	if err != nil {
		t.Fatal(err)
	}
	om := university.MustOmega(g)
	u := NewUpdater(PermissiveTranslator(om))
	old, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{s("CS345")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	repl := old.Clone()
	_ = repl.Root().SetAttr(om, "CourseID", s("EES345"))
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	if !db.MustRelation("SYLLABUS").Has(reldb.Tuple{s("EES345"), iv(1)}) {
		t.Fatal("out-of-object syllabus row did not follow the key change")
	}
	if db.MustRelation("SYLLABUS").Has(reldb.Tuple{s("CS345"), iv(1)}) {
		t.Fatal("old syllabus row survived")
	}
	auditClean(t, db, g)
}

// Updates through ω′ (Figure 3): no island beyond the pivot, components
// attached through multi-connection paths. A complete deletion deletes
// the pivot and cascades through the (out-of-object) GRADES rows;
// STUDENT and FACULTY base data survives.
func TestOmegaPrimeDeletion(t *testing.T) {
	db, g := university.MustNewSeeded()
	op := university.MustOmegaPrime(g)
	u := NewUpdater(PermissiveTranslator(op))
	res, err := u.DeleteByKey(reldb.Tuple{s("CS345")})
	if err != nil {
		t.Fatal(err)
	}
	if db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS345")}) {
		t.Fatal("pivot survived")
	}
	grades, _ := db.MustRelation(university.Grades).MatchEqual([]string{"CourseID"}, reldb.Tuple{s("CS345")})
	if len(grades) != 0 {
		t.Fatal("grades survived (ownership cascade must cover them)")
	}
	if db.MustRelation(university.Student).Count() != 5 ||
		db.MustRelation(university.Faculty).Count() != 2 {
		t.Fatal("students/faculty must survive")
	}
	if res.Count(OpDelete) != 6 { // course + 3 grades + 2 curriculum rows
		t.Fatalf("deletes = %d\n%s", res.Count(OpDelete), res)
	}
	auditClean(t, db, g)
}

// Non-key replacement through ω′ on an outside component reached by a
// multi-connection path.
func TestOmegaPrimeOutsideReplace(t *testing.T) {
	db, g := university.MustNewSeeded()
	op := university.MustOmegaPrime(g)
	u := NewUpdater(PermissiveTranslator(op))
	old, ok, err := viewobject.InstantiateByKey(db, op, reldb.Tuple{s("CS345")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	repl := old.Clone()
	for _, st := range repl.Root().Children(university.Student) {
		if st.Row().Tuple()[0].MustInt() == 4 {
			if err := st.SetAttr(op, "Year", iv(5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	got, _ := db.MustRelation(university.Student).Get(reldb.Tuple{iv(4)})
	if y, _ := got.At(2).AsInt(); y != 5 {
		t.Fatalf("year = %v", got.At(2))
	}
	auditClean(t, db, g)
}

// Pivot key change through ω′: the island is just COURSES, but grades
// (outside the object) must still follow via the structural propagation.
func TestOmegaPrimePivotKeyChange(t *testing.T) {
	db, g := university.MustNewSeeded()
	op := university.MustOmegaPrime(g)
	u := NewUpdater(PermissiveTranslator(op))
	old, ok, err := viewobject.InstantiateByKey(db, op, reldb.Tuple{s("CS345")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	repl := old.Clone()
	_ = repl.Root().SetAttr(op, "CourseID", s("EES345"))
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	moved, _ := db.MustRelation(university.Grades).MatchEqual([]string{"CourseID"}, reldb.Tuple{s("EES345")})
	if len(moved) != 3 {
		t.Fatalf("grades under new key = %d, want 3", len(moved))
	}
	curr, _ := db.MustRelation(university.Curriculum).MatchEqual([]string{"CourseID"}, reldb.Tuple{s("EES345")})
	if len(curr) != 2 {
		t.Fatalf("curriculum under new key = %d, want 2", len(curr))
	}
	auditClean(t, db, g)
}
