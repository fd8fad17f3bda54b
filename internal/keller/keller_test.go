package keller_test

import (
	"errors"
	"strings"
	"testing"

	. "penguin/internal/keller"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/vupdate"
)

func s(v string) reldb.Value { return reldb.String(v) }
func iv(v int64) reldb.Value { return reldb.Int(v) }

// courseGradesView joins COURSES with GRADES — the flat analogue of a
// slice of ω.
func courseGradesView(t *testing.T, db *reldb.Database) *View {
	t.Helper()
	v, err := NewView(db, "course-grades",
		[]Join{
			{Relation: university.Courses},
			{Relation: university.Grades,
				LeftAttrs:  []string{"COURSES.CourseID"},
				RightAttrs: []string{"CourseID"}},
		},
		nil,
		[]string{"COURSES.CourseID", "COURSES.Title", "COURSES.Level", "GRADES.PID", "GRADES.Grade"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestViewValidation(t *testing.T) {
	db, _ := university.MustNewSeeded()
	if _, err := NewView(db, "empty", nil, nil, nil); err == nil {
		t.Fatal("empty view accepted")
	}
	if _, err := NewView(db, "bad-root", []Join{
		{Relation: university.Courses, LeftAttrs: []string{"X"}, RightAttrs: []string{"Y"}},
	}, nil, nil); err == nil {
		t.Fatal("root with join condition accepted")
	}
	if _, err := NewView(db, "missing", []Join{{Relation: "NOPE"}}, nil, nil); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := NewView(db, "mismatch", []Join{
		{Relation: university.Courses},
		{Relation: university.Grades, LeftAttrs: []string{"COURSES.CourseID"}, RightAttrs: []string{"CourseID", "PID"}},
	}, nil, nil); err == nil {
		t.Fatal("mismatched join attrs accepted")
	}
	if _, err := NewView(db, "bad-proj", []Join{{Relation: university.Courses}}, nil,
		[]string{"COURSES.Nope"}); err == nil {
		t.Fatal("unknown projection attr accepted")
	}
}

func TestMaterialize(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	rs, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// 17 grades total, inner join.
	if rs.Len() != 17 {
		t.Fatalf("view rows = %d, want 17", rs.Len())
	}
	if rs.Schema.Arity() != 5 {
		t.Fatalf("view arity = %d", rs.Schema.Arity())
	}
	if !strings.Contains(v.String(), "COURSES ⋈ GRADES") {
		t.Fatalf("String = %q", v.String())
	}
}

func TestMaterializeWithSelection(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v, err := NewView(db, "grad",
		[]Join{
			{Relation: university.Courses},
			{Relation: university.Grades,
				LeftAttrs: []string{"COURSES.CourseID"}, RightAttrs: []string{"CourseID"}},
		},
		reldb.Cmp{Op: reldb.OpEq, L: reldb.Attr{Name: "COURSES.Level"}, R: reldb.Const{V: s("graduate")}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// CS345 (3) + CS445 (2) + EE380 (5).
	if rs.Len() != 10 {
		t.Fatalf("rows = %d, want 10", rs.Len())
	}
}

// The headline baseline behaviour: deleting through the flat view removes
// only the root tuple, leaving orphaned GRADES and dangling CURRICULUM
// references — violations the structural audit counts. (VO-CD leaves
// zero; see the vupdate tests and the E11 bench.)
func TestFlatDeleteLeavesOrphans(t *testing.T) {
	db, g := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	viewTuple := reldb.Tuple{s("CS345"), s("Database Systems"), s("graduate"), iv(1), s("A")}
	res, err := tr.Delete(viewTuple)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deletes != 1 || res.Total() != 1 {
		t.Fatalf("result = %+v, want exactly one delete", res)
	}
	if db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS345")}) {
		t.Fatal("root tuple survived")
	}
	// The grades are orphaned, the curriculum rows dangle.
	in := &structural.Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 5 { // 3 orphan grades + 2 dangling curriculum rows
		t.Fatalf("violations = %d, want 5:\n%s", len(vs), structural.FormatViolations(vs))
	}
}

func TestFlatInsert(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	// New course with one grade: both sides inserted; attributes the view
	// projects out become null.
	res, err := tr.Insert(reldb.Tuple{s("CS999"), s("New Course"), s("graduate"), iv(1), s("A")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserts != 2 {
		t.Fatalf("inserts = %d, want 2", res.Inserts)
	}
	course, _ := db.MustRelation(university.Courses).Get(reldb.Tuple{s("CS999")})
	if !course[2].IsNull() { // DeptName projected out
		t.Fatalf("DeptName = %v, want null", course[2])
	}
	// Existing grade row: case 1 for GRADES (no-op), case 3 for COURSES
	// is root-identical → rejection.
	_, err = tr.Insert(reldb.Tuple{s("CS999"), s("New Course"), s("graduate"), iv(1), s("A")})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("identical reinsert err = %v", err)
	}
}

func TestFlatInsertCase3Replaces(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	// Existing course, new grade, conflicting course title: COURSES is
	// the root and its visible values differ -> case 3 replace; GRADES
	// inserted.
	res, err := tr.Insert(reldb.Tuple{s("CS345"), s("Renamed DB"), s("graduate"), iv(2), s("B")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaces != 1 || res.Inserts != 1 {
		t.Fatalf("result = %+v", res)
	}
	got, _ := db.MustRelation(university.Courses).Get(reldb.Tuple{s("CS345")})
	if got[1].MustString() != "Renamed DB" {
		t.Fatalf("title = %v", got[1])
	}
	if got[2].IsNull() {
		t.Fatal("invisible attribute clobbered")
	}
}

func TestFlatInsertPolicyGates(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	tr.Policy[university.Grades] = RelationPolicy{AllowInsert: false, AllowModify: true}
	_, err := tr.Insert(reldb.Tuple{s("CS998"), s("T"), s("graduate"), iv(1), s("A")})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	// Rollback: the root insert must not have survived.
	if db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS998")}) {
		t.Fatal("partial insert leaked")
	}
	tr.Policy[university.Courses] = RelationPolicy{AllowInsert: true, AllowModify: false}
	tr.Policy[university.Grades] = RelationPolicy{AllowInsert: true, AllowModify: true}
	_, err = tr.Insert(reldb.Tuple{s("CS345"), s("Conflicting"), s("graduate"), iv(2), s("B")})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestFlatReplaceSameKeys(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	old := reldb.Tuple{s("CS345"), s("Database Systems"), s("graduate"), iv(1), s("A")}
	nu := reldb.Tuple{s("CS345"), s("Database Systems"), s("graduate"), iv(1), s("A+")}
	res, err := tr.Replace(old, nu)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaces != 1 {
		t.Fatalf("result = %+v", res)
	}
	got, _ := db.MustRelation(university.Grades).Get(reldb.Tuple{s("CS345"), iv(1)})
	if got[3].MustString() != "A+" {
		t.Fatalf("grade = %v", got[3])
	}
	// Identical replace: zero ops.
	res, err = tr.Replace(nu, nu)
	if err != nil || res.Total() != 0 {
		t.Fatalf("identical replace: %+v, %v", res, err)
	}
}

// Flat root-key replacement does NOT propagate: grades stay under the old
// course id — another orphan source the view-object translation fixes.
func TestFlatReplaceRootKeyNoPropagation(t *testing.T) {
	db, g := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	old := reldb.Tuple{s("CS345"), s("Database Systems"), s("graduate"), iv(1), s("A")}
	nu := reldb.Tuple{s("EES345"), s("Database Systems"), s("graduate"), iv(1), s("A")}
	// The GRADES side also sees a key change (CourseID is in its key) and
	// inserts a new grade row.
	res, err := tr.Replace(old, nu)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaces != 1 || res.Inserts != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Old grades orphaned.
	in := &structural.Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("flat key replacement should leave violations (it does not propagate)")
	}
}

func TestFlatReplaceKeyGate(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	tr.Policy[university.Courses] = RelationPolicy{AllowInsert: true, AllowModify: true, AllowKeyReplace: false}
	old := reldb.Tuple{s("CS345"), s("Database Systems"), s("graduate"), iv(1), s("A")}
	nu := reldb.Tuple{s("EES345"), s("Database Systems"), s("graduate"), iv(1), s("A")}
	if _, err := tr.Replace(old, nu); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestFlatReplaceStale(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr := PermissiveTranslator(v)
	old := reldb.Tuple{s("GHOST"), s("X"), s("graduate"), iv(1), s("A")}
	nu := reldb.Tuple{s("GHOST"), s("Y"), s("graduate"), iv(1), s("A")}
	if _, err := tr.Replace(old, nu); !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
	_ = db
}

func TestKellerDialog(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v := courseGradesView(t, db)
	tr, tape, err := ChooseTranslator(v, vupdate.ScriptedAnswerer{
		Answers: map[string]bool{"keller.GRADES.insert": false},
		Default: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// COURSES: insert, modify, keyreplace; GRADES: insert, modify.
	if len(tape) != 5 {
		t.Fatalf("asked %d questions, want 5:\n%s", len(tape), tape.Render())
	}
	text := tape.Render()
	for _, want := range []string{
		"Can new tuples be inserted into relation COURSES to implement view updates? <YES>",
		"Can the key of a tuple of the root relation COURSES be replaced? <YES>",
		"Can new tuples be inserted into relation GRADES to implement view updates? <NO>",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("transcript missing %q:\n%s", want, text)
		}
	}
	if tr.Policy[university.Grades].AllowInsert {
		t.Fatal("GRADES insert should be denied")
	}
	if !tr.Policy[university.Courses].AllowKeyReplace {
		t.Fatal("COURSES keyreplace should be allowed")
	}
	// Error propagation.
	boom := errors.New("boom")
	bad := vupdate.AnswerFunc(func(vupdate.Question) (bool, error) { return false, boom })
	if _, _, err := ChooseTranslator(v, bad); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestOuterJoinView(t *testing.T) {
	db, _ := university.MustNewSeeded()
	v, err := NewView(db, "courses-all",
		[]Join{
			{Relation: university.Courses},
			{Relation: university.Grades, Outer: true,
				LeftAttrs: []string{"COURSES.CourseID"}, RightAttrs: []string{"CourseID"}},
		}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// 17 matched rows; every course has at least one grade in the seed.
	if rs.Len() != 17 {
		t.Fatalf("rows = %d", rs.Len())
	}
}
