package keller_test

import (
	"errors"
	"strings"
	"testing"

	. "penguin/internal/keller"
	"penguin/internal/obs"
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
	if !course.At(2).IsNull() { // DeptName projected out
		t.Fatalf("DeptName = %v, want null", course.At(2))
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
	if got.At(1).MustString() != "Renamed DB" {
		t.Fatalf("title = %v", got.At(1))
	}
	if got.At(2).IsNull() {
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
	if got.At(3).MustString() != "A+" {
		t.Fatalf("grade = %v", got.At(3))
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

// viewDB holds KR(A, B) and KS(A, C), joined on A, with rows rows of
// each.
func viewDB(t *testing.T, rows int) (*reldb.Database, []Join) {
	t.Helper()
	db := reldb.NewDatabase()
	kr := db.MustCreateRelation(reldb.MustSchema("KR", []reldb.Attribute{
		{Name: "A", Type: reldb.KindInt}, {Name: "B", Type: reldb.KindString, Nullable: true},
	}, []string{"A"}))
	ks := db.MustCreateRelation(reldb.MustSchema("KS", []reldb.Attribute{
		{Name: "A", Type: reldb.KindInt}, {Name: "C", Type: reldb.KindInt},
	}, []string{"A", "C"}))
	for i := int64(0); i < int64(rows); i++ {
		if err := kr.Insert(reldb.Tuple{iv(i), s("x")}); err != nil {
			t.Fatal(err)
		}
		if err := ks.Insert(reldb.Tuple{iv(i), iv(2 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, []Join{{Relation: "KR"}, {Relation: "KS", LeftAttrs: []string{"KR.A"}, RightAttrs: []string{"A"}}}
}

// TestViewRefusalIndependentOfData: NewView checks a definition against
// the relation schemas, so an empty database and one holding a row
// refuse the same bad definitions and accept the same good one.
func TestViewRefusalIndependentOfData(t *testing.T) {
	eq := func(e reldb.Expr) reldb.Expr { return reldb.Cmp{Op: reldb.OpEq, L: e, R: reldb.Const{V: iv(1)}} }
	for _, rows := range []int{0, 1} {
		db, joins := viewDB(t, rows)
		for what, sel := range map[string]reldb.Expr{
			"an unknown attribute":        eq(reldb.Attr{Rel: "KR", Name: "Nope"}),
			"an unknown qualifier":        eq(reldb.Attr{Rel: "KT", Name: "A"}),
			"an unknown unqualified name": eq(reldb.Attr{Name: "Nope"}),
			"an unknown attribute behind a short circuit": reldb.And{Terms: []reldb.Expr{
				reldb.Not{E: reldb.IsNull{E: reldb.Attr{Rel: "KR", Name: "B"}}},
				reldb.Or{Terms: []reldb.Expr{eq(reldb.Attr{Rel: "KS", Name: "C"}), reldb.Like{E: reldb.Attr{Rel: "KS", Name: "Nope"}, Pattern: "%"}}},
			}},
		} {
			if _, err := NewView(db, "bad", joins, sel, nil); err == nil {
				t.Errorf("%d rows: selection with %s accepted", rows, what)
			}
		}
		if _, err := NewView(db, "bad", joins, nil, []string{"KS.Nope"}); err == nil {
			t.Errorf("%d rows: unknown projected attribute accepted", rows)
		}
		v, err := NewView(db, "good", joins, eq(reldb.Attr{Rel: "KS", Name: "C"}), []string{"KR.A", "KS.C"})
		if err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
		if got := strings.Join(v.Schema().AttrNames(), ","); got != "KR.A,KS.C" {
			t.Fatalf("%d rows: view schema %s", rows, got)
		}
	}
}

// TestNewViewScansNoRow: defining a view reads no row of its relations
// (reldb.relation.scans and .scanned stay put); materializing it scans
// each relation of the join chain once.
func TestNewViewScansNoRow(t *testing.T) {
	db, joins := viewDB(t, 3)
	charged := func() (scans, scanned int64) {
		for _, rel := range []string{"KR", "KS"} {
			slot := obs.Default.Relations.Intern(rel)
			scans += obs.Default.RelScans.At(slot).Load()
			scanned += obs.Default.RelScanned.At(slot).Load()
		}
		return scans, scanned
	}
	scans0, scanned0 := charged()
	v, err := NewView(db, "kv", joins, reldb.Cmp{Op: reldb.OpEq, L: reldb.Attr{Rel: "KR", Name: "B"}, R: reldb.Const{V: s("x")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scans, scanned := charged(); scans != scans0 || scanned != scanned0 {
		t.Fatalf("NewView charged %d scans over %d rows", scans-scans0, scanned-scanned0)
	}
	rs, err := v.Materialize()
	if err != nil || rs.Len() != 3 {
		t.Fatalf("Materialize = %v rows, %v", rs, err)
	}
	if scans, scanned := charged(); scans != scans0+2 || scanned != scanned0+6 {
		t.Fatalf("Materialize charged %d scans over %d rows, want 2 over 6", scans-scans0, scanned-scanned0)
	}
}
