package reldb

import "testing"

// testDB builds a two-relation database:
//
//	COURSES(CourseID, Title, Dept, Units)
//	GRADES(CourseID, PID, Grade)
func testDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	courses := db.MustCreateRelation(MustSchema("COURSES", []Attribute{
		{Name: "CourseID", Type: KindString},
		{Name: "Title", Type: KindString, Nullable: true},
		{Name: "Dept", Type: KindString, Nullable: true},
		{Name: "Units", Type: KindInt, Nullable: true},
	}, []string{"CourseID"}))
	grades := db.MustCreateRelation(MustSchema("GRADES", []Attribute{
		{Name: "CourseID", Type: KindString},
		{Name: "PID", Type: KindInt},
		{Name: "Grade", Type: KindString, Nullable: true},
	}, []string{"CourseID", "PID"}))
	for _, c := range []struct {
		id, title, dept string
		units           int64
	}{
		{"CS101", "Intro CS", "CS", 3},
		{"CS345", "Databases", "CS", 4},
		{"EE201", "Circuits", "EE", 3},
		{"ME301", "Dynamics", "ME", 4},
	} {
		if err := courses.Insert(Tuple{String(c.id), String(c.title), String(c.dept), Int(c.units)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []struct {
		id    string
		pid   int64
		grade string
	}{
		{"CS101", 1, "A"}, {"CS101", 2, "B"}, {"CS101", 3, "A"},
		{"CS345", 1, "B"}, {"CS345", 4, "C"},
		{"EE201", 2, "A"},
	} {
		if err := grades.Insert(Tuple{String(g.id), Int(g.pid), String(g.grade)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func run(t *testing.T, p Plan) *ResultSet {
	t.Helper()
	rs, err := p.Run()
	if err != nil {
		t.Fatalf("plan failed: %v", err)
	}
	return rs
}

func TestScanAndSelect(t *testing.T) {
	db := testDB(t)
	courses := db.MustRelation("COURSES")
	rs := run(t, ScanPlan{courses})
	if rs.Len() != 4 {
		t.Fatalf("scan = %d rows", rs.Len())
	}
	rs = run(t, SelectPlan{ScanPlan{courses}, Eq("Dept", String("CS"))})
	if rs.Len() != 2 {
		t.Fatalf("select = %d rows", rs.Len())
	}
	rs = run(t, SelectPlan{ScanPlan{courses}, nil})
	if rs.Len() != 4 {
		t.Fatalf("select nil pred = %d rows", rs.Len())
	}
	if _, err := (SelectPlan{ScanPlan{courses}, Eq("Nope", Int(1))}).Run(); err == nil {
		t.Fatal("select with bad predicate should fail")
	}
}

func TestProject(t *testing.T) {
	db := testDB(t)
	courses := db.MustRelation("COURSES")
	rs := run(t, ProjectPlan{ScanPlan{courses}, []string{"Dept", "CourseID"}})
	if rs.Schema.Arity() != 2 {
		t.Fatalf("projected arity = %d", rs.Schema.Arity())
	}
	if rs.Row(0).MustGet("Dept").IsNull() {
		t.Fatal("projection lost values")
	}
	if _, err := (ProjectPlan{ScanPlan{courses}, []string{"Nope"}}).Run(); err == nil {
		t.Fatal("projecting unknown attr should fail")
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	p := JoinPlan{
		Left:       ScanPlan{db.MustRelation("COURSES")},
		Right:      ScanPlan{db.MustRelation("GRADES")},
		LeftAttrs:  []string{"CourseID"},
		RightAttrs: []string{"CourseID"},
	}
	rs := run(t, p)
	if rs.Len() != 6 {
		t.Fatalf("join = %d rows, want 6", rs.Len())
	}
	// Qualified attribute names.
	if _, ok := rs.Schema.AttrIndex("COURSES.CourseID"); !ok {
		t.Fatalf("joined schema missing COURSES.CourseID: %v", rs.Schema.AttrNames())
	}
	if _, ok := rs.Schema.AttrIndex("GRADES.Grade"); !ok {
		t.Fatal("joined schema missing GRADES.Grade")
	}
	// Every row has matching course ids on both sides.
	for i := 0; i < rs.Len(); i++ {
		row := rs.Row(i)
		if !row.MustGet("COURSES.CourseID").Equal(row.MustGet("GRADES.CourseID")) {
			t.Fatal("join produced non-matching row")
		}
	}
}

func TestOuterJoin(t *testing.T) {
	db := testDB(t)
	p := JoinPlan{
		Left:       ScanPlan{db.MustRelation("COURSES")},
		Right:      ScanPlan{db.MustRelation("GRADES")},
		LeftAttrs:  []string{"CourseID"},
		RightAttrs: []string{"CourseID"},
		Outer:      true,
	}
	rs := run(t, p)
	// ME301 has no grades: 6 matched + 1 null-padded.
	if rs.Len() != 7 {
		t.Fatalf("outer join = %d rows, want 7", rs.Len())
	}
	nullPadded := 0
	for i := 0; i < rs.Len(); i++ {
		if rs.Row(i).MustGet("GRADES.CourseID").IsNull() {
			nullPadded++
			if got := rs.Row(i).MustGet("COURSES.CourseID").MustString(); got != "ME301" {
				t.Fatalf("null-padded row for %s", got)
			}
		}
	}
	if nullPadded != 1 {
		t.Fatalf("null-padded rows = %d", nullPadded)
	}
}

func TestJoinNullKeysDoNotMatch(t *testing.T) {
	db := NewDatabase()
	l := db.MustCreateRelation(MustSchema("L", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "FK", Type: KindInt, Nullable: true},
	}, []string{"ID"}))
	r := db.MustCreateRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt},
	}, []string{"K"}))
	_ = l.Insert(Tuple{Int(1), Int(7)})
	_ = l.Insert(Tuple{Int(2), Null()})
	_ = r.Insert(Tuple{Int(7)})
	inner := run(t, JoinPlan{Left: ScanPlan{l}, Right: ScanPlan{r},
		LeftAttrs: []string{"FK"}, RightAttrs: []string{"K"}})
	if inner.Len() != 1 {
		t.Fatalf("inner join with null key = %d rows, want 1", inner.Len())
	}
	outer := run(t, JoinPlan{Left: ScanPlan{l}, Right: ScanPlan{r},
		LeftAttrs: []string{"FK"}, RightAttrs: []string{"K"}, Outer: true})
	if outer.Len() != 2 {
		t.Fatalf("outer join with null key = %d rows, want 2", outer.Len())
	}
}

func TestJoinArityMismatch(t *testing.T) {
	db := testDB(t)
	p := JoinPlan{
		Left:       ScanPlan{db.MustRelation("COURSES")},
		Right:      ScanPlan{db.MustRelation("GRADES")},
		LeftAttrs:  []string{"CourseID"},
		RightAttrs: []string{"CourseID", "PID"},
	}
	if _, err := p.Run(); err == nil {
		t.Fatal("mismatched join attrs should fail")
	}
}

func TestLargeJoinStress(t *testing.T) {
	db := NewDatabase()
	l := db.MustCreateRelation(MustSchema("BIGL", []Attribute{
		{Name: "ID", Type: KindInt},
	}, []string{"ID"}))
	r := db.MustCreateRelation(MustSchema("BIGR", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "FK", Type: KindInt},
	}, []string{"ID"}))
	const n = 500
	for i := 0; i < n; i++ {
		if err := l.Insert(Tuple{Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*n; i++ {
		if err := r.Insert(Tuple{Int(int64(i)), Int(int64(i % n))}); err != nil {
			t.Fatal(err)
		}
	}
	rs := run(t, JoinPlan{Left: ScanPlan{l}, Right: ScanPlan{r},
		LeftAttrs: []string{"ID"}, RightAttrs: []string{"FK"}})
	if rs.Len() != 4*n {
		t.Fatalf("join = %d rows, want %d", rs.Len(), 4*n)
	}
}

func TestResultSetRowAccess(t *testing.T) {
	db := testDB(t)
	rs := run(t, ScanPlan{db.MustRelation("COURSES")})
	row := rs.Row(0)
	if _, ok := row.Get("Nope"); ok {
		t.Fatal("Get unknown attr should be !ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet unknown attr should panic")
		}
	}()
	row.MustGet("Nope")
}
