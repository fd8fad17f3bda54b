package reldb

import (
	"fmt"
	"strings"
	"testing"
)

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

// chain runs JoinChain over db, failing the test on an error.
func chain(t *testing.T, db *Database, root string, joins ...Join) *ResultSet {
	t.Helper()
	rs, err := JoinChain(db, root, joins)
	if err != nil {
		t.Fatalf("JoinChain(%s): %v", root, err)
	}
	return rs
}

// scanOf is the ResultSet of every row of the named relation.
func scanOf(db *Database, name string) *ResultSet {
	r := db.MustRelation(name)
	return &ResultSet{Schema: r.Schema(), Rows: r.All()}
}

func TestScanAndSelect(t *testing.T) {
	db := testDB(t)
	courses := scanOf(db, "COURSES")
	if courses.Len() != 4 {
		t.Fatalf("scan = %d rows", courses.Len())
	}
	for _, c := range []struct {
		pred Expr
		want int
	}{{Eq("Dept", String("CS")), 2}, {nil, 4}} {
		rs, err := courses.Filter(c.pred)
		if err != nil || rs.Len() != c.want {
			t.Fatalf("Filter(%v) = %d rows, %v; want %d", c.pred, rs.Len(), err, c.want)
		}
	}
	if rs, err := courses.Filter(Eq("Nope", Int(1))); err == nil || rs != nil {
		t.Fatalf("Filter with a bad predicate = %v, %v; want an error", rs, err)
	}
}

func TestProject(t *testing.T) {
	db := testDB(t)
	courses := scanOf(db, "COURSES")
	rs, err := courses.Project([]string{"Dept", "CourseID"})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Schema.Arity() != 2 {
		t.Fatalf("projected arity = %d", rs.Schema.Arity())
	}
	if rowValue(t, rs, 0, "Dept").IsNull() {
		t.Fatal("projection lost values")
	}
	if _, err := courses.Project([]string{"Nope"}); err == nil {
		t.Fatal("projecting unknown attr should fail")
	}
}

// gradesJoin joins GRADES to COURSES on CourseID.
func gradesJoin(outer bool) Join {
	return Join{Relation: "GRADES", LeftAttrs: []string{"CourseID"}, RightAttrs: []string{"CourseID"}, Outer: outer}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	rs := chain(t, db, "COURSES", gradesJoin(false))
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
		if !rowValue(t, rs, i, "COURSES.CourseID").Equal(rowValue(t, rs, i, "GRADES.CourseID")) {
			t.Fatal("join produced non-matching row")
		}
	}
	// The same join spelled with qualified names gives the same rows.
	q := chain(t, db, "COURSES", Join{Relation: "GRADES",
		LeftAttrs: []string{"COURSES.CourseID"}, RightAttrs: []string{"GRADES.CourseID"}})
	sameTuples(t, "qualified join", q.Rows, tuplesOf(rs.Rows))
}

// TestJoinChainResolvesNames: an unqualified left attribute is the
// root's, however far down the chain the join is, an unqualified right
// one the joined relation's, and a qualified name reaches any relation
// already in the chain.
func TestJoinChainResolvesNames(t *testing.T) {
	db := testDB(t)
	people := db.MustCreateRelation(MustSchema("PEOPLE", []Attribute{
		{Name: "PID", Type: KindInt},
		{Name: "Dept", Type: KindString},
	}, []string{"PID"}))
	for _, p := range []Tuple{{Int(1), String("CS")}, {Int(2), String("EE")}} {
		if err := people.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// COURSES ⋈ GRADES ⋈ PEOPLE: Dept is COURSES.Dept, three relations
	// back; PID is PEOPLE.PID.
	rs := chain(t, db, "COURSES", gradesJoin(false), Join{Relation: "PEOPLE",
		LeftAttrs: []string{"Dept", "GRADES.PID"}, RightAttrs: []string{"Dept", "PID"}})
	var got []string
	for i := 0; i < rs.Len(); i++ {
		got = append(got, fmt.Sprintf("%s/%d", rowValue(t, rs, i, "COURSES.CourseID").MustString(), rowValue(t, rs, i, "PEOPLE.PID").MustInt()))
	}
	// PID 1 (CS) took CS101 and CS345; PID 2 (EE) took CS101 and EE201.
	if want := "CS101/1 CS345/1 EE201/2"; strings.Join(got, " ") != want {
		t.Fatalf("chain rows = %v, want %s", got, want)
	}
	for _, j := range []Join{
		{Relation: "PEOPLE", LeftAttrs: []string{"Grade"}, RightAttrs: []string{"PID"}},  // Grade is not the root's
		{Relation: "PEOPLE", LeftAttrs: []string{"Dept"}, RightAttrs: []string{"Title"}}, // Title is not PEOPLE's
		{Relation: "NOPE"},
	} {
		if _, err := JoinChain(db, "COURSES", []Join{gradesJoin(false), j}); err == nil {
			t.Errorf("JoinChain accepted %+v", j)
		}
	}
	if _, err := JoinChain(db, "NOPE", nil); err == nil {
		t.Error("JoinChain accepted an unknown root")
	}
}

func TestOuterJoin(t *testing.T) {
	db := testDB(t)
	rs := chain(t, db, "COURSES", gradesJoin(true))
	// ME301 has no grades: 6 matched + 1 null-padded.
	if rs.Len() != 7 {
		t.Fatalf("outer join = %d rows, want 7", rs.Len())
	}
	nullPadded := 0
	for i := 0; i < rs.Len(); i++ {
		if rowValue(t, rs, i, "GRADES.CourseID").IsNull() {
			nullPadded++
			if got := rowValue(t, rs, i, "COURSES.CourseID").MustString(); got != "ME301" {
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
	j := Join{Relation: "R", LeftAttrs: []string{"FK"}, RightAttrs: []string{"K"}}
	if inner := chain(t, db, "L", j); inner.Len() != 1 {
		t.Fatalf("inner join with null key = %d rows, want 1", inner.Len())
	}
	j.Outer = true
	if outer := chain(t, db, "L", j); outer.Len() != 2 {
		t.Fatalf("outer join with null key = %d rows, want 2", outer.Len())
	}
}

func TestJoinArityMismatch(t *testing.T) {
	db := testDB(t)
	j := Join{Relation: "GRADES", LeftAttrs: []string{"CourseID"}, RightAttrs: []string{"CourseID", "PID"}}
	if _, err := JoinChain(db, "COURSES", []Join{j}); err == nil {
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
	rs := chain(t, db, "BIGL", Join{Relation: "BIGR", LeftAttrs: []string{"ID"}, RightAttrs: []string{"FK"}})
	if rs.Len() != 4*n {
		t.Fatalf("join = %d rows, want %d", rs.Len(), 4*n)
	}
}

// TestResultSetRowAccess: a result row is read by name through its
// schema, and an unknown name is an error, not a zero value.
func TestResultSetRowAccess(t *testing.T) {
	db := testDB(t)
	rs := scanOf(db, "COURSES")
	if _, err := (Attr{Name: "Nope"}).Eval(rs.Schema, rs.Rows[0]); err == nil {
		t.Fatal("unknown attribute read as a value")
	}
	if v := rowValue(t, rs, 0, "CourseID"); v.IsNull() || !v.Equal(rs.Rows[0].At(0)) {
		t.Fatalf("CourseID of row 0 = %v, want %v", v, rs.Rows[0].At(0))
	}
}

// rowValue returns the named attribute of row i of rs.
func rowValue(t testing.TB, rs *ResultSet, i int, name string) Value {
	t.Helper()
	v, err := (Attr{Name: name}).Eval(rs.Schema, rs.Rows[i])
	if err != nil {
		t.Fatal(err)
	}
	return v
}
