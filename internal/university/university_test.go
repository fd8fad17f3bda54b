package university

import (
	"strings"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/structural"
)

func TestSchemaMatchesFigure1(t *testing.T) {
	db, g := New()
	wantRels := []string{Courses, Curriculum, Department, Faculty, Grades, People, Staff, Student}
	if got := strings.Join(db.Names(), ","); got != strings.Join(wantRels, ",") {
		t.Fatalf("relations = %v", db.Names())
	}
	if len(g.Connections()) != 9 {
		t.Fatalf("connections = %d, want 9", len(g.Connections()))
	}
	// Spot-check the connection types the paper's figures rely on.
	checks := []struct {
		name string
		typ  structural.ConnType
		from string
		to   string
	}{
		{ConnCourseGrades, structural.Ownership, Courses, Grades},
		{ConnStudentGrades, structural.Ownership, Student, Grades},
		{ConnDeptCurriculum, structural.Ownership, Department, Curriculum},
		{ConnCurriculumCourse, structural.Reference, Curriculum, Courses},
		{ConnCourseDept, structural.Reference, Courses, Department},
		{ConnPersonDept, structural.Reference, People, Department},
		{ConnPersonStudent, structural.Subset, People, Student},
		{ConnPersonFaculty, structural.Subset, People, Faculty},
		{ConnPersonStaff, structural.Subset, People, Staff},
	}
	for _, c := range checks {
		conn, ok := g.Connection(c.name)
		if !ok {
			t.Errorf("connection %s missing", c.name)
			continue
		}
		if conn.Type != c.typ || conn.From != c.from || conn.To != c.to {
			t.Errorf("connection %s = %s, want %s %s %s", c.name, conn, c.from, c.typ, c.to)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Figure 1 schema does not validate: %v", err)
	}
}

// The paper's figures depend on two distinct paths from COURSES to PEOPLE.
func TestTwoPathsFromCoursesToPeople(t *testing.T) {
	_, g := New()
	// Path 1: COURSES --> DEPARTMENT, then inverse(PEOPLE --> DEPARTMENT).
	if _, ok := g.Connection(ConnCourseDept); !ok {
		t.Fatal("path 1 missing course-dept")
	}
	if _, ok := g.Connection(ConnPersonDept); !ok {
		t.Fatal("path 1 missing person-dept")
	}
	// Path 2: COURSES --* GRADES, inverse(STUDENT --* GRADES),
	// inverse(PEOPLE --) STUDENT).
	if _, ok := g.Connection(ConnCourseGrades); !ok {
		t.Fatal("path 2 missing course-grades")
	}
	if _, ok := g.Connection(ConnStudentGrades); !ok {
		t.Fatal("path 2 missing student-grades")
	}
}

func TestSeedIsAuditClean(t *testing.T) {
	db, g, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	in := &structural.Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("seed violates the structural model:\n%s", structural.FormatViolations(vs))
	}
}

func TestSeedContainsPaperEntities(t *testing.T) {
	db, _ := MustNewSeeded()
	// CS345 exists, is graduate, belongs to Computer Science.
	cs345, ok := db.MustRelation(Courses).Get(reldb.Tuple{reldb.String("CS345")})
	if !ok {
		t.Fatal("CS345 missing")
	}
	if lvl, _ := cs345.At(4).AsString(); lvl != "graduate" {
		t.Fatalf("CS345 level = %v", cs345.At(4))
	}
	if dept, _ := cs345.At(2).AsString(); dept != "Computer Science" {
		t.Fatalf("CS345 dept = %v", cs345.At(2))
	}
	// Fewer than 5 students enrolled in CS345 (Figure 4's predicate).
	grades, err := db.MustRelation(Grades).MatchEqual([]string{"CourseID"}, reldb.Tuple{reldb.String("CS345")})
	if err != nil {
		t.Fatal(err)
	}
	if len(grades) >= 5 {
		t.Fatalf("CS345 has %d grades; Figure 4 needs < 5", len(grades))
	}
	// "Engineering Economic Systems" must NOT exist (§6's example inserts it).
	if db.MustRelation(Department).Has(reldb.Tuple{reldb.String("Engineering Economic Systems")}) {
		t.Fatal("EES should not be pre-seeded")
	}
	// EE380 is graduate with 5 students: must not satisfy Figure 4.
	grades, _ = db.MustRelation(Grades).MatchEqual([]string{"CourseID"}, reldb.Tuple{reldb.String("EE380")})
	if len(grades) != 5 {
		t.Fatalf("EE380 has %d grades, want 5", len(grades))
	}
}

func TestSeedIsIdempotentPerDatabase(t *testing.T) {
	db, _ := New()
	if err := Seed(db); err != nil {
		t.Fatal(err)
	}
	if err := Seed(db); err == nil {
		t.Fatal("second Seed should fail on duplicate keys")
	}
	// And the failed second seed must not have half-applied.
	if got := db.MustRelation(Department).Count(); got != 3 {
		t.Fatalf("departments = %d after failed reseed", got)
	}
}

func TestSeedScaled(t *testing.T) {
	db, g := New()
	spec := ScaleSpec{
		Departments:      3,
		StudentsPerDept:  10,
		FacultyPerDept:   2,
		CoursesPerDept:   4,
		GradesPerCourse:  5,
		DegreesPerDept:   2,
		CoursesPerDegree: 2,
	}
	if err := SeedScaled(db, spec); err != nil {
		t.Fatal(err)
	}
	if got := db.MustRelation(Department).Count(); got != 3 {
		t.Fatalf("departments = %d", got)
	}
	if got := db.MustRelation(Student).Count(); got != 30 {
		t.Fatalf("students = %d", got)
	}
	if got := db.MustRelation(Faculty).Count(); got != 6 {
		t.Fatalf("faculty = %d", got)
	}
	if got := db.MustRelation(Courses).Count(); got != 12 {
		t.Fatalf("courses = %d", got)
	}
	if got := db.MustRelation(Grades).Count(); got != 60 {
		t.Fatalf("grades = %d", got)
	}
	in := &structural.Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("scaled seed violates the structural model:\n%s", structural.FormatViolations(vs))
	}
}

func TestSeedScaledGradesCappedByStudents(t *testing.T) {
	db, _ := New()
	spec := ScaleSpec{
		Departments:     1,
		StudentsPerDept: 2,
		CoursesPerDept:  1,
		GradesPerCourse: 10, // more than students available
	}
	if err := SeedScaled(db, spec); err != nil {
		t.Fatal(err)
	}
	if got := db.MustRelation(Grades).Count(); got != 2 {
		t.Fatalf("grades = %d, want capped at 2", got)
	}
}

func TestScaledSeedDeterministic(t *testing.T) {
	spec := ScaleSpec{Departments: 2, StudentsPerDept: 3, CoursesPerDept: 2, GradesPerCourse: 2}
	db1, _ := New()
	db2, _ := New()
	if err := SeedScaled(db1, spec); err != nil {
		t.Fatal(err)
	}
	if err := SeedScaled(db2, spec); err != nil {
		t.Fatal(err)
	}
	for _, rel := range db1.Names() {
		a := db1.MustRelation(rel).All()
		b := db2.MustRelation(rel).All()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", rel, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s row %d differs", rel, i)
			}
		}
	}
}
