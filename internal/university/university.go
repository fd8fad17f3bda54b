// Package university builds the paper's running example: the university
// database of Figure 1, with eight relations and nine typed connections,
// plus seed data sized either to the paper's illustrative instance or to
// benchmark scale.
//
// Schema (reconstructed from the paper's prose):
//
//	DEPARTMENT(DeptName*, Building, Budget)
//	PEOPLE(PID*, Name, DeptName→DEPARTMENT, Email)
//	STUDENT(PID*, Degree, Year)           PEOPLE —⊃ STUDENT
//	FACULTY(PID*, Rank, Tenured)          PEOPLE —⊃ FACULTY
//	STAFF(PID*, Title)                    PEOPLE —⊃ STAFF
//	COURSES(CourseID*, Title, DeptName→DEPARTMENT, Units, Level)
//	CURRICULUM(DeptName*, Degree*, CourseID*)
//	    DEPARTMENT —* CURRICULUM, CURRICULUM → COURSES
//	GRADES(CourseID*, PID*, Quarter, Grade)
//	    COURSES —* GRADES, STUDENT —* GRADES
//
// (* marks key attributes.) This reproduces every structural fact the
// paper states: two paths from COURSES to PEOPLE (via DEPARTMENT and via
// GRADES-STUDENT), CURRICULUM as ω's referencing peninsula, and
// {COURSES, GRADES} as ω's dependency island.
package university

import (
	"errors"
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// Relation names of the university schema.
const (
	Department = "DEPARTMENT"
	People     = "PEOPLE"
	Student    = "STUDENT"
	Faculty    = "FACULTY"
	Staff      = "STAFF"
	Courses    = "COURSES"
	Curriculum = "CURRICULUM"
	Grades     = "GRADES"
)

// Connection names of the university schema.
const (
	ConnPersonDept       = "person-dept"
	ConnCourseDept       = "course-dept"
	ConnPersonStudent    = "person-student"
	ConnPersonFaculty    = "person-faculty"
	ConnPersonStaff      = "person-staff"
	ConnDeptCurriculum   = "dept-curriculum"
	ConnCurriculumCourse = "curriculum-course"
	ConnCourseGrades     = "course-grades"
	ConnStudentGrades    = "student-grades"
)

// New builds the empty university database and its structural schema
// (Figure 1), with secondary indexes on every connecting attribute set.
func New() (*reldb.Database, *structural.Graph) {
	db := reldb.NewDatabase()
	g, err := Install(db)
	if err != nil {
		// A fresh in-memory database cannot collide with anything.
		panic(err)
	}
	return db, g
}

// Install ensures the university relations exist in db — creating any
// that are absent, leaving existing relations and their rows alone —
// and attaches the Figure 1 structural schema to a new graph. It is the
// durable-session counterpart of New: a database recovered from a WAL
// (-data-dir) already holds the relations and their data, but the
// connection graph lives in memory and must be rebuilt every process
// start. An existing relation whose schema differs from the university
// schema is an error (the data directory belongs to something else).
func Install(db *reldb.Database) (*structural.Graph, error) {
	ensure := func(schema *reldb.Schema) error {
		_, err := db.CreateRelation(schema)
		if errors.Is(err, reldb.ErrRelationExists) {
			rel, relErr := db.Relation(schema.Name())
			if relErr != nil {
				return relErr
			}
			if rel.Schema().String() != schema.String() {
				return fmt.Errorf("university: relation %s exists with schema %s, want %s",
					schema.Name(), rel.Schema(), schema)
			}
			return nil
		}
		return err
	}
	if err := installRelations(ensure); err != nil {
		return nil, err
	}
	return attachGraph(db), nil
}

// installRelations declares every university schema through ensure.
func installRelations(ensure func(*reldb.Schema) error) error {
	if err := ensure(reldb.MustSchema(Department, []reldb.Attribute{
		{Name: "DeptName", Type: reldb.KindString},
		{Name: "Building", Type: reldb.KindString, Nullable: true},
		{Name: "Budget", Type: reldb.KindFloat, Nullable: true},
	}, []string{"DeptName"})); err != nil {
		return err
	}

	if err := ensure(reldb.MustSchema(People, []reldb.Attribute{
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Name", Type: reldb.KindString, Nullable: true},
		{Name: "DeptName", Type: reldb.KindString, Nullable: true},
		{Name: "Email", Type: reldb.KindString, Nullable: true},
	}, []string{"PID"})); err != nil {
		return err
	}

	if err := ensure(reldb.MustSchema(Student, []reldb.Attribute{
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Degree", Type: reldb.KindString, Nullable: true},
		{Name: "Year", Type: reldb.KindInt, Nullable: true},
	}, []string{"PID"})); err != nil {
		return err
	}

	if err := ensure(reldb.MustSchema(Faculty, []reldb.Attribute{
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Rank", Type: reldb.KindString, Nullable: true},
		{Name: "Tenured", Type: reldb.KindBool, Nullable: true},
	}, []string{"PID"})); err != nil {
		return err
	}

	if err := ensure(reldb.MustSchema(Staff, []reldb.Attribute{
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Title", Type: reldb.KindString, Nullable: true},
	}, []string{"PID"})); err != nil {
		return err
	}

	if err := ensure(reldb.MustSchema(Courses, []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "Title", Type: reldb.KindString, Nullable: true},
		{Name: "DeptName", Type: reldb.KindString, Nullable: true},
		{Name: "Units", Type: reldb.KindInt, Nullable: true},
		{Name: "Level", Type: reldb.KindString, Nullable: true},
	}, []string{"CourseID"})); err != nil {
		return err
	}

	if err := ensure(reldb.MustSchema(Curriculum, []reldb.Attribute{
		{Name: "DeptName", Type: reldb.KindString},
		{Name: "Degree", Type: reldb.KindString},
		{Name: "CourseID", Type: reldb.KindString},
	}, []string{"DeptName", "Degree", "CourseID"})); err != nil {
		return err
	}

	if err := ensure(reldb.MustSchema(Grades, []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Quarter", Type: reldb.KindString, Nullable: true},
		{Name: "Grade", Type: reldb.KindString, Nullable: true},
	}, []string{"CourseID", "PID"})); err != nil {
		return err
	}

	return nil
}

// attachGraph builds the Figure 1 connection graph over db. The graph
// (and the secondary indexes each connection registers) is in-memory
// state rebuilt on every process start.
func attachGraph(db *reldb.Database) *structural.Graph {
	g := structural.NewGraph(db)
	g.MustAddConnection(&structural.Connection{
		Name: ConnPersonDept, Type: structural.Reference,
		From: People, To: Department,
		FromAttrs: []string{"DeptName"}, ToAttrs: []string{"DeptName"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnCourseDept, Type: structural.Reference,
		From: Courses, To: Department,
		FromAttrs: []string{"DeptName"}, ToAttrs: []string{"DeptName"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnPersonStudent, Type: structural.Subset,
		From: People, To: Student,
		FromAttrs: []string{"PID"}, ToAttrs: []string{"PID"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnPersonFaculty, Type: structural.Subset,
		From: People, To: Faculty,
		FromAttrs: []string{"PID"}, ToAttrs: []string{"PID"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnPersonStaff, Type: structural.Subset,
		From: People, To: Staff,
		FromAttrs: []string{"PID"}, ToAttrs: []string{"PID"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnDeptCurriculum, Type: structural.Ownership,
		From: Department, To: Curriculum,
		FromAttrs: []string{"DeptName"}, ToAttrs: []string{"DeptName"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnCurriculumCourse, Type: structural.Reference,
		From: Curriculum, To: Courses,
		FromAttrs: []string{"CourseID"}, ToAttrs: []string{"CourseID"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnCourseGrades, Type: structural.Ownership,
		From: Courses, To: Grades,
		FromAttrs: []string{"CourseID"}, ToAttrs: []string{"CourseID"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: ConnStudentGrades, Type: structural.Ownership,
		From: Student, To: Grades,
		FromAttrs: []string{"PID"}, ToAttrs: []string{"PID"},
	})

	// Connection traversal is a hash lookup instead of a scan: adding each
	// connection above registered a secondary index over its connecting
	// attributes wherever they are not already the target's whole key.

	return g
}

// Seed loads the paper's illustrative instance: three departments, a mix
// of students, faculty, and staff, graduate and undergraduate courses
// (including CS345 of §6's replacement example), curricula, and grades.
// CS345 is a graduate course with fewer than 5 enrolled students, so the
// Figure 4 query selects it.
func Seed(db *reldb.Database) error {
	return db.RunInTx(func(tx *reldb.Tx) error {
		return seedRows(func(rel string, rows ...reldb.Tuple) error {
			for _, row := range rows {
				if err := tx.Insert(rel, row); err != nil {
					return fmt.Errorf("university: seeding %s: %w", rel, err)
				}
			}
			return nil
		})
	})
}

// seedRows feeds the paper's illustrative rows through ins, relation by
// relation — the one row source behind both the single-database Seed
// and the partitioned SeedSharded.
func seedRows(ins func(rel string, rows ...reldb.Tuple) error) error {
	s := reldb.String
	i := reldb.Int
	f := reldb.Float
	b := reldb.Bool

	if err := ins(Department,
		reldb.Tuple{s("Computer Science"), s("Gates"), f(1_200_000)},
		reldb.Tuple{s("Electrical Engineering"), s("Packard"), f(900_000)},
		reldb.Tuple{s("Mechanical Engineering"), s("Building 530"), f(750_000)},
	); err != nil {
		return err
	}
	if err := ins(People,
		reldb.Tuple{i(1), s("Alice Hacker"), s("Computer Science"), s("alice@cs")},
		reldb.Tuple{i(2), s("Bob Builder"), s("Mechanical Engineering"), s("bob@me")},
		reldb.Tuple{i(3), s("Carol Circuits"), s("Electrical Engineering"), s("carol@ee")},
		reldb.Tuple{i(4), s("Dan Data"), s("Computer Science"), s("dan@cs")},
		reldb.Tuple{i(5), s("Eve Embedded"), s("Electrical Engineering"), s("eve@ee")},
		reldb.Tuple{i(6), s("Frank Faculty"), s("Computer Science"), s("frank@cs")},
		reldb.Tuple{i(7), s("Grace Prof"), s("Electrical Engineering"), s("grace@ee")},
		reldb.Tuple{i(8), s("Heidi Admin"), s("Computer Science"), s("heidi@cs")},
	); err != nil {
		return err
	}
	if err := ins(Student,
		reldb.Tuple{i(1), s("PhD"), i(3)},
		reldb.Tuple{i(2), s("MS"), i(1)},
		reldb.Tuple{i(3), s("MS"), i(2)},
		reldb.Tuple{i(4), s("BS"), i(4)},
		reldb.Tuple{i(5), s("PhD"), i(5)},
	); err != nil {
		return err
	}
	if err := ins(Faculty,
		reldb.Tuple{i(6), s("Associate Professor"), b(true)},
		reldb.Tuple{i(7), s("Professor"), b(true)},
	); err != nil {
		return err
	}
	if err := ins(Staff,
		reldb.Tuple{i(8), s("Department Administrator")},
	); err != nil {
		return err
	}
	if err := ins(Courses,
		reldb.Tuple{s("CS101"), s("Introduction to Computing"), s("Computer Science"), i(3), s("undergraduate")},
		reldb.Tuple{s("CS345"), s("Database Systems"), s("Computer Science"), i(4), s("graduate")},
		reldb.Tuple{s("CS445"), s("Distributed Systems"), s("Computer Science"), i(4), s("graduate")},
		reldb.Tuple{s("EE201"), s("Circuits I"), s("Electrical Engineering"), i(3), s("undergraduate")},
		reldb.Tuple{s("EE380"), s("VLSI Design"), s("Electrical Engineering"), i(4), s("graduate")},
		reldb.Tuple{s("ME301"), s("Dynamics"), s("Mechanical Engineering"), i(4), s("undergraduate")},
	); err != nil {
		return err
	}
	if err := ins(Curriculum,
		reldb.Tuple{s("Computer Science"), s("BS"), s("CS101")},
		reldb.Tuple{s("Computer Science"), s("MS"), s("CS345")},
		reldb.Tuple{s("Computer Science"), s("PhD"), s("CS345")},
		reldb.Tuple{s("Computer Science"), s("PhD"), s("CS445")},
		reldb.Tuple{s("Electrical Engineering"), s("BS"), s("EE201")},
		reldb.Tuple{s("Electrical Engineering"), s("MS"), s("EE380")},
		reldb.Tuple{s("Mechanical Engineering"), s("BS"), s("ME301")},
	); err != nil {
		return err
	}
	if err := ins(Grades,
		// CS101: a large undergraduate course (5 students).
		reldb.Tuple{s("CS101"), i(1), s("Aut90"), s("A")},
		reldb.Tuple{s("CS101"), i(2), s("Aut90"), s("B+")},
		reldb.Tuple{s("CS101"), i(3), s("Aut90"), s("A-")},
		reldb.Tuple{s("CS101"), i(4), s("Aut90"), s("B")},
		reldb.Tuple{s("CS101"), i(5), s("Aut90"), s("A")},
		// CS345: graduate, 3 students (< 5, selected by Figure 4).
		reldb.Tuple{s("CS345"), i(1), s("Win91"), s("A")},
		reldb.Tuple{s("CS345"), i(4), s("Win91"), s("B+")},
		reldb.Tuple{s("CS345"), i(5), s("Win91"), s("A-")},
		// CS445: graduate, 2 students (< 5, selected by Figure 4).
		reldb.Tuple{s("CS445"), i(1), s("Spr91"), s("A")},
		reldb.Tuple{s("CS445"), i(5), s("Spr91"), s("B")},
		// EE380: graduate, 5 students (not selected by Figure 4).
		reldb.Tuple{s("EE380"), i(1), s("Win91"), s("B")},
		reldb.Tuple{s("EE380"), i(2), s("Win91"), s("A")},
		reldb.Tuple{s("EE380"), i(3), s("Win91"), s("A-")},
		reldb.Tuple{s("EE380"), i(4), s("Win91"), s("B+")},
		reldb.Tuple{s("EE380"), i(5), s("Win91"), s("A")},
		// EE201, ME301: undergraduate.
		reldb.Tuple{s("EE201"), i(3), s("Aut90"), s("A")},
		reldb.Tuple{s("ME301"), i(2), s("Aut90"), s("B")},
	); err != nil {
		return err
	}
	return nil
}

// NewSeeded builds the university database, structural schema, and the
// paper's sample instance in one call.
func NewSeeded() (*reldb.Database, *structural.Graph, error) {
	db, g := New()
	if err := Seed(db); err != nil {
		return nil, nil, err
	}
	return db, g, nil
}

// MustNewSeeded is NewSeeded that panics on error (fixtures and benches).
func MustNewSeeded() (*reldb.Database, *structural.Graph) {
	db, g, err := NewSeeded()
	if err != nil {
		panic(err)
	}
	return db, g
}

// ScaleSpec sizes SeedScaled's synthetic instance.
type ScaleSpec struct {
	Departments      int
	StudentsPerDept  int
	FacultyPerDept   int
	CoursesPerDept   int
	GradesPerCourse  int // capped at the number of students in the department
	DegreesPerDept   int
	CoursesPerDegree int
}

// SeedScaled fills db with a deterministic synthetic instance of the
// given size. Identifiers are sequential, so runs are reproducible
// without random sources. Students receiving grades for a course are
// drawn from the same department, round-robin.
func SeedScaled(db *reldb.Database, spec ScaleSpec) error {
	return db.RunInTx(func(tx *reldb.Tx) error {
		s := reldb.String
		i := reldb.Int
		pid := int64(0)
		degrees := []string{"BS", "MS", "PhD", "MBA", "JD", "MD"}
		for d := 0; d < spec.Departments; d++ {
			dept := fmt.Sprintf("Dept%03d", d)
			if err := tx.Insert(Department, reldb.Tuple{s(dept), s("Bldg" + dept), reldb.Float(float64(100000 * (d + 1)))}); err != nil {
				return err
			}
			var deptStudents []int64
			for st := 0; st < spec.StudentsPerDept; st++ {
				pid++
				if err := tx.Insert(People, reldb.Tuple{i(pid), s(fmt.Sprintf("Student%d", pid)), s(dept), s(fmt.Sprintf("s%d@u", pid))}); err != nil {
					return err
				}
				if err := tx.Insert(Student, reldb.Tuple{i(pid), s(degrees[st%3]), i(int64(st%5 + 1))}); err != nil {
					return err
				}
				deptStudents = append(deptStudents, pid)
			}
			for fa := 0; fa < spec.FacultyPerDept; fa++ {
				pid++
				if err := tx.Insert(People, reldb.Tuple{i(pid), s(fmt.Sprintf("Faculty%d", pid)), s(dept), s(fmt.Sprintf("f%d@u", pid))}); err != nil {
					return err
				}
				if err := tx.Insert(Faculty, reldb.Tuple{i(pid), s("Professor"), reldb.Bool(fa%2 == 0)}); err != nil {
					return err
				}
			}
			for cs := 0; cs < spec.CoursesPerDept; cs++ {
				course := fmt.Sprintf("C%03d-%03d", d, cs)
				level := "undergraduate"
				if cs%2 == 1 {
					level = "graduate"
				}
				if err := tx.Insert(Courses, reldb.Tuple{s(course), s("Course " + course), s(dept), i(int64(cs%4 + 1)), s(level)}); err != nil {
					return err
				}
				n := spec.GradesPerCourse
				if n > len(deptStudents) {
					n = len(deptStudents)
				}
				for gIdx := 0; gIdx < n; gIdx++ {
					stu := deptStudents[(cs+gIdx)%len(deptStudents)]
					if err := tx.Insert(Grades, reldb.Tuple{s(course), i(stu), s("Aut90"), s("A")}); err != nil {
						return err
					}
				}
				for dg := 0; dg < spec.DegreesPerDept && dg < len(degrees); dg++ {
					if cs < spec.CoursesPerDegree {
						if err := tx.Insert(Curriculum, reldb.Tuple{s(dept), s(degrees[dg]), s(course)}); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	})
}
