package viewobject_test

import (
	"errors"
	"strings"
	"testing"

	"penguin/internal/structural"
	"penguin/internal/university"
	. "penguin/internal/viewobject"
)

func TestNewDefinitionValidation(t *testing.T) {
	_, g := university.New()
	courseGrades, _ := g.Connection(university.ConnCourseGrades)
	studentGrades, _ := g.Connection(university.ConnStudentGrades)

	valid := func() *Node {
		return &Node{
			Relation: university.Courses,
			Children: []*Node{{
				Relation: university.Grades,
				Path:     []structural.Edge{{Conn: courseGrades, Forward: true}},
			}},
		}
	}

	if _, err := NewDefinition("ok", g, valid()); err != nil {
		t.Fatalf("valid definition rejected: %v", err)
	}

	t.Run("nil root", func(t *testing.T) {
		if _, err := NewDefinition("d", g, nil); err == nil {
			t.Fatal("nil root accepted")
		}
	})
	t.Run("root with path", func(t *testing.T) {
		r := valid()
		r.Path = []structural.Edge{{Conn: courseGrades, Forward: true}}
		if _, err := NewDefinition("d", g, r); err == nil {
			t.Fatal("root with path accepted")
		}
	})
	t.Run("pivot key must be projected", func(t *testing.T) {
		r := valid()
		r.Attrs = []string{"Title"}
		_, err := NewDefinition("d", g, r)
		if err == nil || !strings.Contains(err.Error(), "key attribute") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no second projection on pivot relation", func(t *testing.T) {
		r := valid()
		// Try to attach COURSES again below GRADES.
		r.Children[0].Children = []*Node{{
			Relation: university.Courses,
			Path:     []structural.Edge{{Conn: courseGrades, Forward: false}},
		}}
		_, err := NewDefinition("d", g, r)
		if err == nil || !strings.Contains(err.Error(), "Definition 3.2") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown relation", func(t *testing.T) {
		r := valid()
		r.Children[0].Relation = "NOPE"
		if _, err := NewDefinition("d", g, r); err == nil {
			t.Fatal("unknown relation accepted")
		}
	})
	t.Run("unknown attrs", func(t *testing.T) {
		r := valid()
		r.Children[0].Attrs = []string{"NoAttr"}
		if _, err := NewDefinition("d", g, r); err == nil {
			t.Fatal("unknown attr accepted")
		}
	})
	t.Run("missing path", func(t *testing.T) {
		r := valid()
		r.Children[0].Path = nil
		if _, err := NewDefinition("d", g, r); err == nil {
			t.Fatal("missing path accepted")
		}
	})
	t.Run("path source mismatch", func(t *testing.T) {
		r := valid()
		r.Children[0].Path = []structural.Edge{{Conn: studentGrades, Forward: true}}
		_, err := NewDefinition("d", g, r)
		if err == nil || !strings.Contains(err.Error(), "starts at") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("path target mismatch", func(t *testing.T) {
		r := valid()
		r.Children[0].Relation = university.Student
		_, err := NewDefinition("d", g, r)
		if err == nil || !strings.Contains(err.Error(), "ends at") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("foreign connection", func(t *testing.T) {
		r := valid()
		alien := *courseGrades // a copy: same name, different pointer
		r.Children[0].Path = []structural.Edge{{Conn: &alien, Forward: true}}
		_, err := NewDefinition("d", g, r)
		if err == nil || !strings.Contains(err.Error(), "not in the structural schema") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate IDs", func(t *testing.T) {
		r := valid()
		r.ID = "X"
		r.Children[0].ID = "X"
		_, err := NewDefinition("d", g, r)
		if err == nil || !strings.Contains(err.Error(), "duplicate node ID") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestDefinitionAccessors(t *testing.T) {
	_, g := university.New()
	om := university.MustOmega(g)
	if om.Graph() != g {
		t.Fatal("Graph() wrong")
	}
	nodes := om.Nodes()
	if len(nodes) != 5 || nodes[0] != om.Root() {
		t.Fatalf("Nodes() = %d, first is root: %v", len(nodes), nodes[0] == om.Root())
	}
	n, ok := om.Node(university.Grades)
	if !ok || n.Relation != university.Grades {
		t.Fatal("Node(GRADES) wrong")
	}
	if _, ok := om.Node("NOPE"); ok {
		t.Fatal("unknown node found")
	}
	if om.Root().Parent() != nil {
		t.Fatal("root parent should be nil")
	}
	if n.Parent() != om.Root() {
		t.Fatal("GRADES parent should be root")
	}
}

func TestDefaultAttrsAreAllAttributes(t *testing.T) {
	_, g := university.New()
	courseGrades, _ := g.Connection(university.ConnCourseGrades)
	d, err := NewDefinition("d", g, &Node{
		Relation: university.Courses,
		Children: []*Node{{
			Relation: university.Grades,
			Path:     []structural.Edge{{Conn: courseGrades, Forward: true}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Root().Attrs) != 5 {
		t.Fatalf("root attrs defaulted to %v", d.Root().Attrs)
	}
	gn, _ := d.Node(university.Grades)
	if len(gn.Attrs) != 4 {
		t.Fatalf("grades attrs defaulted to %v", gn.Attrs)
	}
}

func TestDefinitionRender(t *testing.T) {
	_, g := university.New()
	om := university.MustOmega(g)
	out := om.Render()
	for _, want := range []string{
		"view object omega (pivot COURSES, key CourseID, complexity 5)",
		"COURSES (CourseID, Title, DeptName, Units, Level)",
		"--> DEPARTMENT (DeptName, Building)",
		"--* GRADES",
		"inv(--*) STUDENT",
		"inv(-->) CURRICULUM",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// ω′ shows compressed multi-edge paths.
	op := university.MustOmegaPrime(g)
	out = op.Render()
	if !strings.Contains(out, "--*·inv(--*) STUDENT") {
		t.Errorf("ω′ Render missing compressed path:\n%s", out)
	}
}

func TestMustDefinitionPanics(t *testing.T) {
	_, g := university.New()
	defer func() {
		if recover() == nil {
			t.Fatal("MustDefinition should panic")
		}
	}()
	MustDefinition("bad", g, nil)
}

// Multiple objects can share a pivot (the paper's sharing property):
// ω and ω′ coexist over the same database.
func TestMultipleObjectsSamePivot(t *testing.T) {
	_, g := university.New()
	om := university.MustOmega(g)
	op := university.MustOmegaPrime(g)
	if om.Pivot() != op.Pivot() {
		t.Fatal("objects should share the pivot")
	}
	if om.Complexity() == op.Complexity() {
		t.Fatal("distinct configurations expected")
	}
}

// TestNewDefinitionRejectsFieldCollision: a document keys a component's
// attributes and its child lists in one object, so a projected attribute
// named like a child node would be dropped from the document and come
// back null from a client that edited nothing (GetPut broken without an
// error). The definition is refused instead; the same tree without the
// attribute in the projection is fine.
func TestNewDefinitionRejectsFieldCollision(t *testing.T) {
	_, g := university.New()
	courseGrades, _ := g.Connection(university.ConnCourseGrades)
	tree := func(attrs ...string) *Node {
		return &Node{
			Relation: university.Courses,
			Attrs:    attrs,
			Children: []*Node{{
				ID:       "Title",
				Relation: university.Grades,
				Path:     []structural.Edge{{Conn: courseGrades, Forward: true}},
			}},
		}
	}
	_, err := NewDefinition("clash", g, tree()) // no projection: every attribute, Title among them
	if !errors.Is(err, ErrFieldCollision) {
		t.Fatalf("err = %v, want ErrFieldCollision", err)
	}
	for _, want := range []string{"clash", "node " + university.Courses, "attribute Title", "child node Title", university.Grades} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if _, err := NewDefinition("no-clash", g, tree("CourseID", "Units")); err != nil {
		t.Fatalf("child ID equal to an attribute outside the projection rejected: %v", err)
	}
}
