package viewobject_test

import (
	"strings"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
	. "penguin/internal/viewobject"
)

func seededOmega(t *testing.T) (*reldb.Database, *Definition) {
	t.Helper()
	db, g := university.MustNewSeeded()
	return db, university.MustOmega(g)
}

func cs345Key() reldb.Tuple { return reldb.Tuple{reldb.String("CS345")} }

func TestInstantiateByKey(t *testing.T) {
	db, om := seededOmega(t)
	inst, ok, err := InstantiateByKey(db, om, cs345Key())
	if err != nil || !ok {
		t.Fatalf("InstantiateByKey: %v, %v", ok, err)
	}
	if !inst.Key().Equal(cs345Key()) {
		t.Fatalf("key = %v", inst.Key())
	}
	// CS345 has 3 grades, each with its student, 1 department, 2 curricula.
	if n := inst.Count(university.Grades); n != 3 {
		t.Fatalf("GRADES components = %d, want 3", n)
	}
	if n := inst.Count(university.Student); n != 3 {
		t.Fatalf("STUDENT components = %d, want 3", n)
	}
	if n := inst.Count(university.Department); n != 1 {
		t.Fatalf("DEPARTMENT components = %d, want 1", n)
	}
	if n := inst.Count(university.Curriculum); n != 2 {
		t.Fatalf("CURRICULUM components = %d, want 2", n)
	}
	// Each STUDENT hangs under the GRADES row with the matching PID.
	for _, gr := range inst.Root().Children(university.Grades) {
		students := gr.Children(university.Student)
		if len(students) != 1 {
			t.Fatalf("grade %v has %d students", gr.Tuple(), len(students))
		}
		if !gr.Tuple()[1].Equal(students[0].Tuple()[0]) {
			t.Fatalf("student PID mismatch: %v vs %v", gr.Tuple(), students[0].Tuple())
		}
	}
	// Missing key.
	_, ok, err = InstantiateByKey(db, om, reldb.Tuple{reldb.String("NOPE")})
	if err != nil || ok {
		t.Fatalf("missing key: %v, %v", ok, err)
	}
}

// Figure 4: graduate courses with fewer than 5 students enrolled.
func TestInstantiateFigure4Query(t *testing.T) {
	db, om := seededOmega(t)
	insts, err := Instantiate(db, om, Query{
		PivotPred:  reldb.Eq("Level", reldb.String("graduate")),
		CountConds: []CountCond{{NodeID: university.Student, Op: reldb.OpLt, N: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, i := range insts {
		ids = append(ids, i.Key()[0].MustString())
	}
	// CS345 (3 students) and CS445 (2) qualify; EE380 (5) does not.
	if strings.Join(ids, ",") != "CS345,CS445" {
		t.Fatalf("Figure 4 result = %v, want CS345,CS445", ids)
	}
}

func TestInstantiateAll(t *testing.T) {
	db, om := seededOmega(t)
	insts, err := Instantiate(db, om, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 6 {
		t.Fatalf("instances = %d, want 6 (one per course)", len(insts))
	}
	// Key order.
	prev := ""
	for _, i := range insts {
		id := i.Key()[0].MustString()
		if id < prev {
			t.Fatalf("instances out of key order: %s after %s", id, prev)
		}
		prev = id
	}
}

func TestInstantiateNodePred(t *testing.T) {
	db, om := seededOmega(t)
	// Courses where at least one PhD student is enrolled.
	insts, err := Instantiate(db, om, Query{
		NodePreds: []NodePred{{
			NodeID: university.Student,
			Pred:   reldb.Eq("Degree", reldb.String("PhD")),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, i := range insts {
		ids[i.Key()[0].MustString()] = true
	}
	for _, want := range []string{"CS101", "CS345", "CS445", "EE380"} {
		if !ids[want] {
			t.Errorf("missing %s in %v", want, ids)
		}
	}
	if ids["ME301"] {
		t.Error("ME301 has no PhD students")
	}
}

func TestInstantiateQueryErrors(t *testing.T) {
	db, om := seededOmega(t)
	if _, err := Instantiate(db, om, Query{
		NodePreds: []NodePred{{NodeID: "NOPE", Pred: reldb.Eq("X", reldb.Int(1))}},
	}); err == nil {
		t.Fatal("unknown node pred accepted")
	}
	if _, err := Instantiate(db, om, Query{
		CountConds: []CountCond{{NodeID: "NOPE", Op: reldb.OpLt, N: 5}},
	}); err == nil {
		t.Fatal("unknown count node accepted")
	}
	if _, err := Instantiate(db, om, Query{
		PivotPred: reldb.Eq("NoAttr", reldb.Int(1)),
	}); err == nil {
		t.Fatal("bad pivot predicate accepted")
	}
	if _, err := Instantiate(db, om, Query{
		NodePreds: []NodePred{{NodeID: university.Student, Pred: reldb.Eq("NoAttr", reldb.Int(1))}},
	}); err == nil {
		t.Fatal("bad node predicate accepted")
	}
}

// ω′: instantiation across multi-connection paths (Figure 3).
func TestInstantiateOmegaPrime(t *testing.T) {
	db, g := university.MustNewSeeded()
	op := university.MustOmegaPrime(g)
	inst, ok, err := InstantiateByKey(db, op, cs345Key())
	if err != nil || !ok {
		t.Fatalf("%v %v", ok, err)
	}
	// STUDENT reached through GRADES: the 3 enrolled students.
	if n := inst.Count(university.Student); n != 3 {
		t.Fatalf("ω′ students = %d, want 3", n)
	}
	// FACULTY reached through DEPARTMENT-PEOPLE: CS faculty (Frank, PID 6).
	fac := inst.NodesAt(university.Faculty)
	if len(fac) != 1 {
		t.Fatalf("ω′ faculty = %d, want 1", len(fac))
	}
	if pid := fac[0].Tuple()[0].MustInt(); pid != 6 {
		t.Fatalf("faculty PID = %d, want 6", pid)
	}
	// Students are direct children of the root in ω′.
	if got := len(inst.Root().Children(university.Student)); got != 3 {
		t.Fatalf("root students = %d", got)
	}
}

// Path traversal deduplicates: two grades by the same student in different
// quarters yield one STUDENT component in ω′.
func TestTraversePathDedup(t *testing.T) {
	db, g := university.MustNewSeeded()
	// Give student 1 a second CS345 grade in another quarter — the GRADES
	// key is (CourseID, PID), so use a different course's tuple instead:
	// enroll student 1 twice via two distinct grades is impossible for the
	// same course; instead verify dedup across multi-step paths directly.
	op := university.MustOmegaPrime(g)
	st, _ := op.Node(university.Student)
	courses := db.MustRelation(university.Courses)
	cs345, _ := courses.Get(cs345Key())
	tuples, err := TraversePath(db, cs345, st.Path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tu := range tuples {
		k := tu.Encode()
		if seen[k] {
			t.Fatalf("duplicate tuple %v from TraversePath", tu)
		}
		seen[k] = true
	}
	if len(tuples) != 3 {
		t.Fatalf("traversal = %d tuples, want 3", len(tuples))
	}
}

func TestTraversePathNullBreaks(t *testing.T) {
	db, g := university.MustNewSeeded()
	// A course with a null DeptName reaches no DEPARTMENT.
	err := db.RunInTx(func(tx *reldb.Tx) error {
		return tx.Insert(university.Courses, reldb.Tuple{
			reldb.String("X999"), reldb.String("Mystery"), reldb.Null(), reldb.Int(1), reldb.String("undergraduate"),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	om := university.MustOmega(g)
	inst, ok, err := InstantiateByKey(db, om, reldb.Tuple{reldb.String("X999")})
	if err != nil || !ok {
		t.Fatalf("%v %v", ok, err)
	}
	if n := inst.Count(university.Department); n != 0 {
		t.Fatalf("null FK produced %d departments", n)
	}
}

func TestInstanceBuildByHand(t *testing.T) {
	_, om := seededOmega(t)
	s, i := reldb.String, reldb.Int
	inst := MustNewInstance(om, reldb.Tuple{s("CS999"), s("New Course"), s("Computer Science"), i(3), s("graduate")})
	gr := inst.Root().MustAddChild(om, university.Grades, reldb.Tuple{s("CS999"), i(1), s("Aut91"), s("A")})
	gr.MustAddChild(om, university.Student, reldb.Tuple{i(1), s("PhD"), i(3)})
	inst.Root().MustAddChild(om, university.Department, reldb.Tuple{s("Computer Science"), s("Gates"), reldb.Null()})

	if !inst.Key().Equal(reldb.Tuple{s("CS999")}) {
		t.Fatalf("key = %v", inst.Key())
	}
	if inst.Count(university.Student) != 1 || inst.Count(university.Grades) != 1 {
		t.Fatal("hand-built structure wrong")
	}
	// Unknown child node.
	if _, err := inst.Root().AddChild(om, "FACULTY", reldb.Tuple{i(1), s("Prof"), reldb.Bool(true)}); err == nil {
		t.Fatal("ω has no FACULTY child")
	}
	// Invalid tuple for child relation.
	if _, err := inst.Root().AddChild(om, university.Grades, reldb.Tuple{s("CS999")}); err == nil {
		t.Fatal("short tuple accepted")
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	db, om := seededOmega(t)
	inst, _, err := InstantiateByKey(db, om, cs345Key())
	if err != nil {
		t.Fatal(err)
	}
	c := inst.Clone()
	if err := c.Root().SetAttr(om, "Title", reldb.String("Renamed")); err != nil {
		t.Fatal(err)
	}
	v, _ := inst.Root().Get(om, "Title")
	if v.MustString() != "Database Systems" {
		t.Fatal("Clone aliases the original")
	}
	cv, _ := c.Root().Get(om, "Title")
	if cv.MustString() != "Renamed" {
		t.Fatal("SetAttr lost")
	}
}

func TestInstanceSettersValidate(t *testing.T) {
	db, om := seededOmega(t)
	inst, _, _ := InstantiateByKey(db, om, cs345Key())
	if err := inst.Root().SetTuple(om, reldb.Tuple{reldb.Null()}); err == nil {
		t.Fatal("invalid SetTuple accepted")
	}
	if err := inst.Root().SetAttr(om, "NoAttr", reldb.Int(1)); err == nil {
		t.Fatal("unknown attr accepted")
	}
	if _, ok := inst.Root().Get(om, "NoAttr"); ok {
		t.Fatal("Get unknown attr should be !ok")
	}
	// Setting a key attr to null must fail validation.
	if err := inst.Root().SetAttr(om, "CourseID", reldb.Null()); err == nil {
		t.Fatal("null key accepted")
	}
}

func TestProjectedRespectsProjection(t *testing.T) {
	db, g := university.MustNewSeeded()
	// Narrow ω variant: DEPARTMENT projected to DeptName only.
	d, err := Define(g, "narrow", university.Courses, DefaultMetric(), map[string][]string{
		university.Courses:    {"CourseID", "Title"},
		university.Department: {"DeptName"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, ok, err := InstantiateByKey(db, d, cs345Key())
	if err != nil || !ok {
		t.Fatal(err)
	}
	root := inst.Root().Projected(d)
	if len(root) != 2 {
		t.Fatalf("projected root = %v", root)
	}
	dep := inst.Root().Children(university.Department)[0].Projected(d)
	if len(dep) != 1 || dep[0].MustString() != "Computer Science" {
		t.Fatalf("projected dept = %v", dep)
	}
	// Full tuple still available internally for joins.
	full := inst.Root().Children(university.Department)[0].Tuple()
	if len(full) != 3 {
		t.Fatalf("full dept tuple = %v", full)
	}
}

func TestInstanceRenderFigure4(t *testing.T) {
	db, om := seededOmega(t)
	inst, _, _ := InstantiateByKey(db, om, cs345Key())
	out := inst.Render()
	for _, want := range []string{
		"instance of omega, key (CS345)",
		"COURSES: (CS345, Database Systems, Computer Science, 4, graduate)",
		"DEPARTMENT: (Computer Science, Gates)",
		"GRADES: (CS345, 1, Win91, A)",
		"STUDENT: (1, PhD, 3)",
		"CURRICULUM: (Computer Science, MS, CS345)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestNewInstanceValidatesPivot(t *testing.T) {
	_, om := seededOmega(t)
	if _, err := NewInstance(om, reldb.Tuple{reldb.Null()}); err == nil {
		t.Fatal("invalid pivot tuple accepted")
	}
}

func TestMustHelpersPanic(t *testing.T) {
	_, om := seededOmega(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewInstance should panic")
		}
	}()
	MustNewInstance(om, reldb.Tuple{reldb.Null()})
}

// TestSharedTuplesAreInvisible: assembly adopts the tuples storage hands
// out, so two courses of one department — fetched by one batched probe —
// hold the same DEPARTMENT tuple, and Clone shares every tuple with its
// original. Neither sharing may show: an edit through one holder changes
// that holder alone.
func TestSharedTuplesAreInvisible(t *testing.T) {
	db, def := seededOmega(t)
	all, err := Instantiate(db, def, Query{})
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*Instance)
	for _, inst := range all {
		byID[inst.Key()[0].MustString()] = inst
	}
	dept := func(inst *Instance) *InstNode { return inst.NodesAt(university.Department)[0] }
	a, b := byID["CS345"], byID["CS445"] // both Computer Science
	if !SharesTuple(dept(a), dept(b)) {
		t.Fatal("the two courses' DEPARTMENT components do not share a tuple: the test no longer covers adoption")
	}
	before := b.Render()
	if err := dept(a).SetAttr(def, "Building", reldb.String("Moved")); err != nil {
		t.Fatal(err)
	}
	if v, _ := dept(a).Get(def, "Building"); v.MustString() != "Moved" {
		t.Fatalf("SetAttr did not take: Building = %s", v)
	}
	if b.Render() != before {
		t.Errorf("editing CS345's department changed CS445's:\n%s", b.Render())
	}
	fresh, ok, err := InstantiateByKey(db, def, reldb.Tuple{reldb.String("CS445")})
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if fresh.Render() != before {
		t.Errorf("editing an instance reached storage: a fresh read gives\n%s", fresh.Render())
	}

	c := b.Clone()
	if !SharesTuple(c.Root(), b.Root()) {
		t.Fatal("Clone no longer shares tuples: the test no longer covers it")
	}
	if err := c.Root().SetAttr(def, "Title", reldb.String("Edited")); err != nil {
		t.Fatal(err)
	}
	if err := dept(c).SetTuple(def, dept(a).Tuple()); err != nil {
		t.Fatal(err)
	}
	if b.Render() != before {
		t.Errorf("editing a clone changed its original:\n%s", b.Render())
	}
	if c.Render() == before {
		t.Error("the clone's edits did not take")
	}
}

// component is one BuildInstance input.
type component struct {
	node   string
	parent int
	tuple  reldb.Tuple
}

func buildFrom(om *Definition, comps []component) (*Instance, error) {
	return BuildInstance(om, len(comps), func(i int) (*Node, int, reldb.Tuple) {
		n, _ := om.Node(comps[i].node)
		return n, comps[i].parent, comps[i].tuple
	})
}

// TestBuildInstance: the slab constructor builds what NewInstance and
// AddChild build from the same components, whatever the order of the
// child nodes in the preorder; a slab's lists and tuples are full
// capacity, so appending to or rewriting one component leaves its
// neighbours alone; and malformed input is an error — a bad tuple with
// AddChild's text, the first in preorder — never a panic.
func TestBuildInstance(t *testing.T) {
	_, om := seededOmega(t)
	s, i := reldb.String, reldb.Int
	comps := []component{
		{university.Courses, -1, reldb.Tuple{s("CS999"), s("T"), s("Computer Science"), i(3), s("graduate")}},
		{university.Grades, 0, reldb.Tuple{s("CS999"), i(1), s("Win91"), s("A")}},
		{university.Student, 1, reldb.Tuple{i(1), s("PhD"), i(3)}},
		{university.Department, 0, reldb.Tuple{s("Computer Science"), s("Gates"), reldb.Float(1)}},
		{university.Grades, 0, reldb.Tuple{s("CS999"), i(4), s("Win91"), s("B")}},
		{university.Student, 4, reldb.Tuple{i(4), s("BS"), i(4)}},
	}
	got, err := buildFrom(om, comps)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNewInstance(om, comps[0].tuple)
	added := []*InstNode{want.Root()}
	for _, c := range comps[1:] {
		added = append(added, added[c.parent].MustAddChild(om, c.node, c.tuple))
	}
	if got.Render() != want.Render() {
		t.Fatalf("BuildInstance:\n%s\nNewInstance and AddChild:\n%s", got.Render(), want.Render())
	}
	comps[1].tuple[3] = s("F") // the caller's tuples are copied
	grades := got.Root().Children(university.Grades)
	if g, _ := grades[0].Get(om, "Grade"); g.MustString() != "A" {
		t.Fatalf("the instance shares the caller's tuple: Grade = %s", g)
	}
	grades[0].MustAddChild(om, university.Student, reldb.Tuple{i(2), s("MS"), i(1)})
	if st := grades[1].Children(university.Student); len(st) != 1 || !st[0].Value(0).Equal(i(4)) {
		t.Fatalf("AddChild on one grade changed its neighbour's students: %v", st)
	}
	if err := grades[0].SetAttr(om, "Grade", s("C")); err != nil {
		t.Fatal(err)
	}
	if g, _ := grades[1].Get(om, "Grade"); g.MustString() != "B" {
		t.Fatalf("SetAttr on one grade rewrote its neighbour: Grade = %s", g)
	}

	bad := func(edit func([]component) []component) error {
		c := append([]component(nil), comps...)
		_, err := buildFrom(om, edit(c))
		return err
	}
	_, wantErr := want.Root().AddChild(om, university.Grades, reldb.Tuple{s("CS999"), s("x"), reldb.Null(), reldb.Null()})
	for name, edit := range map[string]func([]component) []component{
		"bad tuple, then another": func(c []component) []component {
			c[1] = component{university.Grades, 0, reldb.Tuple{s("CS999"), s("x"), reldb.Null(), reldb.Null()}}
			c[3] = component{university.Department, 0, reldb.Tuple{i(1)}}
			return c
		},
		"no pivot first":         func(c []component) []component { return c[1:] },
		"parent after its child": func(c []component) []component { c[2].parent = 5; return c },
		"not a child of its parent": func(c []component) []component {
			c[2].parent = 0
			return c
		},
		"none": func([]component) []component { return nil },
	} {
		err := bad(edit)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if name == "bad tuple, then another" && err.Error() != wantErr.Error() {
			t.Errorf("%s: %v, want AddChild's %v", name, err, wantErr)
		}
	}
}
