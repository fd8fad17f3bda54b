package rql

import (
	"fmt"
	"strings"
	"testing"

	"penguin/internal/reldb"
)

// must returns an operator's result, failing the test on its error:
// must(t)(sortRows(…)).
func must(t *testing.T) func(*reldb.ResultSet, error) *reldb.ResultSet {
	return func(rs *reldb.ResultSet, err error) *reldb.ResultSet {
		t.Helper()
		if err != nil {
			t.Fatalf("operator failed: %v", err)
		}
		return rs
	}
}

// scan is the ResultSet of every row of r.
func scan(r *reldb.Relation) *reldb.ResultSet {
	return &reldb.ResultSet{Schema: r.Schema(), Rows: r.All()}
}

// plansDB builds a two-relation database:
//
//	COURSES(CourseID, Title, Dept, Units)
//	GRADES(CourseID, PID, Grade)
func plansDB(t *testing.T) *reldb.Database {
	t.Helper()
	db := reldb.NewDatabase()
	courses := db.MustCreateRelation(reldb.MustSchema("COURSES", []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "Title", Type: reldb.KindString, Nullable: true},
		{Name: "Dept", Type: reldb.KindString, Nullable: true},
		{Name: "Units", Type: reldb.KindInt, Nullable: true},
	}, []string{"CourseID"}))
	grades := db.MustCreateRelation(reldb.MustSchema("GRADES", []reldb.Attribute{
		{Name: "CourseID", Type: reldb.KindString},
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Grade", Type: reldb.KindString, Nullable: true},
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
		if err := courses.Insert(reldb.Tuple{reldb.String(c.id), reldb.String(c.title), reldb.String(c.dept), reldb.Int(c.units)}); err != nil {
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
		if err := grades.Insert(reldb.Tuple{reldb.String(g.id), reldb.Int(g.pid), reldb.String(g.grade)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSort(t *testing.T) {
	db := plansDB(t)
	courses := scan(db.MustRelation("COURSES"))
	rs := must(t)(sortRows(courses, []string{"Units", "CourseID"}, false))
	var got []string
	for i := 0; i < rs.Len(); i++ {
		got = append(got, get(t, rs, i, "CourseID").MustString())
	}
	want := "CS101,EE201,CS345,ME301"
	if strings.Join(got, ",") != want {
		t.Fatalf("sort order = %v, want %s", got, want)
	}
	rs = must(t)(sortRows(courses, []string{"Units", "CourseID"}, true))
	if first := get(t, rs, 0, "CourseID").MustString(); first != "ME301" {
		t.Fatalf("desc first = %s", first)
	}
	if _, err := sortRows(courses, []string{"Nope"}, false); err == nil {
		t.Fatal("sort by unknown attr should fail")
	}
}

func TestDistinct(t *testing.T) {
	db := plansDB(t)
	rs := distinct(must(t)(scan(db.MustRelation("COURSES")).Project([]string{"Dept"})))
	if rs.Len() != 3 {
		t.Fatalf("distinct depts = %d, want 3", rs.Len())
	}
}

func TestLimit(t *testing.T) {
	db := plansDB(t)
	courses := scan(db.MustRelation("COURSES"))
	rs := limit(courses, 2)
	if rs.Len() != 2 {
		t.Fatalf("limit = %d", rs.Len())
	}
	rs = limit(courses, 100)
	if rs.Len() != 4 {
		t.Fatalf("limit beyond size = %d", rs.Len())
	}
}

func TestAggregateGrouped(t *testing.T) {
	db := plansDB(t)
	rs := must(t)(aggregate(scan(db.MustRelation("GRADES")), []string{"CourseID"}, []aggSpec{{Func: aggCount, As: "n"}}))
	counts := map[string]int64{}
	for i := 0; i < rs.Len(); i++ {
		row := rowGetter(t, rs, i)
		counts[row("CourseID").MustString()] = row("n").MustInt()
	}
	want := map[string]int64{"CS101": 3, "CS345": 2, "EE201": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("count[%s] = %d, want %d (all: %v)", k, counts[k], v, counts)
		}
	}
	if _, err := aggregate(scan(db.MustRelation("GRADES")), []string{"Nope"}, nil); err == nil {
		t.Fatal("group by unknown attr should fail")
	}
}

func TestAggregateGlobal(t *testing.T) {
	db := plansDB(t)
	rs := must(t)(aggregate(scan(db.MustRelation("COURSES")), nil, []aggSpec{
		{Func: aggCount, As: "n"},
		{Func: aggSum, Attr: "Units", As: "total"},
		{Func: aggMin, Attr: "Units", As: "lo"},
		{Func: aggMax, Attr: "Units", As: "hi"},
		{Func: aggAvg, Attr: "Units", As: "mean"},
	}))
	if rs.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", rs.Len())
	}
	row := rowGetter(t, rs, 0)
	if n := row("n").MustInt(); n != 4 {
		t.Fatalf("count = %d", n)
	}
	if tot, _ := row("total").AsInt(); tot != 14 {
		t.Fatalf("sum = %v", row("total"))
	}
	if lo, _ := row("lo").AsInt(); lo != 3 {
		t.Fatalf("min = %v", row("lo"))
	}
	if hi, _ := row("hi").AsInt(); hi != 4 {
		t.Fatalf("max = %v", row("hi"))
	}
	if mean, _ := row("mean").AsFloat(); mean != 3.5 {
		t.Fatalf("avg = %v", row("mean"))
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := reldb.NewDatabase()
	r := db.MustCreateRelation(reldb.MustSchema("E", []reldb.Attribute{
		{Name: "A", Type: reldb.KindInt},
	}, []string{"A"}))
	rs := must(t)(aggregate(scan(r), nil, []aggSpec{
		{Func: aggCount, As: "n"},
		{Func: aggSum, Attr: "A", As: "s"},
		{Func: aggAvg, Attr: "A", As: "m"},
	}))
	if rs.Len() != 1 {
		t.Fatalf("empty aggregate rows = %d, want 1", rs.Len())
	}
	row := rowGetter(t, rs, 0)
	if n := row("n").MustInt(); n != 0 {
		t.Fatalf("count over empty = %d", n)
	}
	if !row("s").IsNull() {
		t.Fatal("sum over empty should be null")
	}
	if !row("m").IsNull() {
		t.Fatal("avg over empty should be null")
	}
	// Grouped aggregate over empty input yields zero rows.
	if rs := must(t)(aggregate(scan(r), []string{"A"}, []aggSpec{{Func: aggCount, As: "n"}})); rs.Len() != 0 {
		t.Fatalf("grouped empty = %d rows", rs.Len())
	}
}

func TestAggregateNullsIgnored(t *testing.T) {
	db := reldb.NewDatabase()
	r := db.MustCreateRelation(reldb.MustSchema("N", []reldb.Attribute{
		{Name: "ID", Type: reldb.KindInt},
		{Name: "V", Type: reldb.KindInt, Nullable: true},
	}, []string{"ID"}))
	_ = r.Insert(reldb.Tuple{reldb.Int(1), reldb.Int(10)})
	_ = r.Insert(reldb.Tuple{reldb.Int(2), reldb.Null()})
	_ = r.Insert(reldb.Tuple{reldb.Int(3), reldb.Int(20)})
	rs := must(t)(aggregate(scan(r), nil, []aggSpec{
		{Func: aggCount, Attr: "V", As: "nv"},
		{Func: aggCount, As: "n"},
		{Func: aggAvg, Attr: "V", As: "m"},
	}))
	row := rowGetter(t, rs, 0)
	if nv := row("nv").MustInt(); nv != 2 {
		t.Fatalf("count(V) = %d, want 2", nv)
	}
	if n := row("n").MustInt(); n != 3 {
		t.Fatalf("count(*) = %d, want 3", n)
	}
	if m, _ := row("m").AsFloat(); m != 15 {
		t.Fatalf("avg(V) = %v, want 15", m)
	}
}

func TestAggregateDefaultNamesAndErrors(t *testing.T) {
	db := plansDB(t)
	courses := scan(db.MustRelation("COURSES"))
	rs := must(t)(aggregate(courses, nil, []aggSpec{{Func: aggCount}, {Func: aggMax, Attr: "Units"}}))
	if _, ok := rs.Schema.AttrIndex("count"); !ok {
		t.Fatalf("default count name missing: %v", rs.Schema.AttrNames())
	}
	if _, ok := rs.Schema.AttrIndex("max_Units"); !ok {
		t.Fatalf("default max name missing: %v", rs.Schema.AttrNames())
	}
	if _, err := aggregate(courses, nil, []aggSpec{{Func: aggSum, Attr: "Nope"}}); err == nil {
		t.Fatal("aggregate over unknown attr should fail")
	}
}

func TestComposedPipeline(t *testing.T) {
	// Figure-4-shaped query: courses with fewer than 3 grades.
	db := plansDB(t)
	agg := must(t)(aggregate(scan(db.MustRelation("GRADES")), []string{"CourseID"}, []aggSpec{{Func: aggCount, As: "n"}}))
	rs := must(t)(agg.Filter(reldb.Cmp{Op: reldb.OpLt, L: reldb.Attr{Name: "n"}, R: reldb.Const{V: reldb.Int(3)}}))
	ids := map[string]bool{}
	for i := 0; i < rs.Len(); i++ {
		ids[get(t, rs, i, "CourseID").MustString()] = true
	}
	if !ids["CS345"] || !ids["EE201"] || ids["CS101"] {
		t.Fatalf("pipeline result = %v", ids)
	}
}

func TestAggFuncString(t *testing.T) {
	want := map[aggFunc]string{aggCount: "count", aggSum: "sum", aggMin: "min", aggMax: "max", aggAvg: "avg"}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%v.String() = %q", f, f.String())
		}
	}
}

func Example_aggregatePlan() {
	db := reldb.NewDatabase()
	r := db.MustCreateRelation(reldb.MustSchema("T", []reldb.Attribute{
		{Name: "G", Type: reldb.KindString},
		{Name: "V", Type: reldb.KindInt},
	}, []string{"G", "V"}))
	_ = r.Insert(reldb.Tuple{reldb.String("a"), reldb.Int(1)})
	_ = r.Insert(reldb.Tuple{reldb.String("a"), reldb.Int(2)})
	_ = r.Insert(reldb.Tuple{reldb.String("b"), reldb.Int(5)})
	rs, _ := aggregate(scan(r), []string{"G"}, []aggSpec{{Func: aggSum, Attr: "V", As: "s"}})
	for i := 0; i < rs.Len(); i++ {
		fmt.Printf("%s=%s\n", rs.Rows[i].At(0), rs.Rows[i].At(1))
	}
	// Output:
	// a=3
	// b=5
}

// get returns the named attribute of row i of rs.
func get(t testing.TB, rs *reldb.ResultSet, i int, name string) reldb.Value {
	t.Helper()
	v, err := (reldb.Attr{Name: name}).Eval(rs.Schema, rs.Rows[i])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// rowGetter returns get for row i of rs.
func rowGetter(t testing.TB, rs *reldb.ResultSet, i int) func(name string) reldb.Value {
	return func(name string) reldb.Value { return get(t, rs, i, name) }
}
