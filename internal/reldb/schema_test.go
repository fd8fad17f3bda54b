package reldb

import (
	"strings"
	"testing"
)

func deptSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("DEPARTMENT",
		[]Attribute{
			{Name: "DeptName", Type: KindString},
			{Name: "Building", Type: KindString, Nullable: true},
			{Name: "Budget", Type: KindFloat, Nullable: true},
		},
		[]string{"DeptName"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func gradesSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("GRADES",
		[]Attribute{
			{Name: "CourseID", Type: KindString},
			{Name: "PID", Type: KindInt},
			{Name: "Grade", Type: KindString, Nullable: true},
		},
		[]string{"CourseID", "PID"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	attr := []Attribute{{Name: "A", Type: KindInt}}
	cases := []struct {
		name    string
		n       string
		attrs   []Attribute
		key     []string
		wantErr string
	}{
		{"empty name", "", attr, []string{"A"}, "needs a name"},
		{"no attrs", "R", nil, []string{"A"}, "at least one attribute"},
		{"empty attr name", "R", []Attribute{{Name: "", Type: KindInt}}, []string{"A"}, "empty name"},
		{"null type", "R", []Attribute{{Name: "A", Type: KindNull}}, []string{"A"}, "null type"},
		{"dup attr", "R", []Attribute{{Name: "A", Type: KindInt}, {Name: "A", Type: KindInt}}, []string{"A"}, "duplicate attribute"},
		{"no key", "R", attr, nil, "nonempty key"},
		{"unknown key", "R", attr, []string{"B"}, "not in schema"},
		{"dup key", "R", []Attribute{{Name: "A", Type: KindInt}, {Name: "B", Type: KindInt}}, []string{"A", "A"}, "duplicate key"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.n, c.attrs, c.key)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := gradesSchema(t)
	if s.Name() != "GRADES" || s.Arity() != 3 {
		t.Fatalf("name/arity: %s/%d", s.Name(), s.Arity())
	}
	if got := s.AttrNames(); strings.Join(got, ",") != "CourseID,PID,Grade" {
		t.Fatalf("AttrNames = %v", got)
	}
	if got := s.KeyNames(); strings.Join(got, ",") != "CourseID,PID" {
		t.Fatalf("KeyNames = %v", got)
	}
	if i, ok := s.AttrIndex("PID"); !ok || i != 1 {
		t.Fatalf("AttrIndex(PID) = %d,%v", i, ok)
	}
	if _, ok := s.AttrIndex("Nope"); ok {
		t.Fatal("AttrIndex(Nope) should fail")
	}
	if !s.IsKeyAttr(0) || !s.IsKeyAttr(1) || s.IsKeyAttr(2) {
		t.Fatal("IsKeyAttr wrong")
	}
	if s.IsKeyAttr(-1) || s.IsKeyAttr(10) {
		t.Fatal("IsKeyAttr out of range should be false")
	}
	if !s.IsKeyName("CourseID") || s.IsKeyName("Grade") || s.IsKeyName("Nope") {
		t.Fatal("IsKeyName wrong")
	}
}

func TestKeyOrderIsCanonical(t *testing.T) {
	// Keys are stored in declaration order regardless of the order given
	// to NewSchema, so encodings are canonical.
	s1 := MustSchema("R",
		[]Attribute{{Name: "A", Type: KindInt}, {Name: "B", Type: KindInt}},
		[]string{"B", "A"})
	if got := strings.Join(s1.KeyNames(), ","); got != "A,B" {
		t.Fatalf("KeyNames = %v, want declaration order", got)
	}
}

func TestCheckTuple(t *testing.T) {
	s := gradesSchema(t)
	ok := Tuple{String("CS101"), Int(7), String("A")}
	if err := s.CheckTuple(ok); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	if err := s.CheckTuple(Tuple{String("CS101"), Int(7), Null()}); err != nil {
		t.Fatalf("nullable null rejected: %v", err)
	}
	cases := []struct {
		name string
		tup  Tuple
		want string
	}{
		{"arity", Tuple{String("CS101")}, "arity"},
		{"null key", Tuple{Null(), Int(7), Null()}, "key attribute"},
		{"kind", Tuple{String("CS101"), String("x"), Null()}, "kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := s.CheckTuple(c.tup)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want containing %q", err, c.want)
			}
		})
	}
	// Non-nullable non-key null.
	s2 := MustSchema("R", []Attribute{
		{Name: "A", Type: KindInt},
		{Name: "B", Type: KindInt}, // not nullable
	}, []string{"A"})
	if err := s2.CheckTuple(Tuple{Int(1), Null()}); err == nil {
		t.Fatal("non-nullable null accepted")
	}
}

func TestIntAssignableToFloat(t *testing.T) {
	s := deptSchema(t)
	tup := Tuple{String("CS"), Null(), Int(100)} // int into float attr
	if err := s.CheckTuple(tup); err != nil {
		t.Fatalf("int should be assignable to float attr: %v", err)
	}
}

func TestKeyOfAndEncode(t *testing.T) {
	s := gradesSchema(t)
	tup := Tuple{String("CS101"), Int(7), String("A")}
	key := s.KeyOf(tup)
	if !key.Equal(Tuple{String("CS101"), Int(7)}) {
		t.Fatalf("KeyOf = %v", key)
	}
	enc1 := s.EncodeKeyOf(tup)
	enc2, err := s.EncodeKey(key)
	if err != nil || enc1 != enc2 {
		t.Fatalf("EncodeKey mismatch: %v", err)
	}
	if _, err := s.EncodeKey(Tuple{String("CS101")}); err == nil {
		t.Fatal("EncodeKey with wrong arity should fail")
	}
}

func TestIndices(t *testing.T) {
	s := gradesSchema(t)
	idx, err := s.Indices([]string{"Grade", "CourseID"})
	if err != nil || idx[0] != 2 || idx[1] != 0 {
		t.Fatalf("Indices = %v, %v", idx, err)
	}
	if _, err := s.Indices([]string{"Nope"}); err == nil {
		t.Fatal("Indices unknown attr should fail")
	}
}

func TestSchemaString(t *testing.T) {
	s := gradesSchema(t)
	str := s.String()
	for _, want := range []string{"GRADES(", "CourseID string", "Grade string null", "key(CourseID, PID)"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestSchemaRename(t *testing.T) {
	s := gradesSchema(t)
	r := s.Rename("G2")
	if r.Name() != "G2" || s.Name() != "GRADES" {
		t.Fatal("Rename should copy")
	}
	if r.Arity() != s.Arity() {
		t.Fatal("Rename changed arity")
	}
}

func TestProjectSchema(t *testing.T) {
	s := gradesSchema(t)
	// Key survives: projection contains whole key.
	p, err := s.ProjectSchema("P", []string{"CourseID", "PID"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.KeyNames(), ","); got != "CourseID,PID" {
		t.Fatalf("projected key = %v", got)
	}
	// Key lost: all projected attrs become the key.
	p2, err := s.ProjectSchema("P2", []string{"CourseID", "Grade"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p2.KeyNames(), ","); got != "CourseID,Grade" {
		t.Fatalf("fallback key = %v", got)
	}
	if _, err := s.ProjectSchema("P3", []string{"Nope"}); err == nil {
		t.Fatal("projecting unknown attr should fail")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema("", nil, nil)
}
