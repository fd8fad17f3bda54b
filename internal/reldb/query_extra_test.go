package reldb

import (
	"strings"
	"testing"
)

func TestQualifyPlan(t *testing.T) {
	db := testDB(t)
	rs := chain(t, db, "COURSES")
	if _, ok := rs.Schema.AttrIndex("COURSES.CourseID"); !ok {
		t.Fatalf("qualified attr missing: %v", rs.Schema.AttrNames())
	}
	if !rs.Schema.IsKeyName("COURSES.CourseID") {
		t.Fatal("key should stay the key after qualification")
	}
	if rs.Len() != 4 {
		t.Fatalf("rows = %d", rs.Len())
	}
	// Already-qualified attributes are kept.
	db.MustCreateRelation(MustSchema("D", []Attribute{{Name: "C.CourseID", Type: KindString}}, []string{"C.CourseID"}))
	if rs := chain(t, db, "D"); rs.Schema.AttrNames()[0] != "C.CourseID" {
		t.Fatalf("double qualification rewrote names: %v", rs.Schema.AttrNames())
	}
}

// The primary-key fast path of MatchEqual must agree with the scan path,
// including when key attributes are given in non-canonical order.
func TestMatchEqualPrimaryKeyFastPath(t *testing.T) {
	r := NewRelation(MustSchema("G", []Attribute{
		{Name: "A", Type: KindString},
		{Name: "B", Type: KindInt},
		{Name: "V", Type: KindString, Nullable: true},
	}, []string{"A", "B"}))
	_ = r.Insert(Tuple{String("x"), Int(1), String("v1")})
	_ = r.Insert(Tuple{String("x"), Int(2), String("v2")})
	_ = r.Insert(Tuple{String("y"), Int(1), String("v3")})

	// Canonical order.
	got, err := r.MatchEqual([]string{"A", "B"}, Tuple{String("x"), Int(2)})
	if err != nil || len(got) != 1 || got[0].At(2).MustString() != "v2" {
		t.Fatalf("fast path = %v, %v", got, err)
	}
	// Reversed order: values follow the attribute list.
	got, err = r.MatchEqual([]string{"B", "A"}, Tuple{Int(1), String("y")})
	if err != nil || len(got) != 1 || got[0].At(2).MustString() != "v3" {
		t.Fatalf("reversed fast path = %v, %v", got, err)
	}
	// Miss.
	got, err = r.MatchEqual([]string{"A", "B"}, Tuple{String("z"), Int(9)})
	if err != nil || len(got) != 0 {
		t.Fatalf("miss = %v, %v", got, err)
	}
	// Proper key subset still scans (A alone is not the key).
	got, err = r.MatchEqual([]string{"A"}, Tuple{String("x")})
	if err != nil || len(got) != 2 {
		t.Fatalf("subset scan = %v, %v", got, err)
	}
}

func TestJoinSchemaNameAndKeys(t *testing.T) {
	db := testDB(t)
	rs := chain(t, db, "COURSES", gradesJoin(false))
	if !strings.Contains(rs.Schema.Name(), "*") {
		t.Fatalf("joined schema name = %q", rs.Schema.Name())
	}
	// Joined key is the union of both keys.
	keys := rs.Schema.KeyNames()
	want := map[string]bool{"COURSES.CourseID": true, "GRADES.CourseID": true, "GRADES.PID": true}
	if len(keys) != len(want) {
		t.Fatalf("joined keys = %v", keys)
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("unexpected joined key %s", k)
		}
	}
}
