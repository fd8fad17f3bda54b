package reldb

import (
	"fmt"
	"strings"
	"testing"
)

func TestCreateIndexServesNextLookup(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateRelation(gradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	for pid := int64(1); pid <= 3; pid++ {
		if err := db.RunInTx(func(tx *Tx) error { return tx.Insert("GRADES", grade("CS101", pid, "A")) }); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(rel *Relation, want string) []Tuple {
		t.Helper()
		var st MatchStats
		out, err := rel.MatchEqualStats([]string{"Grade"}, Tuple{String("A")}, &st)
		if err != nil {
			t.Fatal(err)
		}
		if got := map[bool]string{true: "scan", false: "probe"}[st.Scans == 1]; got != want || st.Scans+st.Probes != 1 {
			t.Fatalf("lookup stats %+v, want one %s", st, want)
		}
		return out
	}
	before := lookup(db.MustRelation("GRADES"), "scan")
	if len(before) != 3 {
		t.Fatalf("pre-index lookup = %d rows, want 3", len(before))
	}
	pinned := db.BeginRead()
	defer pinned.Close()

	// Index DDL in a transaction; the insert publishes the version.
	if err := db.RunInTx(func(tx *Tx) error {
		r, err := tx.Relation("GRADES")
		if err != nil {
			return err
		}
		if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
			return err
		}
		return tx.Insert("GRADES", grade("CS101", 4, "B"))
	}); err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "post-index lookup", lookup(db.MustRelation("GRADES"), "probe"), before)
	// The version pinned before the DDL has no index: it still scans, and
	// answers as it did.
	sameTuples(t, "pinned lookup", lookup(pinned.MustRelation("GRADES"), "scan"), before)
}

// TestMatchEqualAttributeListsDoNotCollide: two attribute lists whose
// names, joined with a separator that may occur inside a name, spell the
// same string must still resolve to their own attributes.
func TestMatchEqualAttributeListsDoNotCollide(t *testing.T) {
	s, err := NewSchema("R", []Attribute{
		{Name: "id", Type: KindInt},
		{Name: "a", Type: KindInt},
		{Name: "b\x1fc", Type: KindInt},
		{Name: "a\x1fb", Type: KindInt},
		{Name: "c", Type: KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	first, second := []string{"a", "b\x1fc"}, []string{"a\x1fb", "c"}
	row1 := Tuple{Int(1), Int(1), Int(2), Int(0), Int(0)}
	row2 := Tuple{Int(2), Int(0), Int(0), Int(1), Int(2)}
	vals := Tuple{Int(1), Int(2)}
	fresh := func() *Relation {
		r := NewRelation(s)
		for _, tu := range []Tuple{row1, row2} {
			if err := r.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}

	r := fresh()
	for _, c := range []struct {
		attrs []string
		want  Tuple
	}{{first, row1}, {second, row2}} {
		got, err := r.MatchEqual(c.attrs, vals)
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, fmt.Sprintf("MatchEqual %q", c.attrs), got, []Tuple{c.want})
	}

	r = fresh()
	for _, c := range []struct {
		attrs []string
		want  Tuple
	}{{first, row1}, {second, row2}} {
		got, err := r.MatchEqualBatch(c.attrs, []Tuple{vals})
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, fmt.Sprintf("MatchEqualBatch %q", c.attrs), got[EncodeValues(vals...)], []Tuple{c.want})
	}
}

// TestSelectParallelError: a predicate that fails part-way through a
// relation tall enough to span many tree nodes yields the error and a nil
// result, never the prefix selected before the failing row.
func TestSelectParallelError(t *testing.T) {
	r := newGradesRel(t)
	for i := 0; i < 512; i++ {
		g := "A"
		if i == 400 {
			g = "B"
		}
		if err := r.Insert(grade("CS101", int64(i), g)); err != nil {
			t.Fatal(err)
		}
	}
	// Or stops at its first true term, so only the "B" row reaches the
	// missing attribute.
	bad := Or{Terms: []Expr{Eq("Grade", String("A")), Eq("NoSuchAttr", Int(1))}}
	out, err := r.Select(bad)
	if err == nil {
		t.Fatal("expected predicate error")
	}
	if out != nil {
		t.Fatalf("errored Select returned %d tuples, want nil", len(out))
	}
}

func TestEqConjunction(t *testing.T) {
	attrs, vals, ok := EqConjunction(Eq("Grade", String("A")))
	if !ok || len(attrs) != 1 || attrs[0] != "Grade" || !vals[0].Equal(String("A")) {
		t.Fatalf("single eq: %v %v %v", attrs, vals, ok)
	}
	// Reversed operand order and conjunction.
	attrs, vals, ok = EqConjunction(And{Terms: []Expr{
		Cmp{Op: OpEq, L: Const{V: String("CS101")}, R: Attr{Name: "CourseID"}},
		Eq("PID", Int(1)),
	}})
	if !ok || strings.Join(attrs, ",") != "CourseID,PID" || !vals[1].Equal(Int(1)) {
		t.Fatalf("conjunction: %v %v %v", attrs, vals, ok)
	}
	for _, pred := range []Expr{
		Cmp{Op: OpLt, L: Attr{Name: "PID"}, R: Const{V: Int(1)}},         // not equality
		Cmp{Op: OpEq, L: Attr{Name: "A"}, R: Attr{Name: "B"}},            // attr = attr
		Cmp{Op: OpEq, L: Attr{Rel: "R", Name: "A"}, R: Const{V: Int(1)}}, // qualified
		And{Terms: []Expr{Eq("A", Int(1)), Not{E: Eq("B", Int(2))}}},     // nested structure
		Or{Terms: []Expr{Eq("A", Int(1))}},                               // not a conjunction
		And{},                                                            // empty
	} {
		if _, _, ok := EqConjunction(pred); ok {
			t.Fatalf("EqConjunction(%v) should be false", pred)
		}
	}
}

func TestProbeableEqual(t *testing.T) {
	s, err := NewSchema("MIX",
		[]Attribute{
			{Name: "ID", Type: KindInt},
			{Name: "Score", Type: KindFloat},
			{Name: "Tag", Type: KindString, Nullable: true},
		},
		[]string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation(s)
	if err := r.CreateIndex("byTag", []string{"Tag"}); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("byScore", []string{"Score"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		attrs []string
		vals  Tuple
		want  bool
	}{
		{"key point", []string{"ID"}, Tuple{Int(7)}, true},
		{"indexed string", []string{"Tag"}, Tuple{String("x")}, true},
		{"float attr never probes", []string{"Score"}, Tuple{Float(1.5)}, false},
		{"kind mismatch", []string{"ID"}, Tuple{Float(7)}, false},
		{"null constant", []string{"Tag"}, Tuple{Null()}, false},
		{"no access path", []string{"ID", "Tag"}, Tuple{Int(7), String("x")}, false},
		{"unknown attr", []string{"Nope"}, Tuple{Int(1)}, false},
		{"duplicate attr", []string{"Tag", "Tag"}, Tuple{String("x"), String("x")}, false},
	}
	for _, c := range cases {
		if got := r.ProbeableEqual(c.attrs, c.vals); got != c.want {
			t.Errorf("%s: ProbeableEqual = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFloatProbeSemantics documents why ProbeableEqual refuses Float
// attributes: a Float column may store Int values (kindAssignable),
// which compare equal to a Float constant under scan semantics but
// encode differently, so an index probe would miss them.
func TestFloatProbeSemantics(t *testing.T) {
	s, err := NewSchema("F",
		[]Attribute{{Name: "ID", Type: KindInt}, {Name: "V", Type: KindFloat}},
		[]string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation(s)
	if err := r.Insert(Tuple{Int(1), Int(5)}); err != nil { // Int into Float column
		t.Fatal(err)
	}
	got, err := r.Select(Eq("V", Float(5)))
	if err != nil || len(got) != 1 {
		t.Fatalf("scan Select = %v, %v; want the Int-valued row (Compare is numeric)", got, err)
	}
	if r.ProbeableEqual([]string{"V"}, Tuple{Float(5)}) {
		t.Fatal("ProbeableEqual must refuse the Float column")
	}
}

// TestMatchEqualErrorsLeaveLookupsWorking: a rejected lookup leaves
// nothing behind — a valid one after it works, and the same invalid one
// is rejected again.
func TestMatchEqualErrorsLeaveLookupsWorking(t *testing.T) {
	r := newGradesRel(t)
	if _, err := r.MatchEqual([]string{"CourseID", "CourseID"}, Tuple{String("a"), String("a")}); err == nil {
		t.Fatal("duplicate attribute should error")
	}
	if _, err := r.MatchEqual([]string{"Grade"}, Tuple{Int(5)}); err == nil {
		t.Fatal("kind mismatch should error")
	}
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	out, err := r.MatchEqual([]string{"Grade"}, Tuple{String("A")})
	if err != nil || len(out) != 1 {
		t.Fatalf("valid lookup after errors = %v, %v", out, err)
	}
	if _, err := r.MatchEqual([]string{"Grade"}, Tuple{Int(5)}); err == nil {
		t.Fatal("kind mismatch should still error after a valid lookup")
	}
}
