package reldb

import (
	"fmt"
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
	lookup := func(rel *Relation, want string) []Row {
		t.Helper()
		var st MatchStats
		out, err := matchStats(rel, []string{"Grade"}, Tuple{String("A")}, &st)
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
	sameTuples(t, "post-index lookup", lookup(db.MustRelation("GRADES"), "probe"), tuplesOf(before))
	// The version pinned before the DDL has no index: it still scans, and
	// answers as it did.
	sameTuples(t, "pinned lookup", lookup(pinned.MustRelation("GRADES"), "scan"), tuplesOf(before))
}

// TestIndexOnlyTxPublishesIndex: a transaction whose only change is an
// index publishes it — the next lookup probes — under the generation the
// relation already had, and leaves a snapshot pinned before it scanning.
func TestIndexOnlyTxPublishesIndex(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateRelation(gradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.RunInTx(func(tx *Tx) error { return tx.Insert("GRADES", grade("CS101", 1, "A")) }); err != nil {
		t.Fatal(err)
	}
	gen := db.Generation()
	pinned := db.BeginRead()
	defer pinned.Close()
	if err := db.RunInTx(func(tx *Tx) error {
		r, err := tx.Relation("GRADES")
		if err != nil {
			return err
		}
		return r.CreateIndex("byGrade", []string{"Grade"})
	}); err != nil {
		t.Fatal(err)
	}
	rel := db.MustRelation("GRADES")
	if got := rel.IndexNames(); len(got) != 1 || got[0] != "byGrade" {
		t.Fatalf("indexes after an index-only transaction = %v, want [byGrade]", got)
	}
	if db.Generation() != gen || rel.Generation() != gen {
		t.Fatalf("generation %d (relation %d), want %d: an index advances none", db.Generation(), rel.Generation(), gen)
	}
	for _, c := range []struct {
		rel   *Relation
		stats MatchStats
	}{{rel, MatchStats{Probes: 1, Scanned: 1}}, {pinned.MustRelation("GRADES"), MatchStats{Scans: 1, Scanned: 1}}} {
		var st MatchStats
		out, err := matchStats(c.rel, []string{"Grade"}, Tuple{String("A")}, &st)
		if err != nil || len(out) != 1 || st != c.stats {
			t.Fatalf("lookup = %d rows, %v charging %+v; want 1 row charging %+v", len(out), err, st, c.stats)
		}
	}
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
		got, err := matchBatch(r, c.attrs, []Tuple{vals}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, fmt.Sprintf("MatchEqualBatchAt %q", c.attrs), got[0], []Tuple{c.want})
	}
}

// TestSelectErrorPartWayReturnsNil: a predicate that fails part-way through a
// relation tall enough to span many tree nodes yields the error and a nil
// result, never the prefix selected before the failing row.
func TestSelectErrorPartWayReturnsNil(t *testing.T) {
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
