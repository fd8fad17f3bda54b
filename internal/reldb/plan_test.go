package reldb

import (
	"fmt"
	"strings"
	"testing"

	"penguin/internal/obs"
)

// planCounts reads the plan-cache counters from the Default registry.
func planCounts() (lookups, hits, misses, invalidations int64) {
	s := obs.Capture()
	return s.Counter("reldb.plancache.lookups"),
		s.Counter("reldb.plancache.hits"),
		s.Counter("reldb.plancache.misses"),
		s.Counter("reldb.plancache.invalidations")
}

func TestPlanCacheHitMissAccounting(t *testing.T) {
	r := newGradesRel(t)
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	l0, h0, m0, _ := planCounts()

	// First lookup on a fresh attr set: one lookup, one miss.
	if _, err := r.MatchEqual([]string{"Grade"}, Tuple{String("A")}); err != nil {
		t.Fatal(err)
	}
	l, h, m, _ := planCounts()
	if l-l0 != 1 || h-h0 != 0 || m-m0 != 1 {
		t.Fatalf("after first lookup: lookups+%d hits+%d misses+%d, want +1/+0/+1", l-l0, h-h0, m-m0)
	}

	// Repeats hit: every access path kind caches (index, point, scan).
	for i := 0; i < 3; i++ {
		if _, err := r.MatchEqual([]string{"Grade"}, Tuple{String("A")}); err != nil {
			t.Fatal(err)
		}
	}
	l, h, m, _ = planCounts()
	if l-l0 != 4 || h-h0 != 3 || m-m0 != 1 {
		t.Fatalf("after repeats: lookups+%d hits+%d misses+%d, want +4/+3/+1", l-l0, h-h0, m-m0)
	}

	// A different attr set is its own entry; the batch family shares the
	// cache but keys by its own call site attr list.
	if _, err := r.MatchEqual([]string{"CourseID", "PID"}, Tuple{String("CS101"), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MatchEqualBatch([]string{"Grade"}, []Tuple{{String("A")}}); err != nil {
		t.Fatal(err)
	}
	l, h, m, _ = planCounts()
	if l-l0 != 6 || h-h0 != 4 || m-m0 != 2 {
		t.Fatalf("after point+batch: lookups+%d hits+%d misses+%d, want +6/+4/+2", l-l0, h-h0, m-m0)
	}
	if l-l0 != (h-h0)+(m-m0) {
		t.Fatalf("lookups %d != hits %d + misses %d", l-l0, h-h0, m-m0)
	}

	// Errors count nothing.
	if _, err := r.MatchEqual([]string{"NoSuchAttr"}, Tuple{Int(1)}); err == nil {
		t.Fatal("expected error for unknown attribute")
	}
	if l2, h2, m2, _ := planCounts(); l2 != l || h2 != h || m2 != m {
		t.Fatalf("error changed counters: lookups %d->%d hits %d->%d misses %d->%d", l, l2, h, h2, m, m2)
	}
}

func TestPlanCacheInvalidatedByIndexDDL(t *testing.T) {
	r := newGradesRel(t)
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	// Cache a scan plan for Grade, then create a covering index: the old
	// plan must not survive, or the lookup would keep scanning forever.
	var st MatchStats
	if _, err := r.MatchEqualStats([]string{"Grade"}, Tuple{String("A")}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Scans != 1 {
		t.Fatalf("pre-index lookup should scan, stats = %+v", st)
	}
	_, _, _, i0 := planCounts()
	if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, i := planCounts(); i-i0 != 1 {
		t.Fatalf("CreateIndex invalidations +%d, want +1", i-i0)
	}
	st = MatchStats{}
	if _, err := r.MatchEqualStats([]string{"Grade"}, Tuple{String("A")}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Probes != 1 || st.Scans != 0 {
		t.Fatalf("post-index lookup should probe, stats = %+v", st)
	}

	// DropIndex likewise purges; the next lookup replans to a scan.
	_, _, _, i0 = planCounts()
	if err := r.DropIndex("byGrade"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, i := planCounts(); i-i0 != 1 {
		t.Fatalf("DropIndex invalidations +%d, want +1", i-i0)
	}
	st = MatchStats{}
	if _, err := r.MatchEqualStats([]string{"Grade"}, Tuple{String("A")}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Scans != 1 {
		t.Fatalf("post-drop lookup should scan, stats = %+v", st)
	}
}

// TestPlanCacheSurvivesCommit: versions of a relation share one plan
// cache, so a commit neither cools its readers' plans nor makes the next
// version resolve them again; index DDL gives the version that ran it a
// fresh cache and leaves the one a pinned reader still uses alone.
func TestPlanCacheSurvivesCommit(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateRelation(gradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	insert := func(pid int64) {
		t.Helper()
		if err := db.RunInTx(func(tx *Tx) error { return tx.Insert("GRADES", grade("CS101", pid, "A")) }); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(rel *Relation, want int) {
		t.Helper()
		if out, err := rel.MatchEqual([]string{"Grade"}, Tuple{String("A")}); err != nil || len(out) != want {
			t.Fatalf("lookup = %v, %v; want %d tuples", out, err, want)
		}
	}
	insert(1)
	rel := db.MustRelation("GRADES")
	lookup(rel, 1)
	_, h0, m0, i0 := planCounts()
	for pid := int64(2); pid <= 10; pid++ {
		insert(pid)
	}
	rel2 := db.MustRelation("GRADES")
	if rel2 == rel {
		t.Fatal("commit should have published a new relation version")
	}
	lookup(rel2, 10)
	lookup(rel, 1) // the pinned version reads its own rows through the shared plan
	if _, h, m, i := planCounts(); h-h0 != 2 || m != m0 || i != i0 {
		t.Fatalf("after 9 commits: hits+%d misses+%d invalidations+%d, want +2/+0/+0", h-h0, m-m0, i-i0)
	}

	// Index DDL in a transaction: the new version plans afresh (and now
	// probes the index), the pinned one keeps its scan plan.
	if err := db.RunInTx(func(tx *Tx) error {
		r, err := tx.Relation("GRADES")
		if err != nil {
			return err
		}
		if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
			return err
		}
		return tx.Insert("GRADES", grade("CS101", 11, "B")) // a write publishes the version
	}); err != nil {
		t.Fatal(err)
	}
	var st MatchStats
	if _, err := db.MustRelation("GRADES").MatchEqualStats([]string{"Grade"}, Tuple{String("A")}, &st); err != nil || st.Probes != 1 {
		t.Fatalf("post-DDL version: stats %+v, %v; want an index probe", st, err)
	}
	if _, _, m, i := planCounts(); m-m0 != 1 || i-i0 != 1 {
		t.Fatalf("index DDL: misses+%d invalidations+%d, want +1/+1", m-m0, i-i0)
	}
	st = MatchStats{}
	if _, err := rel.MatchEqualStats([]string{"Grade"}, Tuple{String("A")}, &st); err != nil || st.Scans != 1 {
		t.Fatalf("pinned version: stats %+v, %v; want its old scan plan", st, err)
	}
}

func TestSelectParallelMatchesSelect(t *testing.T) {
	r := newGradesRel(t)
	// Enough rows to clear selectParallelMinRows.
	for i := 0; i < selectParallelMinRows+100; i++ {
		g := "A"
		if i%3 == 0 {
			g = "B"
		}
		if err := r.Insert(grade(fmt.Sprintf("CS%03d", i%7), int64(i), g)); err != nil {
			t.Fatal(err)
		}
	}
	for _, pred := range []Expr{
		nil,
		Eq("Grade", String("B")),
		Cmp{Op: OpGt, L: Attr{Name: "PID"}, R: Const{V: Int(400)}},
	} {
		want, err := r.Select(pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, err := r.SelectParallel(pred, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("pred=%v workers=%d: %d tuples, want %d", pred, workers, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("pred=%v workers=%d: tuple %d = %v, want %v (order must match Select)",
						pred, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSelectParallelChunkShapes sweeps row counts whose rounded-up chunk
// size overshoots the row set in every way up to 8 workers allow: no
// shape may panic or differ from Select.
func TestSelectParallelChunkShapes(t *testing.T) {
	r := newGradesRel(t)
	rows := 0
	for n := selectParallelMinRows + 4; n <= selectParallelMinRows+33; n++ {
		for ; rows < n; rows++ {
			if err := r.Insert(grade("CS101", int64(rows), "A")); err != nil {
				t.Fatal(err)
			}
		}
		want, err := r.Select(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got, err := r.SelectParallel(nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("rows=%d workers=%d: %d tuples, want %d", n, workers, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("rows=%d workers=%d: tuple %d = %v, want %v", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSelectParallelError(t *testing.T) {
	r := newGradesRel(t)
	for i := 0; i < selectParallelMinRows; i++ {
		if err := r.Insert(grade("CS101", int64(i), "A")); err != nil {
			t.Fatal(err)
		}
	}
	bad := Eq("NoSuchAttr", Int(1))
	out, err := r.SelectParallel(bad, 4)
	if err == nil {
		t.Fatal("expected predicate error")
	}
	if out != nil {
		t.Fatalf("errored SelectParallel returned %d tuples, want nil", len(out))
	}
	want, wantErr := r.Select(bad)
	if want != nil || wantErr == nil {
		t.Fatal("Select baseline should also error with nil result")
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("error %q, want Select's %q", err, wantErr)
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

func TestMatchEqualErrorsUnchangedByPlanCache(t *testing.T) {
	r := newGradesRel(t)
	if _, err := r.MatchEqual([]string{"CourseID", "CourseID"}, Tuple{String("a"), String("a")}); err == nil {
		t.Fatal("duplicate attribute should error")
	}
	if _, err := r.MatchEqual([]string{"Grade"}, Tuple{Int(5)}); err == nil {
		t.Fatal("kind mismatch should error")
	}
	// The error paths must not poison the cache: a valid lookup after an
	// invalid one still works.
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	out, err := r.MatchEqual([]string{"Grade"}, Tuple{String("A")})
	if err != nil || len(out) != 1 {
		t.Fatalf("valid lookup after errors = %v, %v", out, err)
	}
	if _, err := r.MatchEqual([]string{"Grade"}, Tuple{Int(5)}); err == nil {
		t.Fatal("kind mismatch should still error on a cached plan")
	}
}
