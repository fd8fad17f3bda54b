package reldb

import (
	"fmt"
	"testing"
)

func TestRangeConjunction(t *testing.T) {
	lt := func(a string, v Value) Expr { return Cmp{Op: OpLt, L: Attr{Name: a}, R: Const{V: v}} }
	ge := func(a string, v Value) Expr { return Cmp{Op: OpGe, L: Attr{Name: a}, R: Const{V: v}} }

	// Single upper bound.
	attr, lo, hi, ok := RangeConjunction(lt("PID", Int(5)))
	if !ok || attr != "PID" || lo != nil || hi == nil || !hi.Strict || !hi.V.Equal(Int(5)) {
		t.Fatalf("PID < 5: attr=%q lo=%v hi=%v ok=%v", attr, lo, hi, ok)
	}

	// Constant on the left flips the side: 5 < PID is PID > 5.
	attr, lo, hi, ok = RangeConjunction(Cmp{Op: OpLt, L: Const{V: Int(5)}, R: Attr{Name: "PID"}})
	if !ok || attr != "PID" || hi != nil || lo == nil || !lo.Strict || !lo.V.Equal(Int(5)) {
		t.Fatalf("5 < PID: attr=%q lo=%v hi=%v ok=%v", attr, lo, hi, ok)
	}

	// Bounded range over one attribute.
	attr, lo, hi, ok = RangeConjunction(And{Terms: []Expr{ge("PID", Int(2)), lt("PID", Int(7))}})
	if !ok || attr != "PID" || lo == nil || lo.Strict || hi == nil || !hi.Strict {
		t.Fatalf("2 <= PID < 7: attr=%q lo=%v hi=%v ok=%v", attr, lo, hi, ok)
	}

	// Rejections: other operators, two attributes, qualified references,
	// duplicate same-side bounds, nested structure, equality mixes.
	for _, pred := range []Expr{
		Cmp{Op: OpEq, L: Attr{Name: "PID"}, R: Const{V: Int(5)}},
		Cmp{Op: OpNe, L: Attr{Name: "PID"}, R: Const{V: Int(5)}},
		And{Terms: []Expr{lt("PID", Int(5)), ge("Grade", String("B"))}},
		Cmp{Op: OpLt, L: Attr{Rel: "G", Name: "PID"}, R: Const{V: Int(5)}},
		And{Terms: []Expr{lt("PID", Int(5)), lt("PID", Int(7))}},
		And{Terms: []Expr{ge("PID", Int(2)), ge("PID", Int(3))}},
		And{Terms: []Expr{lt("PID", Int(5)), Eq("Grade", String("A"))}},
		Or{Terms: []Expr{lt("PID", Int(5))}},
		Not{E: lt("PID", Int(5))},
		And{},
		Cmp{Op: OpLt, L: Attr{Name: "PID"}, R: Attr{Name: "Other"}},
	} {
		if _, _, _, ok := RangeConjunction(pred); ok {
			t.Fatalf("decomposed non-range predicate %s", pred)
		}
	}
}

func TestProbeableRange(t *testing.T) {
	r := newGradesRel(t)
	lo := &RangeBound{V: Int(1)}
	if r.ProbeableRange("PID", lo, nil) {
		t.Fatal("PID neither leads the key nor an index: nothing ordered to walk")
	}
	if err := r.CreateIndex("byPID", []string{"PID", "Grade"}); err != nil {
		t.Fatal(err)
	}
	if !r.ProbeableRange("PID", lo, nil) {
		t.Fatal("half-open int range on the leading attribute of an index should probe")
	}
	if r.ProbeableRange("Grade", &RangeBound{V: String("B")}, nil) {
		t.Fatal("Grade is indexed but does not lead its index")
	}
	if !r.ProbeableRange("CourseID", &RangeBound{V: String("CS1")}, nil) {
		t.Fatal("range on the leading primary-key attribute should probe")
	}
	if !r.ProbeableRange("PID", &RangeBound{V: Float(1.5)}, nil) {
		t.Fatal("float bound on int attribute orders numerically, should probe")
	}
	if r.ProbeableRange("PID", &RangeBound{V: Int(maxExactInt + 1)}, nil) {
		t.Fatal("a bound the key codec rounds has no exact tree position")
	}
	if r.ProbeableRange("PID", nil, nil) {
		t.Fatal("unbounded range has nothing to probe")
	}
	if r.ProbeableRange("PID", &RangeBound{V: Null()}, nil) {
		t.Fatal("null bound needs scan semantics")
	}
	if r.ProbeableRange("PID", &RangeBound{V: String("x")}, nil) {
		t.Fatal("string bound on int attribute cannot order")
	}
	if r.ProbeableRange("Nope", lo, nil) {
		t.Fatal("unknown attribute should not probe")
	}
}

// TestMatchRangeMatchesSelect pins the substitution guarantee: for every
// range, walked (indexed, then probeable) or scanned (index dropped),
// MatchRange returns exactly what a predicate scan does — same tuples,
// same primary-key order — including rows holding null in the ranged
// attribute (which no range matches).
func TestMatchRangeMatchesSelect(t *testing.T) {
	s := MustSchema("T", []Attribute{
		{Name: "K", Type: KindInt},
		{Name: "N", Type: KindInt, Nullable: true},
		{Name: "S", Type: KindString, Nullable: true},
	}, []string{"K"})
	r := NewRelation(s)
	for k := 0; k < 40; k++ {
		n := Value(Int(int64((k * 7) % 13)))
		if k%5 == 0 {
			n = Null()
		}
		if err := r.Insert(Tuple{Int(int64(k)), n, String(fmt.Sprintf("s%02d", k%9))}); err != nil {
			t.Fatal(err)
		}
	}
	b := func(v Value, strict bool) *RangeBound { return &RangeBound{V: v, Strict: strict} }
	cases := []struct {
		attr   string
		lo, hi *RangeBound
		pred   Expr
	}{
		{"N", b(Int(4), true), nil, Cmp{Op: OpGt, L: Attr{Name: "N"}, R: Const{V: Int(4)}}},
		{"N", b(Int(4), false), nil, Cmp{Op: OpGe, L: Attr{Name: "N"}, R: Const{V: Int(4)}}},
		{"N", nil, b(Int(6), true), Cmp{Op: OpLt, L: Attr{Name: "N"}, R: Const{V: Int(6)}}},
		{"N", b(Int(3), false), b(Int(9), true), And{Terms: []Expr{
			Cmp{Op: OpGe, L: Attr{Name: "N"}, R: Const{V: Int(3)}},
			Cmp{Op: OpLt, L: Attr{Name: "N"}, R: Const{V: Int(9)}},
		}}},
		{"N", b(Int(100), false), nil, Cmp{Op: OpGe, L: Attr{Name: "N"}, R: Const{V: Int(100)}}},
		{"N", b(Int(9), false), b(Int(3), false), And{Terms: []Expr{
			Cmp{Op: OpGe, L: Attr{Name: "N"}, R: Const{V: Int(9)}},
			Cmp{Op: OpLe, L: Attr{Name: "N"}, R: Const{V: Int(3)}},
		}}},
		{"N", b(Float(4.5), true), nil, Cmp{Op: OpGt, L: Attr{Name: "N"}, R: Const{V: Float(4.5)}}},
		{"S", b(String("s03"), false), b(String("s07"), true), And{Terms: []Expr{
			Cmp{Op: OpGe, L: Attr{Name: "S"}, R: Const{V: String("s03")}},
			Cmp{Op: OpLt, L: Attr{Name: "S"}, R: Const{V: String("s07")}},
		}}},
		{"K", b(Int(10), true), b(Int(20), false), And{Terms: []Expr{
			Cmp{Op: OpGt, L: Attr{Name: "K"}, R: Const{V: Int(10)}},
			Cmp{Op: OpLe, L: Attr{Name: "K"}, R: Const{V: Int(20)}},
		}}},
	}
	bare := r.clone() // the same rows with no index: the second pass scans
	if err := r.CreateIndex("byN", []string{"N"}); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("bySK", []string{"S", "K"}); err != nil {
		t.Fatal(err)
	}
	for i, c := range append(cases, cases...) {
		if i == len(cases) {
			r = bare
		}
		if walked := i < len(cases) || c.attr == "K"; r.ProbeableRange(c.attr, c.lo, c.hi) != walked {
			t.Fatalf("case %d: probeable = %v, want %v", i, !walked, walked)
		}
		want, err := r.Select(c.pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.MatchRange(c.attr, c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d (%s): %d tuples, scan found %d", i, c.pred, len(got), len(want))
		}
		for j := range got {
			if !got[j].Equal(want[j]) {
				t.Fatalf("case %d (%s): tuple %d = %v, scan has %v", i, c.pred, j, got[j], want[j])
			}
		}
	}

	// A null bound matches nothing, exactly like the scan's three-valued
	// comparison, and does not error.
	got, err := r.MatchRange("N", b(Null(), false), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("null bound: %v, %v", got, err)
	}
	// A kind mismatch errors rather than silently returning nothing.
	if _, err := r.MatchRange("N", b(String("x"), false), nil); err == nil {
		t.Fatal("string bound against int attribute should error")
	}
}

// TestRangeWalkAccounting pins what a range costs: over the leading key
// attribute or the leading attribute of an index it charges one probe of
// exactly its window — the first time and every time, however the
// relation has been mutated in between — while a range over any other
// attribute charges a full scan.
func TestRangeWalkAccounting(t *testing.T) {
	r := newGradesRel(t)
	if err := r.CreateIndex("byPID", []string{"PID"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := r.Insert(grade(fmt.Sprintf("CS%03d", i), int64(i), "A")); err != nil {
			t.Fatal(err)
		}
	}
	for round, c := range []struct {
		attr string
		lo   Value
		want int
	}{
		{"PID", Int(93), 7},
		{"PID", Int(93), 7},
		{"CourseID", String("CS090"), 10},
		{"PID", Int(500), 1}, // after the insert below
	} {
		if round == 3 {
			if err := r.Insert(grade("CS999", 999, "B")); err != nil {
				t.Fatal(err)
			}
		}
		var st MatchStats
		out, err := r.MatchRangeStats(c.attr, &RangeBound{V: c.lo}, nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.want || st != (MatchStats{Probes: 1, Scanned: c.want}) {
			t.Fatalf("round %d: %d tuples charged %+v, want one probe of a %d-tuple window", round, len(out), st, c.want)
		}
	}
	var st MatchStats
	if _, err := r.MatchRangeStats("Grade", &RangeBound{V: String("B")}, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st != (MatchStats{Scans: 1, Scanned: r.Count()}) {
		t.Fatalf("unindexed range charged %+v, want one full scan", st)
	}
}
