package reldb

import (
	"fmt"
	"math"
	"testing"
)

// selectPath runs pred through SelectStats, holds its answer to the same
// predicate forced down the scan path (a one-term Or, which Select reads
// as no conjunction) — same tuples, same order — and reports the path
// Select took: "probe" for a key or index probe or a range walk, which
// charges exactly the tuples it returns, or "scan", which charges the
// whole relation.
func selectPath(t *testing.T, r *Relation, pred Expr) string {
	t.Helper()
	var st MatchStats
	got, err := r.SelectStats(pred, &st)
	if err != nil {
		t.Fatalf("Select(%s): %v", pred, err)
	}
	want, err := r.Select(Or{Terms: []Expr{pred}})
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, fmt.Sprintf("Select(%s)", pred), got, tuplesOf(want))
	switch st {
	case MatchStats{Probes: 1, Scanned: len(got)}:
		return "probe"
	case MatchStats{Scans: 1, Scanned: r.Count()}:
		return "scan"
	}
	t.Fatalf("Select(%s) charged %+v for %d tuples", pred, st, len(got))
	return ""
}

// selectFails checks that pred is an evaluation error for Select, and
// that the scan it stopped charged nothing.
func selectFails(t *testing.T, r *Relation, pred Expr) {
	t.Helper()
	var st MatchStats
	if got, err := r.SelectStats(pred, &st); err == nil || got != nil || st != (MatchStats{}) {
		t.Fatalf("Select(%s) = %v, %v charging %+v; want an error charging nothing", pred, got, err, st)
	}
}

// gradesRows is a GRADES relation holding a few rows, null grades among
// them.
func gradesRows(t *testing.T) *Relation {
	t.Helper()
	r := newGradesRel(t)
	for i, g := range []string{"A", "B", "A", "", "C", "A", "B"} {
		tu := grade(fmt.Sprintf("CS%d", 100+i%3), int64(i), g)
		if g == "" {
			tu[2] = Null()
		}
		if err := r.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestEqConjunction pins the equality shapes Select reads as one
// conjunction: a Cmp, or an And of Cmps, between an unqualified
// attribute and a constant in either operand order. Every other shape
// scans, with the same answer.
func TestEqConjunction(t *testing.T) {
	r := gradesRows(t)
	if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pred Expr
		want string
	}{
		{Eq("Grade", String("A")), "probe"},
		{Cmp{Op: OpEq, L: Const{V: String("B")}, R: Attr{Name: "Grade"}}, "probe"}, // reversed operands
		{And{Terms: []Expr{ // the key point, reversed and conjoined
			Cmp{Op: OpEq, L: Const{V: String("CS101")}, R: Attr{Name: "CourseID"}},
			Eq("PID", Int(1)),
		}}, "probe"},
		{Cmp{Op: OpNe, L: Attr{Name: "Grade"}, R: Const{V: String("A")}}, "scan"},                // not equality
		{Cmp{Op: OpEq, L: Attr{Name: "Grade"}, R: Attr{Name: "Grade"}}, "scan"},                  // attr = attr
		{Cmp{Op: OpEq, L: Attr{Rel: "GRADES", Name: "Grade"}, R: Const{V: String("A")}}, "scan"}, // qualified
		{And{Terms: []Expr{Eq("Grade", String("A")), Not{E: Eq("PID", Int(2))}}}, "scan"},        // nested structure
		{Or{Terms: []Expr{Eq("Grade", String("A"))}}, "scan"},                                    // not a conjunction
		{And{}, "scan"}, // empty
	} {
		if got := selectPath(t, r, c.pred); got != c.want {
			t.Errorf("Select(%v) took a %s, want a %s", c.pred, got, c.want)
		}
	}
}

// TestProbeableEqual pins when an equality conjunction probes: the
// attribute set has a path (the primary key or a covering index) and
// every constant is one a probe finds every equal stored value by.
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
	for i, tag := range []Value{String("x"), Null(), String("y"), String("x")} {
		score := Value(Float(1.5))
		if i%2 == 1 {
			score = Int(2)
		}
		if err := r.Insert(Tuple{Int(int64(i + 6)), score, tag}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CreateIndex("byTag", []string{"Tag"}); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("byScore", []string{"Score"}); err != nil {
		t.Fatal(err)
	}
	eqs := func(attrs []string, vals ...Value) Expr {
		terms := make([]Expr, len(attrs))
		for i, a := range attrs {
			terms[i] = Eq(a, vals[i])
		}
		return And{Terms: terms}
	}
	for _, c := range []struct {
		name string
		pred Expr
		want string
	}{
		{"key point", eqs([]string{"ID"}, Int(7)), "probe"},
		{"indexed string", eqs([]string{"Tag"}, String("x")), "probe"},
		{"indexed float", eqs([]string{"Score"}, Float(1.5)), "probe"},
		{"int on a float attr", eqs([]string{"Score"}, Int(2)), "probe"},
		{"float on an int key", eqs([]string{"ID"}, Float(7)), "probe"},
		{"fractional float on an int key", eqs([]string{"ID"}, Float(7.5)), "probe"},
		{"null constant", eqs([]string{"Tag"}, Null()), "scan"},
		{"no access path", eqs([]string{"ID", "Tag"}, Int(7), String("x")), "scan"},
		{"duplicate attr", eqs([]string{"Tag", "Tag"}, String("x"), String("x")), "scan"},
	} {
		if got := selectPath(t, r, c.pred); got != c.want {
			t.Errorf("%s: Select took a %s, want a %s", c.name, got, c.want)
		}
	}
	selectFails(t, r, Eq("Nope", Int(1)))
	selectFails(t, r, Eq("Tag", Int(1))) // a kind Compare cannot order against Tag: scan, and fail
}

// TestFloatProbeSemantics pins that an indexed Float attribute probes
// and finds every value Compare holds equal to the constant: a Float
// column may store Int values (kindAssignable), and ints and floats share
// one key encoding, in which −0 is 0.
func TestFloatProbeSemantics(t *testing.T) {
	s, err := NewSchema("F",
		[]Attribute{{Name: "ID", Type: KindInt}, {Name: "V", Type: KindFloat}},
		[]string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation(s)
	for i, v := range []Value{Int(5), Float(5), Float(0), Float(5.5)} { // an Int into the Float column
		if err := r.Insert(Tuple{Int(int64(i)), v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CreateIndex("byV", []string{"V"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		v    Value
		want int
	}{{Float(5), 2}, {Int(5), 2}, {Float(math.Copysign(0, -1)), 1}, {Int(0), 1}, {Float(5.25), 0}} {
		if got := selectPath(t, r, Eq("V", c.v)); got != "probe" {
			t.Errorf("Select(V = %v) took a %s, want a probe", c.v, got)
		}
		if got, _ := r.Select(Eq("V", c.v)); len(got) != c.want {
			t.Errorf("Select(V = %v) = %d rows, want %d", c.v, len(got), c.want)
		}
	}
}

// TestRangeConjunction pins the range shapes Select reads: ordering
// comparisons between one unqualified attribute and constants, at most
// one per side, a constant on the left flipping its side.
func TestRangeConjunction(t *testing.T) {
	r := gradesRows(t)
	if err := r.CreateIndex("byPID", []string{"PID"}); err != nil {
		t.Fatal(err)
	}
	lt := func(a string, v Value) Expr { return Cmp{Op: OpLt, L: Attr{Name: a}, R: Const{V: v}} }
	ge := func(a string, v Value) Expr { return Cmp{Op: OpGe, L: Attr{Name: a}, R: Const{V: v}} }
	for _, c := range []struct {
		pred Expr
		want string
	}{
		{lt("PID", Int(5)), "probe"},
		{Cmp{Op: OpLt, L: Const{V: Int(5)}, R: Attr{Name: "PID"}}, "probe"}, // 5 < PID is PID > 5
		{Cmp{Op: OpGe, L: Const{V: Int(2)}, R: Attr{Name: "PID"}}, "probe"}, // 2 >= PID is PID <= 2
		{And{Terms: []Expr{ge("PID", Int(2)), lt("PID", Int(5))}}, "probe"},
		{Cmp{Op: OpNe, L: Attr{Name: "PID"}, R: Const{V: Int(5)}}, "scan"},
		{And{Terms: []Expr{lt("PID", Int(5)), ge("Grade", String("B"))}}, "scan"}, // two attributes
		{Cmp{Op: OpLt, L: Attr{Rel: "GRADES", Name: "PID"}, R: Const{V: Int(5)}}, "scan"},
		{And{Terms: []Expr{lt("PID", Int(5)), lt("PID", Int(7))}}, "scan"}, // two upper bounds
		{And{Terms: []Expr{ge("PID", Int(2)), ge("PID", Int(3))}}, "scan"}, // two lower bounds
		{And{Terms: []Expr{lt("PID", Int(5)), Eq("PID", Int(2))}}, "scan"}, // an equality mixed in
		{Or{Terms: []Expr{lt("PID", Int(5))}}, "scan"},
		{Not{E: lt("PID", Int(5))}, "scan"},
		{Cmp{Op: OpLt, L: Attr{Name: "PID"}, R: Attr{Name: "PID"}}, "scan"},
	} {
		if got := selectPath(t, r, c.pred); got != c.want {
			t.Errorf("Select(%s) took a %s, want a %s", c.pred, got, c.want)
		}
	}
}

// TestProbeableRange pins when a range walks: its attribute leads the
// primary key or an index, and every bound has an exact tree position.
func TestProbeableRange(t *testing.T) {
	r := gradesRows(t)
	ge := func(a string, v Value) Expr { return Cmp{Op: OpGe, L: Attr{Name: a}, R: Const{V: v}} }
	if got := selectPath(t, r, ge("PID", Int(1))); got != "scan" {
		t.Fatal("PID neither leads the key nor an index: nothing ordered to walk")
	}
	if err := r.CreateIndex("byPID", []string{"PID", "Grade"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pred Expr
		want string
	}{
		{"leading attribute of an index", ge("PID", Int(1)), "probe"},
		{"indexed but not leading", ge("Grade", String("B")), "scan"},
		{"leading primary-key attribute", ge("CourseID", String("CS1")), "probe"},
		{"float bound on an int attribute", ge("PID", Float(1.5)), "probe"},
		{"a bound the key codec rounds", ge("PID", Int(maxExactInt+1)), "scan"},
		{"null bound", ge("PID", Null()), "scan"},
	} {
		if got := selectPath(t, r, c.pred); got != c.want {
			t.Errorf("%s: Select took a %s, want a %s", c.name, got, c.want)
		}
	}
	selectFails(t, r, ge("PID", String("x")))
	selectFails(t, r, ge("Nope", Int(1)))
}

// TestMatchRangeMatchesSelect pins the substitution guarantee: for every
// range, walked (indexed) or scanned (index dropped), Select returns
// exactly what the predicate's scan does — same tuples, same
// primary-key order — including rows holding null in the ranged
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
	cmp := func(op CmpOp, a string, v Value) Expr { return Cmp{Op: op, L: Attr{Name: a}, R: Const{V: v}} }
	and := func(terms ...Expr) Expr { return And{Terms: terms} }
	preds := []Expr{
		cmp(OpGt, "N", Int(4)),
		cmp(OpGe, "N", Int(4)),
		cmp(OpLt, "N", Int(6)),
		and(cmp(OpGe, "N", Int(3)), cmp(OpLt, "N", Int(9))),
		cmp(OpGe, "N", Int(100)),
		and(cmp(OpGe, "N", Int(9)), cmp(OpLe, "N", Int(3))),
		cmp(OpGt, "N", Float(4.5)),
		and(cmp(OpGe, "S", String("s03")), cmp(OpLt, "S", String("s07"))),
		and(cmp(OpGt, "K", Int(10)), cmp(OpLe, "K", Int(20))),
	}
	bare := r.clone() // the same rows with no index: the second pass scans
	if err := r.CreateIndex("byN", []string{"N"}); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("bySK", []string{"S", "K"}); err != nil {
		t.Fatal(err)
	}
	for i, pred := range append(preds, preds...) {
		if i == len(preds) {
			r = bare
		}
		want := "probe"
		if i >= len(preds) && i != 2*len(preds)-1 { // K leads the key, indexed or not
			want = "scan"
		}
		if got := selectPath(t, r, pred); got != want {
			t.Fatalf("case %d (%s): took a %s, want a %s", i, pred, got, want)
		}
	}

	// A null bound matches nothing, exactly like the scan's three-valued
	// comparison, and does not error; a kind mismatch errors rather than
	// silently returning nothing.
	if got := selectPath(t, r, cmp(OpGe, "N", Null())); got != "scan" {
		t.Fatalf("null bound took a %s", got)
	}
	selectFails(t, r, cmp(OpGe, "N", String("x")))
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
	ge := func(a string, v Value) Expr { return Cmp{Op: OpGe, L: Attr{Name: a}, R: Const{V: v}} }
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
		out, err := r.SelectStats(ge(c.attr, c.lo), &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.want || st != (MatchStats{Probes: 1, Scanned: c.want}) {
			t.Fatalf("round %d: %d tuples charged %+v, want one probe of a %d-tuple window", round, len(out), st, c.want)
		}
	}
	var st MatchStats
	if _, err := r.SelectStats(ge("Grade", String("B")), &st); err != nil {
		t.Fatal(err)
	}
	if st != (MatchStats{Scans: 1, Scanned: r.Count()}) {
		t.Fatalf("unindexed range charged %+v, want one full scan", st)
	}
}

// TestNaNEqualsNoNumber: floats compare as cmp.Compare orders them — a
// NaN equals a NaN and sorts below every number — so on an unindexed
// Float column holding a NaN and 5, an equality with 5 finds only the 5,
// by MatchEqual and by Select alike, and a range below 5 finds the NaN.
func TestNaNEqualsNoNumber(t *testing.T) {
	nan := Float(math.NaN())
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{nan, nan, 0}, {nan, Float(math.Inf(-1)), -1}, {Int(5), nan, 1}, {nan, Null(), 1},
	} {
		if got, err := Compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	r := NewRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt},
		{Name: "F", Type: KindFloat, Nullable: true},
	}, []string{"K"}))
	for _, tu := range []Tuple{{Int(1), nan}, {Int(2), Float(5)}} {
		if err := r.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	keys := func(what string, rows []Row, err error, want ...int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var got []int64
		for _, row := range rows {
			got = append(got, row.At(0).MustInt())
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s returns keys %v, want %v", what, got, want)
		}
	}
	rows, err := r.MatchEqual([]string{"F"}, Tuple{Float(5)})
	keys("MatchEqual([F], 5)", rows, err, 2)
	rows, err = r.Select(Cmp{Op: OpEq, L: Attr{Name: "F"}, R: Const{V: Int(5)}})
	keys("Select(F = 5)", rows, err, 2)
	rows, err = r.Select(Cmp{Op: OpLt, L: Attr{Name: "F"}, R: Const{V: Int(5)}})
	keys("Select(F < 5)", rows, err, 1)
}

// TestKeyPrefixLookupMatchesScan: an equality over a leading prefix of
// the primary key, its attributes listed in any order, is a prefix probe
// of the row tree that returns what a scan does, in the same order —
// through MatchEqual, MatchEqualBatchAt and Select alike — with runs long
// enough to cross many leaves. A key attribute that does not lead, or a
// set with a gap before its last key attribute, still scans.
func TestKeyPrefixLookupMatchesScan(t *testing.T) {
	// The key is (A, B, C), in declaration order.
	r := NewRelation(MustSchema("K3", []Attribute{
		{Name: "A", Type: KindInt},
		{Name: "V", Type: KindString, Nullable: true},
		{Name: "B", Type: KindInt},
		{Name: "C", Type: KindInt},
	}, []string{"C", "B", "A"}))
	// Inserted out of key order: C descends, then A, then B.
	for c := int64(29); c >= 0; c-- {
		for a := int64(0); a < 5; a++ {
			for b := int64(9); b >= 0; b-- {
				if err := r.Insert(Tuple{Int(a), String(fmt.Sprintf("v%d", (a+b+c)%4)), Int(b), Int(c)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	scanRef := func(attrs []string, vals Tuple) []Tuple {
		idx, err := r.Schema().Indices(attrs)
		if err != nil {
			t.Fatal(err)
		}
		var out []Tuple
		r.Scan(func(row Row) bool {
			if equalAt(row, idx, vals) {
				out = append(out, row.Tuple())
			}
			return true
		})
		return out
	}
	for _, c := range []struct {
		attrs []string
		sets  []Tuple
	}{
		{[]string{"A"}, []Tuple{{Int(3)}, {Int(1)}, {Int(3)}, {Int(7)}}},
		{[]string{"B", "A"}, []Tuple{{Int(4), Int(2)}, {Int(0), Int(4)}, {Int(9), Int(0)}, {Int(4), Int(2)}}},
		{[]string{"C", "A", "B"}, []Tuple{{Int(17), Int(2), Int(5)}, {Int(30), Int(2), Int(5)}}},
	} {
		var st MatchStats
		got, err := matchBatch(r, c.attrs, c.sets, &st)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[string]bool{}
		for i, vs := range c.sets {
			distinct[EncodeValues(vs...)] = true
			want := scanRef(c.attrs, vs)
			sameTuples(t, fmt.Sprintf("MatchEqualBatchAt %v %v", c.attrs, vs), got[i], want)
			one, err := r.MatchEqual(c.attrs, vs)
			if err != nil {
				t.Fatal(err)
			}
			sameTuples(t, fmt.Sprintf("MatchEqual %v %v", c.attrs, vs), one, want)
			eqs := make([]Expr, len(vs))
			for j, a := range c.attrs {
				eqs[j] = Eq(a, vs[j])
			}
			if path := selectPath(t, r, And{Terms: eqs}); path != "probe" {
				t.Fatalf("Select %v = %v took a %s, want a probe", c.attrs, vs, path)
			}
		}
		if st.Scans != 0 || st.Probes != len(distinct) {
			t.Fatalf("batch over %v charged %+v, want %d probes", c.attrs, st, len(distinct))
		}
	}
	if len(scanRef([]string{"A"}, Tuple{Int(3)})) != 300 {
		t.Fatal("a leading-attribute run does not span many leaves")
	}
	for _, attrs := range [][]string{{"B"}, {"C", "A"}} {
		vals := Tuple{Int(1), Int(1)}[:len(attrs)]
		eqs := make([]Expr, len(attrs))
		for j, a := range attrs {
			eqs[j] = Eq(a, vals[j])
		}
		if path := selectPath(t, r, And{Terms: eqs}); path != "scan" {
			t.Fatalf("Select over %v took a %s, want a scan", attrs, path)
		}
		if r.TreeServes(attrs) {
			t.Fatalf("TreeServes(%v) with no tree over it", attrs)
		}
	}
}
