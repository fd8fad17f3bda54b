package reldb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func newGradesRel(t *testing.T) *Relation {
	t.Helper()
	return NewRelation(gradesSchema(t))
}

func grade(course string, pid int64, g string) Tuple {
	return Tuple{String(course), Int(pid), String(g)}
}

func TestInsertGetDelete(t *testing.T) {
	r := newGradesRel(t)
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(grade("CS101", 2, "B")); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 2 {
		t.Fatalf("Count = %d", r.Count())
	}
	got, ok := r.Get(Tuple{String("CS101"), Int(1)})
	if !ok || !got.Equal(RowOf(grade("CS101", 1, "A"))) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if !r.Has(Tuple{String("CS101"), Int(2)}) {
		t.Fatal("Has should be true")
	}
	if r.Has(Tuple{String("CS101"), Int(99)}) {
		t.Fatal("Has should be false")
	}
	old, err := r.Delete(Tuple{String("CS101"), Int(1)})
	if err != nil || !old.Equal(RowOf(grade("CS101", 1, "A"))) {
		t.Fatalf("Delete = %v, %v", old, err)
	}
	if r.Count() != 1 {
		t.Fatalf("Count after delete = %d", r.Count())
	}
	if _, err := r.Delete(Tuple{String("CS101"), Int(1)}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestInsertDuplicateKey(t *testing.T) {
	r := newGradesRel(t)
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	err := r.Insert(grade("CS101", 1, "F"))
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestInsertInvalidTuple(t *testing.T) {
	r := newGradesRel(t)
	if err := r.Insert(Tuple{String("CS101")}); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := r.Insert(Tuple{Null(), Int(1), Null()}); err == nil {
		t.Fatal("null key accepted")
	}
}

func TestInsertClonesInput(t *testing.T) {
	r := newGradesRel(t)
	tup := grade("CS101", 1, "A")
	if err := r.Insert(tup); err != nil {
		t.Fatal(err)
	}
	tup[2] = String("F") // mutate caller's slice
	got, _ := r.Get(Tuple{String("CS101"), Int(1)})
	if g := got.At(2).MustString(); g != "A" {
		t.Fatalf("stored tuple was aliased: grade = %q", g)
	}
}

// TestGetReturnsCopy: a read hands out the stored row itself, and the
// compiler is what keeps a reader from writing it — Row has no exported
// field, and every method that returns values returns them in a fresh
// tuple, so editing what any method returns changes neither the stored
// row nor a fresh read. A method added to Row must be classified here.
func TestGetReturnsCopy(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	key := Tuple{String("CS101"), Int(1)}
	got, _ := r.Get(key)
	rt := reflect.TypeOf(got)
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).IsExported() {
			t.Fatalf("Row exports field %s", rt.Field(i).Name)
		}
	}
	copies := map[string]func(Row) Tuple{
		"Tuple":   func(r Row) Tuple { return r.Tuple() },
		"Project": func(r Row) Tuple { return r.Project([]int{0, 1, 2}) },
		"Key":     func(row Row) Tuple { return row.Key(r.Schema()) },
	}
	reads := []string{"At", "Encode", "EncodeKey", "Equal", "Len", "Same", "String"}
	for i := 0; i < rt.NumMethod(); i++ {
		name := rt.Method(i).Name
		if slices.Contains(reads, name) {
			continue
		}
		out, ok := copies[name]
		if !ok {
			t.Fatalf("Row.%s is neither a read nor a checked copy-out", name)
		}
		vals := out(got)
		for j := range vals {
			vals[j] = String("F")
		}
		again, _ := r.Get(key)
		if !got.Equal(RowOf(grade("CS101", 1, "A"))) || !again.Equal(got) {
			t.Fatalf("editing what Row.%s returned changed the stored row to %v", name, again)
		}
	}
}

func TestReplaceSameKey(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	if err := r.Replace(Tuple{String("CS101"), Int(1)}, grade("CS101", 1, "B")); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(Tuple{String("CS101"), Int(1)})
	if got.At(2).MustString() != "B" {
		t.Fatalf("replace did not stick: %v", got)
	}
	if r.Count() != 1 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestReplaceKeyChange(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	if err := r.Replace(Tuple{String("CS101"), Int(1)}, grade("EE201", 1, "A")); err != nil {
		t.Fatal(err)
	}
	if r.Has(Tuple{String("CS101"), Int(1)}) {
		t.Fatal("old key still present")
	}
	if !r.Has(Tuple{String("EE201"), Int(1)}) {
		t.Fatal("new key missing")
	}
}

func TestReplaceErrors(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	_ = r.Insert(grade("EE201", 1, "B"))
	// Missing old key.
	err := r.Replace(Tuple{String("XX"), Int(9)}, grade("XX", 9, "C"))
	if !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("err = %v, want ErrNoSuchTuple", err)
	}
	// New key collides with another tuple.
	err = r.Replace(Tuple{String("CS101"), Int(1)}, grade("EE201", 1, "A"))
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	// Invalid new tuple.
	if err := r.Replace(Tuple{String("CS101"), Int(1)}, Tuple{Null(), Int(1), Null()}); err == nil {
		t.Fatal("invalid replacement accepted")
	}
	// Failed replace must not change anything.
	if r.Count() != 2 || !r.Has(Tuple{String("CS101"), Int(1)}) {
		t.Fatal("failed replace mutated the relation")
	}
}

func TestScanKeyOrderDeterministic(t *testing.T) {
	r := newGradesRel(t)
	// Insert out of order.
	for _, pid := range []int64{5, 3, 9, 1, 7} {
		if err := r.Insert(grade("CS101", pid, "A")); err != nil {
			t.Fatal(err)
		}
	}
	var pids []int64
	r.Scan(func(t Row) bool {
		pids = append(pids, t.At(1).MustInt())
		return true
	})
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if pids[i] != want[i] {
			t.Fatalf("scan order = %v, want %v", pids, want)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	r := newGradesRel(t)
	for pid := int64(1); pid <= 10; pid++ {
		_ = r.Insert(grade("CS101", pid, "A"))
	}
	n := 0
	r.Scan(func(Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSelect(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	_ = r.Insert(grade("CS101", 2, "B"))
	_ = r.Insert(grade("EE201", 3, "A"))
	got, err := r.Select(Eq("Grade", String("A")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Select returned %d rows", len(got))
	}
	all, err := r.Select(nil)
	if err != nil || len(all) != 3 {
		t.Fatalf("Select(nil) = %d rows, %v", len(all), err)
	}
	if _, err := r.Select(Eq("Nope", Int(1))); err == nil {
		t.Fatal("Select with unknown attribute should fail")
	}
}

func TestSecondaryIndex(t *testing.T) {
	r := newGradesRel(t)
	for pid := int64(1); pid <= 100; pid++ {
		course := fmt.Sprintf("C%d", pid%10)
		if err := r.Insert(grade(course, pid, "A")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CreateIndex("byCourse", []string{"CourseID"}); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("byCourse", []string{"CourseID"}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if err := r.CreateIndex("bad", []string{"Nope"}); err == nil {
		t.Fatal("index on unknown attr accepted")
	}
	got, err := indexLookup(t, r, []string{"CourseID"}, Tuple{String("C3")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("index lookup returned %d rows, want 10", len(got))
	}
	for _, tu := range got {
		if tu.At(0).MustString() != "C3" {
			t.Fatalf("wrong row from index: %v", tu)
		}
	}
	if _, err := r.MatchEqual([]string{"CourseID"}, Tuple{String("x"), Int(1)}); err == nil {
		t.Fatal("wrong arity lookup accepted")
	}
}

func TestIndexMaintainedByMutations(t *testing.T) {
	r := newGradesRel(t)
	if err := r.CreateIndex("byCourse", []string{"CourseID"}); err != nil {
		t.Fatal(err)
	}
	_ = r.Insert(grade("CS101", 1, "A"))
	_ = r.Insert(grade("CS101", 2, "B"))
	_ = r.Insert(grade("EE201", 3, "C"))

	check := func(course string, want int) {
		t.Helper()
		got, err := indexLookup(t, r, []string{"CourseID"}, Tuple{String(course)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("index[%s] = %d rows, want %d", course, len(got), want)
		}
	}
	check("CS101", 2)
	check("EE201", 1)

	// Delete updates the index.
	if _, err := r.Delete(Tuple{String("CS101"), Int(1)}); err != nil {
		t.Fatal(err)
	}
	check("CS101", 1)

	// Replace that moves a row between buckets updates the index.
	if err := r.Replace(Tuple{String("CS101"), Int(2)}, grade("EE201", 2, "B")); err != nil {
		t.Fatal(err)
	}
	check("CS101", 0)
	check("EE201", 2)
}

// indexLookup is MatchEqual that also fails the test unless one index or
// point probe, not a scan, served the lookup: the tests that read what an
// index holds go through the one lookup path.
func indexLookup(t testing.TB, r *Relation, attrs []string, vals Tuple) ([]Row, error) {
	t.Helper()
	var st MatchStats
	out, err := r.MatchEqualStats(attrs, vals, &st)
	if err == nil && (st.Probes != 1 || st.Scans != 0) {
		t.Fatalf("MatchEqual %v on %s: stats %+v, want one probe", attrs, r.Name(), st)
	}
	return out, err
}

func TestIndexBackfill(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	_ = r.Insert(grade("CS101", 2, "A"))
	if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	got, err := indexLookup(t, r, []string{"Grade"}, Tuple{String("A")})
	if err != nil || len(got) != 2 {
		t.Fatalf("backfilled lookup = %d rows, %v", len(got), err)
	}
}

// A failing predicate must not hand back a truncated result set: callers
// check err != nil, but defensive coding (and retrofitted error handling)
// can still touch the slice.
func TestSelectErrorReturnsNilResults(t *testing.T) {
	r := newGradesRel(t)
	for i := 1; i <= 5; i++ {
		if err := r.Insert(grade("CS101", int64(i), "A")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Select(Eq("NoSuchAttr", Int(1)))
	if err == nil {
		t.Fatal("predicate over a missing attribute should fail")
	}
	if got != nil {
		t.Fatalf("error path returned %d tuples, want nil", len(got))
	}
}

// Duplicate attribute names must not trigger the primary-key point-lookup
// fast path: ["CourseID","CourseID"] has the same length and element set
// as the key ["CourseID","PID"] under a set comparison, and would build a
// lookup key with a hole.
func TestMatchEqualRejectsDuplicateAttrs(t *testing.T) {
	r := newGradesRel(t)
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	got, err := r.MatchEqual([]string{"CourseID", "CourseID"}, Tuple{String("CS101"), String("CS101")})
	if err == nil {
		t.Fatalf("duplicate attributes accepted, got %v", got)
	}
	// Non-key duplicates are rejected too.
	if _, err := r.MatchEqual([]string{"Grade", "Grade"}, Tuple{String("A"), String("A")}); err == nil {
		t.Fatal("duplicate non-key attributes accepted")
	}
	// The legitimate full-key lookup still works.
	got, err = r.MatchEqual([]string{"CourseID", "PID"}, Tuple{String("CS101"), Int(1)})
	if err != nil || len(got) != 1 {
		t.Fatalf("full-key MatchEqual = %v, %v", got, err)
	}
}

func TestMatchEqualWithAndWithoutIndex(t *testing.T) {
	r := newGradesRel(t)
	for pid := int64(1); pid <= 30; pid++ {
		_ = r.Insert(grade(fmt.Sprintf("C%d", pid%3), pid, "A"))
	}
	// Without index: scan path.
	got, err := r.MatchEqual([]string{"CourseID"}, Tuple{String("C1")})
	if err != nil || len(got) != 10 {
		t.Fatalf("scan MatchEqual = %d, %v", len(got), err)
	}
	// With index: index path must agree.
	if err := r.CreateIndex("byCourse", []string{"CourseID"}); err != nil {
		t.Fatal(err)
	}
	got2, err := r.MatchEqual([]string{"CourseID"}, Tuple{String("C1")})
	if err != nil || len(got2) != len(got) {
		t.Fatalf("indexed MatchEqual = %d, %v", len(got2), err)
	}
	for i := range got {
		if !got[i].Equal(got2[i]) {
			t.Fatal("index and scan paths disagree")
		}
	}
	if _, err := r.MatchEqual([]string{"Nope"}, Tuple{String("x")}); err == nil {
		t.Fatal("MatchEqual unknown attr accepted")
	}
	if _, err := r.MatchEqual([]string{"CourseID"}, Tuple{String("x"), Int(1)}); err == nil {
		t.Fatal("MatchEqual arity mismatch accepted")
	}
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := newGradesRel(t)
	_ = r.CreateIndex("byCourse", []string{"CourseID"})
	_ = r.Insert(grade("CS101", 1, "A"))
	c := r.clone()
	_ = c.Insert(grade("CS101", 2, "B"))
	if r.Count() != 1 || c.Count() != 2 {
		t.Fatalf("clone not independent: %d/%d", r.Count(), c.Count())
	}
	got, err := indexLookup(t, c, []string{"CourseID"}, Tuple{String("CS101")})
	if err != nil || len(got) != 2 {
		t.Fatalf("cloned index = %d rows, %v", len(got), err)
	}
	got, err = indexLookup(t, r, []string{"CourseID"}, Tuple{String("CS101")})
	if err != nil || len(got) != 1 {
		t.Fatalf("original index = %d rows, %v", len(got), err)
	}
}

// Property-style: a random sequence of inserts/deletes/replaces keeps the
// index consistent with a full scan.
func TestIndexConsistencyUnderRandomOps(t *testing.T) {
	r := newGradesRel(t)
	if err := r.CreateIndex("byCourse", []string{"CourseID"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	courses := []string{"A", "B", "C", "D"}
	type pair struct {
		course string
		pid    int64
	}
	live := make(map[pair]bool) // ground truth of present keys
	for step := 0; step < 2000; step++ {
		p := pair{courses[rng.Intn(len(courses))], int64(rng.Intn(50))}
		switch rng.Intn(3) {
		case 0: // insert
			err := r.Insert(grade(p.course, p.pid, "A"))
			if live[p] {
				if !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("step %d: want duplicate error, got %v", step, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			} else {
				live[p] = true
			}
		case 1: // delete
			if live[p] {
				if _, err := r.Delete(Tuple{String(p.course), Int(p.pid)}); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				delete(live, p)
			}
		case 2: // replace: move p to a fresh course (key change)
			if live[p] {
				np := pair{courses[rng.Intn(len(courses))], p.pid}
				err := r.Replace(Tuple{String(p.course), Int(p.pid)}, grade(np.course, np.pid, "B"))
				if np != p && live[np] {
					if !errors.Is(err, ErrDuplicateKey) {
						t.Fatalf("step %d: want duplicate on replace, got %v", step, err)
					}
				} else if err != nil {
					t.Fatalf("step %d: replace: %v", step, err)
				} else {
					delete(live, p)
					live[np] = true
				}
			}
		}
	}
	// Index must agree with ground truth per course.
	for _, c := range courses {
		want := 0
		for p := range live {
			if p.course == c {
				want++
			}
		}
		got, err := indexLookup(t, r, []string{"CourseID"}, Tuple{String(c)})
		if err != nil || len(got) != want {
			t.Fatalf("course %s: index %d, want %d (%v)", c, len(got), want, err)
		}
	}
	if r.Count() != len(live) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(live))
	}
}

// TestAllReturnsCopies: All hands out the stored rows; a row's copy-out
// and the slice All returns are the caller's, so editing either changes
// no later read.
func TestAllReturnsCopies(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	all := r.All()
	out := all[0].Tuple()
	out[2] = String("F")
	all[0] = RowOf(out)
	got, _ := r.Get(Tuple{String("CS101"), Int(1)})
	if got.At(2).MustString() != "A" || r.All()[0].At(2).MustString() != "A" {
		t.Fatal("All leaked internal storage")
	}
}

// TestReplaceClonesInput: like Insert, Replace stores its own copy of the
// caller's tuple.
func TestReplaceClonesInput(t *testing.T) {
	r := newGradesRel(t)
	_ = r.Insert(grade("CS101", 1, "A"))
	nt := grade("CS101", 1, "B")
	if err := r.Replace(Tuple{String("CS101"), Int(1)}, nt); err != nil {
		t.Fatal(err)
	}
	nt[2] = String("F")
	if got, _ := r.Get(Tuple{String("CS101"), Int(1)}); got.At(2).MustString() != "B" {
		t.Fatalf("stored tuple was aliased: %v", got)
	}
}
