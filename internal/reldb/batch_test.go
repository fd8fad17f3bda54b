package reldb

import (
	"fmt"
	"testing"
)

// matchBatch is MatchEqualBatchAt over attribute names.
func matchBatch(r *Relation, names []string, valSets []Tuple, st *MatchStats) ([][]Row, error) {
	idx, err := r.Schema().Indices(names)
	if err != nil {
		return nil, err
	}
	return r.MatchEqualBatchAt(idx, valSets, st)
}

// matchStats is MatchEqual that also accumulates lookup cost into st.
func matchStats(r *Relation, names []string, vals Tuple, st *MatchStats) ([]Row, error) {
	out, err := matchBatch(r, names, []Tuple{vals}, st)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Regression for the order-sensitive index selection bug: an index built
// over the same attributes in a different order must still serve the
// lookup (no full-scan fallback), with vals permuted into the index's
// attribute order.
func TestMatchEqualUsesOrderPermutedIndex(t *testing.T) {
	s := MustSchema("R", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "A", Type: KindString},
		{Name: "B", Type: KindInt},
	}, []string{"ID"})
	r := NewRelation(s)
	for i := int64(0); i < 40; i++ {
		tup := Tuple{Int(i), String(fmt.Sprintf("a%d", i%4)), Int(i % 2)}
		if err := r.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CreateIndex("ab", []string{"A", "B"}); err != nil {
		t.Fatal(err)
	}

	// Query in the reversed attribute order.
	var st MatchStats
	got, err := matchStats(r, []string{"B", "A"}, Tuple{Int(1), String("a1")}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scans != 0 {
		t.Fatalf("permuted lookup fell back to a scan (stats %+v)", st)
	}
	if st.Probes != 1 {
		t.Fatalf("permuted lookup made %d probes, want 1", st.Probes)
	}
	// Same query via a scan on an index-less twin must agree.
	r2 := NewRelation(s)
	r.Scan(func(tup Row) bool {
		if err := r2.Insert(tup.Tuple()); err != nil {
			t.Fatal(err)
		}
		return true
	})
	var st2 MatchStats
	want, err := matchStats(r2, []string{"B", "A"}, Tuple{Int(1), String("a1")}, &st2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Scans != 1 {
		t.Fatalf("index-less twin should scan (stats %+v)", st2)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("index path: %d rows, scan path: %d rows", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d differs: index %v, scan %v", i, got[i], want[i])
		}
	}

	if !r.TreeServes([]string{"B", "A"}) || !r.TreeServes([]string{"A", "B"}) {
		t.Fatal("TreeServes must match attribute sets order-insensitively")
	}
	if r.TreeServes([]string{"A"}) || r.TreeServes([]string{"Nope"}) {
		t.Fatal("TreeServes matched an attribute set no tree serves")
	}
}

// A lookup through an index must reject values that cannot match the
// indexed attributes instead of silently encoding to a miss.
func TestLookupIndexValidatesValues(t *testing.T) {
	r := newGradesRel(t)
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("byCourse", []string{"CourseID"}); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	// Wrong kind: CourseID is a string.
	if _, err := r.MatchEqual([]string{"CourseID"}, Tuple{Int(7)}); err == nil {
		t.Fatal("wrong-typed lookup value accepted")
	}
	// Null probing a key attribute.
	if _, err := r.MatchEqual([]string{"CourseID"}, Tuple{Null()}); err == nil {
		t.Fatal("null lookup on key attribute accepted")
	}
	// Null probing a nullable non-key attribute is a legitimate probe.
	if _, err := indexLookup(t, r, []string{"Grade"}, Tuple{Null()}); err != nil {
		t.Fatalf("null lookup on nullable attribute rejected: %v", err)
	}
	// Valid lookups still work.
	got, err := indexLookup(t, r, []string{"CourseID"}, Tuple{String("CS101")})
	if err != nil || len(got) != 1 {
		t.Fatalf("valid lookup = %d rows, %v", len(got), err)
	}
	// So do the other attribute sets and the batch form.
	if _, err := r.MatchEqual([]string{"Grade"}, Tuple{Int(3)}); err == nil {
		t.Fatal("MatchEqual wrong-typed value accepted")
	}
	if _, err := matchBatch(r, []string{"Grade"}, []Tuple{{String("A")}, {Int(3)}}, nil); err == nil {
		t.Fatal("MatchEqualBatchAt wrong-typed value accepted")
	}
}

// batchRel holds rows grade(C<pid%5>, pid, G<pid%4>): CourseID leads
// the key, Grade is no key attribute.
func batchRel(t *testing.T, rows int) *Relation {
	t.Helper()
	r := newGradesRel(t)
	for pid := int64(1); pid <= int64(rows); pid++ {
		course := fmt.Sprintf("C%d", pid%5)
		if err := r.Insert(grade(course, pid, fmt.Sprintf("G%d", pid%4))); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// batchSets are the value sets checkBatch looks up over one attribute
// whose values start with p.
func batchSets(p string) []Tuple {
	return []Tuple{
		{String(p + "1")},
		{String(p + "3")},
		{String(p + "1")}, // duplicate: must collapse into one probe
		{String("nope")},  // no matches: a nil bucket
	}
}

// checkBatch looks batchSets(p) up over attr in one batch and checks
// each bucket against a single lookup, and returns the batch's cost.
func checkBatch(t *testing.T, r *Relation, attr, p string) MatchStats {
	t.Helper()
	var st MatchStats
	valSets := batchSets(p)
	got, err := matchBatch(r, []string{attr}, valSets, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(valSets) {
		t.Fatalf("batch returned %d buckets, want one per value set (%d)", len(got), len(valSets))
	}
	for i, vs := range valSets[:3] {
		bucket := got[i]
		want, err := r.MatchEqual([]string{attr}, vs)
		if err != nil {
			t.Fatal(err)
		}
		if len(bucket) != len(want) || len(bucket) == 0 {
			t.Fatalf("%v: batch %d rows, single %d rows", vs, len(bucket), len(want))
		}
		for i := range bucket {
			if !bucket[i].Equal(want[i]) {
				t.Fatalf("%v row %d: batch %v, single %v (key-order mismatch)", vs, i, bucket[i], want[i])
			}
		}
	}
	if &got[0][0] != &got[2][0] {
		t.Fatal("equal value sets got separate buckets")
	}
	if got[3] != nil {
		t.Fatalf("value set with no match got bucket %v, want nil", got[3])
	}
	return st
}

// An attribute that does not lead the key, with no index over it: one
// shared scan for the whole batch, not one per value set.
func TestMatchEqualBatchScanPath(t *testing.T) {
	r := batchRel(t, 50)
	st := checkBatch(t, r, "Grade", "G")
	if st.Scans != 1 || st.Probes != 0 {
		t.Fatalf("scan-path stats = %+v, want exactly one shared scan", st)
	}
	if st.Scanned != r.Count() {
		t.Fatalf("scan path visited %d tuples, want %d", st.Scanned, r.Count())
	}
}

func TestMatchEqualBatchIndexPath(t *testing.T) {
	r := batchRel(t, 50)
	if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	// One probe per distinct value set (3 distinct), no scans.
	if st := checkBatch(t, r, "Grade", "G"); st.Scans != 0 || st.Probes != 3 {
		t.Fatalf("index-path stats = %+v, want 3 probes and no scans", st)
	}
}

// The attribute leading the key probes the row tree, one probe per
// distinct value set, with or without an index over it.
func TestMatchEqualBatchKeyPrefixPath(t *testing.T) {
	r := batchRel(t, 50)
	for _, ix := range []bool{false, true} {
		if ix {
			if err := r.CreateIndex("byCourse", []string{"CourseID"}); err != nil {
				t.Fatal(err)
			}
		}
		if st := checkBatch(t, r, "CourseID", "C"); st.Scans != 0 || st.Probes != 3 {
			t.Fatalf("key-prefix stats = %+v, want 3 probes and no scans", st)
		}
		if pl, err := r.planFor("test", []string{"CourseID"}); err != nil || pl.kind != planKeyPrefix {
			t.Fatalf("plan = %+v, %v; want the row tree's key prefix", pl, err)
		}
	}
}

func TestMatchEqualBatchPointLookupPath(t *testing.T) {
	r := batchRel(t, 10)
	var st MatchStats
	// Whole primary key, in permuted order: point lookups.
	valSets := []Tuple{
		{Int(3), String("C3")},
		{Int(4), String("C4")},
		{Int(999), String("C1")}, // miss
	}
	got, err := matchBatch(r, []string{"PID", "CourseID"}, valSets, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scans != 0 || st.Probes != 3 {
		t.Fatalf("point-path stats = %+v, want 3 probes and no scans", st)
	}
	if len(got) != 3 || got[1] == nil || got[2] != nil {
		t.Fatalf("point path returned buckets %v, want hits for the first two sets only", got)
	}
	hit := got[0]
	if len(hit) != 1 || !hit[0].Equal(RowOf(grade("C3", 3, "G3"))) {
		t.Fatalf("point lookup bucket = %v", hit)
	}
}

func TestMatchEqualBatchEmptyAndErrors(t *testing.T) {
	r := batchRel(t, 10)
	got, err := matchBatch(r, []string{"CourseID"}, nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch = %v, %v", got, err)
	}
	if _, err := matchBatch(r, []string{"Nope"}, []Tuple{{String("x")}}, nil); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := matchBatch(r, []string{"CourseID"}, []Tuple{{String("x"), Int(1)}}, nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := matchBatch(r, []string{"CourseID", "CourseID"}, []Tuple{{String("x"), String("x")}}, nil); err == nil {
		t.Fatal("duplicate attributes accepted")
	}
}

// MatchEqualBatchAt answers each value set as MatchEqual does over the
// names its indices resolve from, with one probe per distinct set, and
// refuses an index the schema lacks or one given twice.
func TestMatchEqualBatchAt(t *testing.T) {
	r := batchRel(t, 10)
	valSets := []Tuple{{Int(3), String("C3")}, {Int(999), String("C1")}, {Int(4), String("C4")}}
	names := []string{"PID", "CourseID"}
	idx, err := r.Schema().Indices(names)
	if err != nil {
		t.Fatal(err)
	}
	var byIdx MatchStats
	got, err := r.MatchEqualBatchAt(idx, valSets, &byIdx)
	if err != nil {
		t.Fatal(err)
	}
	if byIdx.Probes != len(valSets) || byIdx.Scans != 0 || len(got) != len(valSets) {
		t.Fatalf("by index: %d buckets, %+v", len(got), byIdx)
	}
	for i, vs := range valSets {
		want, err := r.MatchEqual(names, vs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) || len(want) > 0 && !got[i][0].Same(want[0]) {
			t.Fatalf("bucket %d by index %v, by name %v", i, got[i], want)
		}
	}
	for _, bad := range [][]int{{idx[0], r.Schema().Arity()}, {-1, idx[1]}, {idx[0], idx[0]}} {
		if _, err := r.MatchEqualBatchAt(bad, valSets, nil); err == nil {
			t.Fatalf("attribute indices %v accepted", bad)
		}
	}
}

// A Replace that changes the primary key must move the row between the
// non-key index's buckets exactly once (no stale entry under the old
// encoded key, none duplicated under the new one).
func TestReplaceKeyChangeMaintainsNonKeyIndex(t *testing.T) {
	r := newGradesRel(t)
	if err := r.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(grade("CS101", 2, "A")); err != nil {
		t.Fatal(err)
	}
	// Key change, indexed attribute unchanged: same bucket, new row key.
	if err := r.Replace(Tuple{String("CS101"), Int(1)}, grade("EE201", 7, "A")); err != nil {
		t.Fatal(err)
	}
	got, err := indexLookup(t, r, []string{"Grade"}, Tuple{String("A")})
	if err != nil || len(got) != 2 {
		t.Fatalf("bucket A = %d rows, %v", len(got), err)
	}
	if !got[0].Equal(RowOf(grade("CS101", 2, "A"))) || !got[1].Equal(RowOf(grade("EE201", 7, "A"))) {
		t.Fatalf("bucket A rows = %v", got)
	}
	// Key change and bucket change together.
	if err := r.Replace(Tuple{String("EE201"), Int(7)}, grade("ME301", 9, "B")); err != nil {
		t.Fatal(err)
	}
	a, _ := indexLookup(t, r, []string{"Grade"}, Tuple{String("A")})
	b, _ := indexLookup(t, r, []string{"Grade"}, Tuple{String("B")})
	if len(a) != 1 || len(b) != 1 || !b[0].Equal(RowOf(grade("ME301", 9, "B"))) {
		t.Fatalf("buckets after move: A=%v B=%v", a, b)
	}
}

// Mutating a COW clone's index must leave the original's buckets
// untouched — the index analogue of TestRelationCloneIsDeep, via the
// transaction layer a reader actually races with.
func TestTxCloneIndexIndependence(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation(gradesSchema(t))
	rel := db.MustRelation("GRADES")
	if err := rel.CreateIndex("byGrade", []string{"Grade"}); err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}

	snapshot := db.MustRelation("GRADES")
	tx := db.Begin()
	if err := tx.Insert("GRADES", grade("CS101", 2, "A")); err != nil {
		t.Fatal(err)
	}
	// The committed snapshot's bucket is untouched while the Tx clone has
	// the extra row.
	got, err := indexLookup(t, snapshot, []string{"Grade"}, Tuple{String("A")})
	if err != nil || len(got) != 1 {
		t.Fatalf("committed bucket = %d rows, %v (clone mutation leaked)", len(got), err)
	}
	txRel, err := tx.Relation("GRADES")
	if err != nil {
		t.Fatal(err)
	}
	inTx, err := indexLookup(t, txRel, []string{"Grade"}, Tuple{String("A")})
	if err != nil || len(inTx) != 2 {
		t.Fatalf("tx bucket = %d rows, %v", len(inTx), err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The pre-commit snapshot still answers from its own buckets.
	got, err = indexLookup(t, snapshot, []string{"Grade"}, Tuple{String("A")})
	if err != nil || len(got) != 1 {
		t.Fatalf("snapshot bucket after commit = %d rows, %v", len(got), err)
	}
	// The new head sees both.
	head, _ := indexLookup(t, db.MustRelation("GRADES"), []string{"Grade"}, Tuple{String("A")})
	if len(head) != 2 {
		t.Fatalf("head bucket = %d rows", len(head))
	}
}

// batchPath is a relation and the attribute list that reaches one
// MatchEqualBatchAt access path on it.
type batchPath struct {
	name  string
	r     *Relation
	attrs []string
}

// batchPaths returns one relation per MatchEqualBatchAt access path over
// the same rows — a shared scan, a secondary index over (CourseID,
// Grade), one over (Grade, CourseID) that the same lookup reaches in the
// other order, and the row tree — each with the attribute list that
// reaches that path.
func batchPaths(t *testing.T) []batchPath {
	t.Helper()
	fill := func() *Relation {
		r := newGradesRel(t)
		for pid := int64(1); pid <= 60; pid++ {
			g := string(rune('A' + pid%3))
			if err := r.Insert(grade(fmt.Sprintf("C%d", pid%4), pid, g)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	scan, same, permuted, point := fill(), fill(), fill(), fill()
	if err := same.CreateIndex("cg", []string{"CourseID", "Grade"}); err != nil {
		t.Fatal(err)
	}
	if err := permuted.CreateIndex("gc", []string{"Grade", "CourseID"}); err != nil {
		t.Fatal(err)
	}
	return []batchPath{
		{"scan", scan, []string{"CourseID", "Grade"}},
		{"index", same, []string{"CourseID", "Grade"}},
		{"permuted-index", permuted, []string{"CourseID", "Grade"}},
		{"point", point, []string{"PID", "CourseID"}},
	}
}

// batchVals returns value sets for attrs (see batchPaths): hits, a
// repeat and a miss.
func batchVals(attrs []string) []Tuple {
	if attrs[0] == "PID" {
		return []Tuple{{Int(5), String("C1")}, {Int(6), String("C2")}, {Int(5), String("C1")}, {Int(5), String("C3")}}
	}
	return []Tuple{
		{String("C1"), String("A")}, {String("C2"), String("B")}, {String("C1"), String("A")},
		{String("C3"), String("C")}, {String("C0"), String("Z")},
	}
}

// A batch answers each value set exactly as MatchEqual does, on every
// access path — including an index declared in a different attribute
// order from the lookup — and duplicate value sets share one bucket
// and one probe.
func TestMatchEqualBatchEqualsPerSetLookups(t *testing.T) {
	for _, p := range batchPaths(t) {
		t.Run(p.name, func(t *testing.T) {
			vals := batchVals(p.attrs)
			var st MatchStats
			got, err := matchBatch(p.r, p.attrs, vals, &st)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(vals) {
				t.Fatalf("batch has %d buckets for %d value sets", len(got), len(vals))
			}
			distinct := map[string]bool{}
			for i, vs := range vals {
				distinct[EncodeValues(vs...)] = true
				want, err := p.r.MatchEqual(p.attrs, vs)
				if err != nil {
					t.Fatal(err)
				}
				bucket := got[i]
				if (bucket == nil) != (len(want) == 0) || len(bucket) != len(want) {
					t.Fatalf("%v: batch %v, MatchEqual %v", vs, bucket, want)
				}
				for i := range want {
					if !bucket[i].Equal(want[i]) {
						t.Fatalf("%v row %d: batch %v, MatchEqual %v", vs, i, bucket[i], want[i])
					}
				}
			}
			if p.name == "scan" {
				if st.Scans != 1 || st.Probes != 0 {
					t.Fatalf("stats %+v, want one shared scan", st)
				}
			} else if st.Scans != 0 || st.Probes != len(distinct) {
				t.Fatalf("stats %+v, want %d probes (one per distinct value set)", st, len(distinct))
			}
		})
	}
}

// A batch hands out the stored rows, read-only: a row's copy-out is the
// caller's own, so editing it changes neither the relation nor a later
// batch, and every bucket is full-capacity, so appending to one
// reallocates it and leaves its neighbours — and the buckets it shares
// with equal value sets — as they were.
func TestMatchEqualBatchReturnsCopies(t *testing.T) {
	for _, p := range batchPaths(t) {
		t.Run(p.name, func(t *testing.T) {
			vals := batchVals(p.attrs)
			first, err := matchBatch(p.r, p.attrs, vals, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := matchBatch(p.r, p.attrs, vals, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := p.r.All()
			for k, bucket := range first {
				for _, row := range bucket {
					out := row.Tuple()
					out[2] = String("mutated")
				}
				first[k] = append(bucket, RowOf(grade("X", 0, "X")))
			}
			for i, row := range p.r.All() {
				if !row.Equal(before[i]) || row.At(2).Equal(String("mutated")) {
					t.Fatalf("relation row %d changed to %v", i, row)
				}
			}
			again, err := matchBatch(p.r, p.attrs, vals, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(want) {
				t.Fatalf("second batch has %d buckets, want %d", len(again), len(want))
			}
			for k, bucket := range want {
				if len(first[k]) != len(bucket)+1 {
					t.Fatalf("appending to one bucket changed another: %v", first[k])
				}
				for i := range bucket {
					if !again[k][i].Equal(bucket[i]) || !first[k][i].Equal(bucket[i]) {
						t.Fatalf("bucket %d row %d: %v and %v, want %v", k, i, first[k][i], again[k][i], bucket[i])
					}
				}
			}
		})
	}
}

// A value set that fails validation fails the whole batch, however late
// it comes: an error and a nil result, never a partial answer.
func TestMatchEqualBatchLateBadValueSet(t *testing.T) {
	for _, p := range batchPaths(t) {
		t.Run(p.name, func(t *testing.T) {
			vals := batchVals(p.attrs)
			bad := append(append([]Tuple(nil), vals...), Tuple{Int(1), Int(2), Int(3)})
			got, err := matchBatch(p.r, p.attrs, bad, nil)
			if err == nil || got != nil {
				t.Fatalf("late arity mismatch = %v, %v; want nil and an error", got, err)
			}
			wrongKind := append(append([]Tuple(nil), vals...), Tuple{Int(1), Int(2)})
			if p.attrs[0] == "PID" {
				wrongKind[len(vals)] = Tuple{String("x"), String("y")}
			}
			got, err = matchBatch(p.r, p.attrs, wrongKind, nil)
			if err == nil || got != nil {
				t.Fatalf("late wrong-kind value set = %v, %v; want nil and an error", got, err)
			}
		})
	}
}

// Every equality lookup compares as Value.Equal does, also where no
// index holds a column to the key codec's exact domain: an unindexed Int
// column storing 2^53+1, whose float64 — and so whose key encoding — is
// 2^53's, holds no row equal to Int(2^53) through MatchEqual, the
// batch's scan or Select. On a Float column the same stored int equals
// Float(2^53) but not Int(2^53), so one batch of both answers each apart.
func TestEqualityLookupsCompareExactly(t *testing.T) {
	s := MustSchema("R", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "N", Type: KindInt},
		{Name: "F", Type: KindFloat},
	}, []string{"ID"})
	r := NewRelation(s)
	if err := r.Insert(Tuple{Int(1), Int(1<<53 + 1), Int(1<<53 + 1)}); err != nil {
		t.Fatal(err)
	}
	probe := Tuple{Int(1 << 53)}
	if got, err := r.MatchEqual([]string{"N"}, probe); err != nil || len(got) != 0 {
		t.Fatalf("MatchEqual N = %v, %v; want no row", got, err)
	}
	var st MatchStats
	got, err := matchBatch(r, []string{"N"}, []Tuple{probe, {Int(7)}}, &st)
	if err != nil || st.Scans != 1 || len(got[0]) != 0 {
		t.Fatalf("MatchEqualBatchAt N = %v, %v (%+v); want a scan and no row", got, err, st)
	}
	if got, err := r.Select(Eq("N", probe[0])); err != nil || len(got) != 0 {
		t.Fatalf("Select N = %v, %v; want no row", got, err)
	}
	byKind, err := matchBatch(r, []string{"F"}, []Tuple{probe, {Float(1 << 53)}, probe}, nil)
	if err != nil || len(byKind[0]) != 0 || len(byKind[1]) != 1 || len(byKind[2]) != 0 {
		t.Fatalf("MatchEqualBatchAt F = %v, %v; want no row, the row, no row", byKind, err)
	}
	for i, vs := range []Tuple{probe, {Float(1 << 53)}} {
		if want, err := r.MatchEqual([]string{"F"}, vs); err != nil || len(want) != len(byKind[i]) {
			t.Fatalf("MatchEqual F %v = %v, %v; the batch answered %v", vs, want, err, byKind[i])
		}
	}
}
