package reldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// modelRel is the oracle the tree storage is checked against: a map of
// rows and a sort wherever order is needed — the storage the tree
// replaced, kept as the reference implementation.
type modelRel struct {
	schema  *Schema
	rows    map[string]Tuple    // encoded key → tuple
	indexes map[string][]string // index name → attribute names
}

func modelSchema() *Schema {
	return MustSchema("M", []Attribute{
		{Name: "A", Type: KindInt},
		{Name: "B", Type: KindInt},
		{Name: "C", Type: KindInt, Nullable: true},
		{Name: "S", Type: KindString, Nullable: true},
		{Name: "F", Type: KindFloat, Nullable: true},
		{Name: "X", Type: KindInt, Nullable: true},
	}, []string{"A", "B"})
}

// modelIndexes are the indexes the op stream may create. Each covers a
// different attribute set, so MatchEqual on its attributes probes it.
var modelIndexes = []struct {
	name  string
	attrs []string
}{
	{"byC", []string{"C"}},
	{"bySC", []string{"S", "C"}},
	{"byF", []string{"F"}},
	{"byCB", []string{"C", "B"}},
}

func (m *modelRel) copy() *modelRel {
	c := &modelRel{schema: m.schema, rows: make(map[string]Tuple, len(m.rows)), indexes: make(map[string][]string, len(m.indexes))}
	for k, t := range m.rows {
		c.rows[k] = t
	}
	for k, a := range m.indexes {
		c.indexes[k] = a
	}
	return c
}

// filter returns the rows keep accepts, in encoded-key order.
func (m *modelRel) filter(keep func(Tuple) bool) []Tuple {
	eks := make([]string, 0, len(m.rows))
	for ek, t := range m.rows {
		if keep == nil || keep(t) {
			eks = append(eks, ek)
		}
	}
	sort.Strings(eks)
	out := make([]Tuple, len(eks))
	for i, ek := range eks {
		out[i] = m.rows[ek]
	}
	return out
}

func (m *modelRel) equalOn(attrs []string, vals Tuple) func(Tuple) bool {
	idx, err := m.schema.Indices(attrs)
	if err != nil {
		panic(err)
	}
	return func(t Tuple) bool {
		for i, j := range idx {
			if !t[j].Equal(vals[i]) {
				return false
			}
		}
		return true
	}
}

// satisfiesEq is equalOn under a predicate's three-valued logic: a null
// on either side of an equality matches nothing.
func (m *modelRel) satisfiesEq(attrs []string, vals Tuple) func(Tuple) bool {
	eq := m.equalOn(attrs, vals)
	idx, _ := m.schema.Indices(attrs)
	return func(t Tuple) bool {
		for i, j := range idx {
			if t[j].IsNull() || vals[i].IsNull() {
				return false
			}
		}
		return eq(t)
	}
}

// leads reports whether attr leads the primary key or one of the
// oracle's indexes: the attributes a range can walk.
func (m *modelRel) leads(attr string) bool {
	if m.schema.AttrNames()[m.schema.Key()[0]] == attr {
		return true
	}
	for _, attrs := range m.indexes {
		if attrs[0] == attr {
			return true
		}
	}
	return false
}

// covers reports whether the primary key or one of the oracle's indexes
// is over exactly the attribute set attrs: the sets an equality probes.
func (m *modelRel) covers(attrs []string) bool {
	same := func(b []string) bool {
		if len(b) != len(attrs) {
			return false
		}
		for _, a := range b {
			if !slices.Contains(attrs, a) {
				return false
			}
		}
		return true
	}
	var key []string
	for _, k := range m.schema.Key() {
		key = append(key, m.schema.AttrNames()[k])
	}
	if same(key) {
		return true
	}
	for _, ix := range m.indexes {
		if same(ix) {
			return true
		}
	}
	return false
}

func (m *modelRel) inRange(attr string, lo, hi *rangeBound) func(Tuple) bool {
	j, _ := m.schema.AttrIndex(attr)
	return func(t Tuple) bool {
		v := t[j]
		if v.IsNull() || (lo != nil && lo.V.IsNull()) || (hi != nil && hi.V.IsNull()) {
			return false
		}
		if lo != nil {
			if c, _ := Compare(v, lo.V); c < 0 || (c == 0 && lo.Strict) {
				return false
			}
		}
		if hi != nil {
			if c, _ := Compare(v, hi.V); c > 0 || (c == 0 && hi.Strict) {
				return false
			}
		}
		return true
	}
}

// tuplesOf unwraps rows, for comparing two reads with sameTuples.
func tuplesOf(rows []Row) []Tuple {
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Tuple()
	}
	return out
}

func sameTuples(t testing.TB, what string, got []Row, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Tuple().Equal(want[i]) {
			t.Fatalf("%s: tuple %d = %v, oracle has %v", what, i, got[i], want[i])
		}
	}
}

// Probe values: a few of each kind the generator stores, a null, an
// absent one.
var (
	modelCs = []Value{Null(), Int(-3), Int(0), Int(2), Int(7), Int(99)}
	modelSs = []Value{Null(), String("s0"), String("s3"), String("s5"), String("zz")}
	modelFs = []Value{Null(), Float(-1), Float(0.5), Int(1), Float(1), Float(3)}
	modelXs = []Value{Null(), Int(maxExactInt - 1), Int(maxExactInt)}
)

// rangeBound is one side of a range case: the constant the attribute is
// compared with and whether the comparison excludes it (< or >).
type rangeBound struct {
	V      Value
	Strict bool
}

func bound(v Value, strict bool) *rangeBound { return &rangeBound{V: v, Strict: strict} }

// rangePred is the conjunction a range case stands for, with the
// constant written on the left of its upper bound.
func rangePred(attr string, lo, hi *rangeBound) Expr {
	var terms []Expr
	if lo != nil {
		op := OpGe
		if lo.Strict {
			op = OpGt
		}
		terms = append(terms, Cmp{Op: op, L: Attr{Name: attr}, R: Const{V: lo.V}})
	}
	if hi != nil {
		op := OpGe // c >= attr is attr <= c
		if hi.Strict {
			op = OpGt
		}
		terms = append(terms, Cmp{Op: op, L: Const{V: hi.V}, R: Attr{Name: attr}})
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return And{Terms: terms}
}

// eqPred is the equality conjunction over attrs and vals, with the
// constant written on the left of every second term.
func eqPred(attrs []string, vals Tuple) Expr {
	terms := make([]Expr, len(attrs))
	for i, a := range attrs {
		terms[i] = Eq(a, vals[i])
		if i%2 == 1 {
			terms[i] = Cmp{Op: OpEq, L: Const{V: vals[i]}, R: Attr{Name: a}}
		}
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return And{Terms: terms}
}

// checkSelect runs pred through SelectStats and compares its answer with
// the oracle's, and the path it took with the one its stats report: a
// probe (key, index or range walk) charging exactly the tuples it
// returns, or a scan charging the whole relation.
func checkSelect(t testing.TB, r *Relation, pred Expr, want []Tuple, probe bool) {
	t.Helper()
	var st MatchStats
	got, err := r.SelectStats(pred, &st)
	what := fmt.Sprintf("Select(%s)", pred)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameTuples(t, what, got, want)
	charged := MatchStats{Scans: 1, Scanned: r.Count()}
	if probe {
		charged = MatchStats{Probes: 1, Scanned: len(got)}
	}
	if st != charged {
		t.Fatalf("%s: probe=%v but charged %+v", what, probe, st)
	}
}

// checkRows compares r's rows, in scan order, against the oracle's, and
// returns them.
func checkRows(t testing.TB, r *Relation, m *modelRel) []Tuple {
	t.Helper()
	if r.Count() != len(m.rows) {
		t.Fatalf("Count = %d, oracle has %d", r.Count(), len(m.rows))
	}
	all := m.filter(nil)
	var scanned []Row
	r.Scan(func(tu Row) bool { scanned = append(scanned, tu); return true })
	sameTuples(t, "Scan", scanned, all)
	return all
}

// checkDiff compares Diff from a captured version to the current one with
// the oracle's net difference between the two states, and checks that
// applying it to the captured version reproduces the current rows.
func checkDiff(t testing.TB, was *modelRun, r *Relation, m *modelRel) {
	t.Helper()
	eks := make([]string, 0, len(was.m.rows)+len(m.rows))
	for ek := range was.m.rows {
		eks = append(eks, ek)
	}
	for ek := range m.rows {
		if _, ok := was.m.rows[ek]; !ok {
			eks = append(eks, ek)
		}
	}
	sort.Strings(eks)
	var ins, del, repOld, repNew []Tuple
	for _, ek := range eks {
		old, inOld := was.m.rows[ek]
		now, inNew := m.rows[ek]
		switch {
		case !inOld:
			ins = append(ins, now)
		case !inNew:
			del = append(del, old)
		case !old.Equal(now):
			repOld, repNew = append(repOld, old), append(repNew, now)
		}
	}
	d := Diff(was.r, r)
	sameTuples(t, "Diff inserts", d.Inserts, ins)
	sameTuples(t, "Diff deletes", d.Deletes, del)
	var gotOld, gotNew []Row
	for _, rc := range d.Replaces {
		gotOld, gotNew = append(gotOld, rc.Old), append(gotNew, rc.New)
	}
	sameTuples(t, "Diff replaces (old)", gotOld, repOld)
	sameTuples(t, "Diff replaces (new)", gotNew, repNew)
	c := was.r.clone()
	if err := applyDelta(c, d); err != nil {
		t.Fatalf("applying Diff to the captured version: %v", err)
	}
	checkRows(t, c, m)
}

// checkModel compares every read path of r against the oracle.
func checkModel(t testing.TB, r *Relation, m *modelRel) {
	t.Helper()
	// The oracle sorts once per check; every expected answer below is a
	// filter of that one sorted list.
	all := checkRows(t, r, m)
	filter := func(keep func(Tuple) bool) []Tuple {
		var out []Tuple
		for _, tu := range all {
			if keep(tu) {
				out = append(out, tu)
			}
		}
		return out
	}
	for a := int64(0); a < modelAs; a++ {
		for b := int64(0); b < modelBs; b += 5 {
			key := Tuple{Int(a), Int(b)}
			want, ok := m.rows[EncodeValues(key...)]
			got, gok := r.Get(key)
			if ok != gok || (ok && !got.Tuple().Equal(want)) {
				t.Fatalf("Get %v = %v, %v; oracle has %v, %v", key, got, gok, want, ok)
			}
		}
	}

	type eq struct {
		attrs []string
		vals  Tuple
	}
	var eqs []eq
	for _, c := range modelCs {
		eqs = append(eqs, eq{[]string{"C"}, Tuple{c}})
		for _, s := range modelSs[:3] {
			eqs = append(eqs, eq{[]string{"S", "C"}, Tuple{s, c}}, eq{[]string{"C", "S"}, Tuple{c, s}})
		}
	}
	for _, f := range modelFs {
		eqs = append(eqs, eq{[]string{"F"}, Tuple{f}})
	}
	for _, x := range modelXs {
		eqs = append(eqs, eq{[]string{"X"}, Tuple{x}})
	}
	eqs = append(eqs, eq{[]string{"A"}, Tuple{Int(7)}}, eq{[]string{"A", "B"}, Tuple{Int(7), Int(5)}},
		eq{[]string{"B", "A"}, Tuple{Int(5), Int(7)}}, eq{[]string{"C", "B"}, Tuple{Int(2), Int(5)}})
	for _, e := range eqs {
		got, err := r.MatchEqual(e.attrs, e.vals)
		if err != nil {
			t.Fatalf("MatchEqual %v %v: %v", e.attrs, e.vals, err)
		}
		sameTuples(t, fmt.Sprintf("MatchEqual %v %v", e.attrs, e.vals), got, filter(m.equalOn(e.attrs, e.vals)))
	}
	checkBatches(t, r, m, filter)
	for name, attrs := range m.indexes {
		for _, c := range modelCs[:4] {
			vals := Tuple{c}
			switch name {
			case "bySC":
				vals = Tuple{String("s3"), c}
			case "byF":
				vals = Tuple{Float(0.5)}
			case "byCB":
				vals = Tuple{c, Int(5)}
			}
			got, err := indexLookup(t, r, attrs, vals)
			if err != nil {
				t.Fatalf("index %s %v: %v", name, vals, err)
			}
			sameTuples(t, fmt.Sprintf("index %s %v", name, vals), got, filter(m.equalOn(attrs, vals)))
		}
	}
	for _, name := range r.IndexNames() {
		if _, ok := m.indexes[name]; !ok {
			t.Fatalf("index %s exists, oracle has none", name)
		}
	}

	for _, rg := range []struct {
		attr   string
		lo, hi *rangeBound
		exact  bool // every bound has an exact tree position
	}{
		{"A", bound(Int(10), false), bound(Int(20), true), true}, // leading key attribute
		{"A", bound(Int(10), true), bound(Int(20), false), true},
		{"A", bound(Float(10.5), false), nil, true}, // float bound on an int attribute
		{"A", nil, bound(Float(3.5), true), true},
		{"A", bound(Int(30), false), bound(Int(5), false), true}, // empty
		{"B", bound(Int(3), true), bound(Int(9), true), true},    // key attribute that does not lead: scan
		{"C", bound(Int(0), false), nil, true},                   // indexed or not, as the ops left it; nulls
		{"C", bound(Int(-3), true), bound(Int(7), true), true},
		{"C", nil, bound(Float(2.5), false), true},
		{"C", bound(Int(maxExactInt+1), false), nil, false}, // no exact tree position: scan
		{"C", bound(Null(), false), nil, false},             // matches nothing, three-valued: scan
		{"S", bound(String("s1"), false), bound(String("s4"), false), true},
		{"S", bound(String("s3"), true), nil, true},
		{"F", bound(Int(0), true), bound(Float(2), true), true},
		{"F", nil, bound(Float(math.Copysign(0, -1)), false), true}, // -0.0 and 0 are one bound
	} {
		checkSelect(t, r, rangePred(rg.attr, rg.lo, rg.hi), filter(m.inRange(rg.attr, rg.lo, rg.hi)),
			rg.exact && m.leads(rg.attr))
	}
	for _, e := range []struct {
		attrs []string
		vals  Tuple
		exact bool // every constant is one a probe finds every equal stored value by
	}{
		{[]string{"A", "B"}, Tuple{Int(7), Int(5)}, true},                // the primary-key point
		{[]string{"B", "A"}, Tuple{Int(5), Int(40)}, true},               // in the other order
		{[]string{"A"}, Tuple{Int(7)}, true},                             // a key prefix: no path, scan
		{[]string{"C"}, Tuple{Int(2)}, true},                             // byC, as the ops left it
		{[]string{"C", "S"}, Tuple{Int(2), String("s3")}, true},          // bySC lists S first
		{[]string{"B", "C"}, Tuple{Int(5), Int(7)}, true},                // byCB lists C first
		{[]string{"F"}, Tuple{Float(0.5)}, true},                         // a Float column
		{[]string{"F"}, Tuple{Int(1)}, true},                             // an Int on a Float column
		{[]string{"F"}, Tuple{Int(0)}, true},                             // ... against a stored 0.0
		{[]string{"F"}, Tuple{Float(math.Copysign(0, -1))}, true},        // -0.0 against a stored 0.0
		{[]string{"X"}, Tuple{Int(maxExactInt)}, true},                   // beside a stored maxExactInt+1, which encodes alike
		{[]string{"C"}, Tuple{Null()}, false},                            // a null constant
		{[]string{"S", "C"}, Tuple{Null(), Int(2)}, false},               // ... on a covered set
		{[]string{"C"}, Tuple{Int(maxExactInt + 1)}, false},              // an int no key can hold
		{[]string{"C", "C"}, Tuple{Int(2), Int(2)}, false},               // a duplicated attribute
		{[]string{"C", "C"}, Tuple{Int(2), Int(7)}, false},               // ... contradicting itself
		{[]string{"A", "B"}, Tuple{Int(7), Float(5)}, true},              // a Float on an Int key
		{[]string{"A", "B"}, Tuple{Int(7), Float(5.5)}, true},            // ... that no int equals
		{[]string{"A", "B"}, Tuple{Int(maxExactInt + 1), Int(5)}, false}, // out of domain on the key
	} {
		checkSelect(t, r, eqPred(e.attrs, e.vals), filter(m.satisfiesEq(e.attrs, e.vals)),
			e.exact && m.covers(e.attrs))
	}

	pred := Cmp{Op: OpGt, L: Attr{Name: "C"}, R: Const{V: Int(2)}}
	wantSel := filter(func(tu Tuple) bool { return !tu[2].IsNull() && tu[2].MustInt() > 2 })
	got, err := r.Select(pred)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "Select(C > 2)", got, wantSel)
	if got, err = r.Select(nil); err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "Select(nil)", got, all)
}

// checkBatches runs MatchEqualBatchAt over value-set lists that hold
// duplicates (Int(1) and Float(1) among them: one value, one encoding),
// nulls, an int a stored one past the key codec's exact domain shares
// its encoding with and, on a covered attribute set and on one that
// scans, sets in shuffled order. Each answer must be aligned with its sets and equal
// the oracle's per set, equal sets must share one bucket, and the batch
// must cost one probe per distinct set or one scan. A bad set anywhere
// in a batch fails it whole.
func checkBatches(t testing.TB, r *Relation, m *modelRel, filter func(func(Tuple) bool) []Tuple) {
	t.Helper()
	var cs, ss, fs, xs []Tuple
	for _, c := range modelCs {
		cs = append(cs, Tuple{c})
		for _, sv := range modelSs[:3] {
			ss = append(ss, Tuple{sv, c})
		}
	}
	for _, f := range modelFs {
		fs = append(fs, Tuple{f})
	}
	for _, x := range modelXs {
		xs = append(xs, Tuple{x})
	}
	var keys, prefixes []Tuple
	for a := int64(5); a < 9; a++ {
		keys = append(keys, Tuple{Int(a), Int(a % 3)}, Tuple{Int(a), Int(5)})
		prefixes = append(prefixes, Tuple{Int(a)})
	}
	swap := func(sets []Tuple) []Tuple {
		out := make([]Tuple, len(sets))
		for i, vs := range sets {
			out[i] = Tuple{vs[1], vs[0]}
		}
		return out
	}
	cb := make([]Tuple, len(cs))
	for i, c := range cs {
		cb[i] = Tuple{c[0], Int(int64(i % 2 * 5))}
	}
	for _, batch := range []struct {
		attrs []string
		sets  []Tuple
	}{
		{[]string{"C"}, cs}, {[]string{"F"}, fs}, {[]string{"X"}, xs}, {[]string{"S", "C"}, ss}, {[]string{"C", "S"}, swap(ss)},
		{[]string{"C", "B"}, cb}, {[]string{"A", "B"}, keys}, {[]string{"B", "A"}, swap(keys)}, {[]string{"A"}, prefixes},
	} {
		// Every set twice, the second copies in reverse order.
		sets := append(slices.Clone(batch.sets), batch.sets...)
		slices.Reverse(sets[len(batch.sets):])
		what := fmt.Sprintf("MatchEqualBatchAt %v", batch.attrs)
		var st MatchStats
		got, err := matchBatch(r, batch.attrs, sets, &st)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got) != len(sets) {
			t.Fatalf("%s: %d buckets for %d sets", what, len(got), len(sets))
		}
		bucket := map[string][]Row{}
		for i, vs := range sets {
			want := filter(m.equalOn(batch.attrs, vs))
			sameTuples(t, fmt.Sprintf("%s %v", what, vs), got[i], want)
			if len(want) == 0 && got[i] != nil {
				t.Fatalf("%s %v: empty bucket is not nil", what, vs)
			}
			ek := EncodeValues(vs...)
			if b, seen := bucket[ek]; seen && len(b) > 0 && &b[0] != &got[i][0] {
				t.Fatalf("%s %v: equal sets got separate buckets", what, vs)
			}
			bucket[ek] = got[i]
		}
		charged := MatchStats{Scans: 1, Scanned: r.Count()}
		if m.covers(batch.attrs) {
			charged = MatchStats{Probes: len(bucket)}
			for _, b := range bucket {
				charged.Scanned += len(b)
			}
		}
		if st != charged {
			t.Fatalf("%s: charged %+v, want %+v", what, st, charged)
		}
		// Bad sets: one value too many, a value of the wrong kind, and a
		// null where the attribute is a key attribute.
		tooLong := append(slices.Clone(sets[0]), Int(1))
		wrongKind := slices.Clone(sets[0])
		if wrongKind[0] = String("x"); batch.attrs[0] == "S" {
			wrongKind[0] = Int(1)
		}
		bads := []Tuple{tooLong, wrongKind}
		if k := slices.IndexFunc(batch.attrs, func(a string) bool { return a == "A" || a == "B" }); k >= 0 {
			null := slices.Clone(sets[0])
			null[k] = Null()
			bads = append(bads, null)
		}
		for n, bad := range bads {
			at := []int{0, len(sets) / 2, len(sets)}[n%3]
			withBad := slices.Insert(slices.Clone(sets), at, bad)
			if got, err := matchBatch(r, batch.attrs, withBad, nil); err == nil || got != nil {
				t.Fatalf("%s with bad set %v at %d: %v, %d buckets; want an error and none", what, bad, at, err, len(got))
			}
		}
	}
}

const (
	modelAs = 48 // A in [0,48), B in [0,16): 768 keys
	modelBs = 16
	// modelSeedRows rows are stored before the op stream runs, so that
	// the tree has height.
	modelSeedRows = 600
)

// modelTuple derives a row from three bytes: the key from a and b, the
// rest from v — nulls, a negative int, a float attribute that sometimes
// holds an int, and an int no index covers around the edge of the key
// codec's exact domain.
func modelTuple(a, b, v byte) Tuple {
	t := Tuple{Int(int64(a) % modelAs), Int(int64(b) % modelBs), Null(), Null(), Null(), Null()}
	if v%7 != 0 {
		t[2] = Int(int64(v%11) - 3)
	}
	if v%5 != 0 {
		t[3] = String(fmt.Sprintf("s%d", v%6))
	}
	switch {
	case v%4 == 1:
		t[4] = Int(int64(v % 3))
	case v%3 != 0:
		t[4] = Float(float64(v%9)/2 - 1)
	}
	if v%2 == 0 {
		t[5] = Int(maxExactInt - 1 + int64(v%3)) // maxExactInt+1 encodes as maxExactInt
	}
	return t
}

// modelRun is one relation and its oracle driven in lockstep, plus every
// version a clone op captured along the way with the oracle state it had.
type modelRun struct {
	r        *Relation
	m        *modelRel
	captured []modelRun
}

func newModelRun(t testing.TB) *modelRun {
	s := modelSchema()
	run := &modelRun{r: NewRelation(s), m: &modelRel{schema: s, rows: map[string]Tuple{}, indexes: map[string][]string{}}}
	for i := 0; i < modelSeedRows; i++ {
		tu := modelTuple(byte(i*7%modelAs), byte(i/modelAs), byte(i*13))
		if err := run.r.Insert(tu); err != nil {
			t.Fatal(err)
		}
		run.m.rows[s.EncodeKeyOf(tu)] = tu
	}
	return run
}

// step interprets four bytes as one operation, applies it to both sides
// and checks that they agree on its outcome. It returns the key it
// touched.
func (run *modelRun) step(t testing.TB, op, a, b, v byte) Tuple {
	t.Helper()
	r, m, s := run.r, run.m, run.m.schema
	tu := modelTuple(a, b, v)
	key := s.KeyOf(tu)
	ek := s.EncodeKeyOf(tu)
	_, present := m.rows[ek]
	expect := func(what string, err, want error) {
		t.Helper()
		if (want == nil) != (err == nil) || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("%s %v: error %v, oracle expects %v", what, key, err, want)
		}
	}
	switch op % 8 {
	case 0, 1:
		var want error
		if present {
			want = ErrDuplicateKey
		}
		expect("Insert", r.Insert(tu), want)
		if !present {
			m.rows[ek] = tu
		}
	case 2, 3:
		var want error
		if !present {
			want = ErrNoSuchTuple
		}
		_, err := r.Delete(key)
		expect("Delete", err, want)
		delete(m.rows, ek)
	case 4:
		var want error
		if !present {
			want = ErrNoSuchTuple
		}
		expect("Replace", r.Replace(key, tu), want)
		if present {
			m.rows[ek] = tu
		}
	case 5: // key-changing replace: (a, b) moves to (v, a)
		nt := modelTuple(v, a, b)
		nek := s.EncodeKeyOf(nt)
		var want error
		if _, clash := m.rows[nek]; !present {
			want = ErrNoSuchTuple
		} else if clash && nek != ek {
			want = ErrDuplicateKey
		}
		expect("Replace (new key)", r.Replace(key, nt), want)
		if want == nil {
			delete(m.rows, ek)
			m.rows[nek] = nt
		}
	case 6:
		ix := modelIndexes[int(a)%len(modelIndexes)]
		_, exists := m.indexes[ix.name]
		if err := r.CreateIndex(ix.name, ix.attrs); (err != nil) != exists {
			t.Fatalf("CreateIndex %s: %v, oracle has it: %v", ix.name, err, exists)
		}
		m.indexes[ix.name] = ix.attrs
	case 7:
		// Either side of a clone may be the one that goes on being written;
		// the other must keep reading as it did.
		c := r.clone()
		if a%2 == 0 {
			r, c = c, r
		}
		run.r = r
		run.captured = append(run.captured, modelRun{r: c, m: m.copy()})
	}
	return key
}

// rewriteEqual replaces the first n rows with equal values: new stored
// copies that a diff from any captured version must see through.
func (run *modelRun) rewriteEqual(t testing.TB, n int) {
	t.Helper()
	rows := run.m.filter(nil)
	for _, tu := range rows[:min(n, len(rows))] {
		if err := run.r.Replace(run.m.schema.KeyOf(tu), tu); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRelationMatchesModel drives seeded random operation sequences
// against the tree-backed relation and the map-plus-sort oracle, comparing
// every read path after every step; then every version captured by a
// clone along the way must still read exactly as it did when captured, and
// diff to the final version as the oracle's states do.
func TestRelationMatchesModel(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 40
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run := newModelRun(t)
		checkModel(t, run.r, run.m)
		for i := 0; i < steps; i++ {
			op := byte(rng.Intn(256))
			if i == steps/3 {
				op = 8 // at least one version is captured mid-run, whatever the seed deals
			}
			run.step(t, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			checkModel(t, run.r, run.m)
		}
		run.rewriteEqual(t, 8)
		for i := range run.captured {
			checkModel(t, run.captured[i].r, run.captured[i].m)
			checkDiff(t, &run.captured[i], run.r, run.m)
		}
	}
}

// FuzzRelationOps feeds arbitrary bytes to the same interpreter and the
// same oracle: a cheap check after every op, the full one at the end, and
// the rows of every captured version and its diff to the final one (the
// full check on each would leave the fuzzer a handful of inputs per
// second).
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{}) // the seed corpus is in testdata/fuzz
	// Every input starts from a clone of one seeded relation: cheaper than
	// seeding per input, and the base must come through all of them intact.
	base := newModelRun(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		run := &modelRun{r: base.r.clone(), m: base.m.copy()}
		for ; len(ops) >= 4; ops = ops[4:] {
			key := run.step(t, ops[0], ops[1], ops[2], ops[3])
			want, ok := run.m.rows[EncodeValues(key...)]
			if got, gok := run.r.Get(key); ok != gok || (ok && !got.Tuple().Equal(want)) || run.r.Count() != len(run.m.rows) {
				t.Fatalf("after op %v: Get %v = %v, %v; oracle has %v, %v", ops[:4], key, got, gok, want, ok)
			}
		}
		checkModel(t, run.r, run.m)
		run.rewriteEqual(t, 8)
		for i := range run.captured {
			checkRows(t, run.captured[i].r, run.captured[i].m)
			checkDiff(t, &run.captured[i], run.r, run.m)
		}
		if base.r.Count() != modelSeedRows {
			t.Fatalf("the shared base now holds %d rows", base.r.Count())
		}
	})
}
