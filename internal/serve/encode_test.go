package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
	"penguin/internal/workload"
)

// oracle is the encoder the handlers used before AppendInstance: the
// `any` document through json.Encoder with HTML escaping off.
func oracle(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Edge values by kind: the codec_test.go table plus what only a string
// escaper can get wrong.
var (
	edgeInts   = []int64{0, -1, 17, math.MaxInt64, math.MinInt64, 1<<53 + 1}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 3, 0.1, 1e21, 1e-7, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001),
	}
	edgeStrings = []string{
		"", "plain", "non-ASCII: héllo, 世界", "embedded \x00 NUL",
		"controls \x01\x08\x09\x0a\x0b\x0c\x0d\x1f", "DEL \x7f", "<>& stay", `quote " and \ backslash`,
		"separators \u2028 and \u2029", "their neighbours \u2027 \u202a \u2068 \ue028",
		"\xff\xfe not UTF-8", string([]byte{0x80, 0x81, 'a', 0xc3}), "cut short \xe2\x80",
	}
)

// encodeFixture is a definition with nested children, attribute and node
// names that need escaping, and every attribute kind nullable: R owns M
// and E (projected), M owns the leaf relation.
func encodeFixture(t testing.TB) *viewobject.Definition {
	t.Helper()
	db := reldb.NewDatabase()
	vals := []reldb.Attribute{
		{Name: "s", Type: reldb.KindString, Nullable: true},
		{Name: "f", Type: reldb.KindFloat, Nullable: true},
		{Name: "i", Type: reldb.KindInt, Nullable: true},
		{Name: "b", Type: reldb.KindBool, Nullable: true},
		{Name: `q"uote\`, Type: reldb.KindString, Nullable: true},
		{Name: "tab\tand\x01", Type: reldb.KindString, Nullable: true},
		{Name: "<&>", Type: reldb.KindInt, Nullable: true},
		{Name: "é\u2028", Type: reldb.KindFloat, Nullable: true},
	}
	rel := func(name string, keys ...string) {
		attrs := make([]reldb.Attribute, 0, len(keys)+len(vals))
		for _, k := range keys {
			attrs = append(attrs, reldb.Attribute{Name: k, Type: reldb.KindInt})
		}
		db.MustCreateRelation(reldb.MustSchema(name, append(attrs, vals...), keys))
	}
	const leaf = `L"eaf`
	rel("R", "id")
	rel("M", "id", "mid")
	rel("E", "id", "eid")
	rel(leaf, "id", "mid", "lid")
	g := structural.NewGraph(db)
	own := func(from, to string, attrs ...string) structural.Edge {
		c := &structural.Connection{Name: from + ">" + to, Type: structural.Ownership,
			From: from, To: to, FromAttrs: attrs, ToAttrs: attrs}
		if err := g.AddConnection(c); err != nil {
			t.Fatal(err)
		}
		return structural.Edge{Conn: c, Forward: true}
	}
	root := &viewobject.Node{Relation: "R", Children: []*viewobject.Node{
		{Relation: "M", Path: []structural.Edge{own("R", "M", "id")}, Children: []*viewobject.Node{
			{Relation: leaf, Path: []structural.Edge{own("M", leaf, "id", "mid")}},
		}},
		// A projection, with an attribute named twice: one document field.
		{Relation: "E", Attrs: []string{"eid", "s", "id", "s"}, Path: []structural.Edge{own("R", "E", "id")}},
	}}
	def, err := viewobject.NewDefinition("enc", g, root)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// randomTuple draws a full-width tuple for n's relation: small key
// values, and for the rest nulls, edge values and random ones, with ints
// in float attributes now and then (the cross-kind values reldb allows).
func randomTuple(rng *rand.Rand, def *viewobject.Definition, n *viewobject.Node) reldb.Tuple {
	schema := def.NodeSchema(n)
	t := make(reldb.Tuple, schema.Arity())
	isKey := make(map[int]bool)
	for _, k := range schema.Key() {
		isKey[k] = true
	}
	for i := range t {
		a := schema.Attr(i)
		switch {
		case isKey[i]:
			t[i] = reldb.Int(int64(rng.Intn(1000)))
		case rng.Intn(5) == 0:
			t[i] = reldb.Null()
		case a.Type == reldb.KindBool:
			t[i] = reldb.Bool(rng.Intn(2) == 0)
		case a.Type == reldb.KindInt || (a.Type == reldb.KindFloat && rng.Intn(4) == 0):
			if rng.Intn(2) == 0 {
				t[i] = reldb.Int(edgeInts[rng.Intn(len(edgeInts))])
			} else {
				t[i] = reldb.Int(int64(rng.Uint64()))
			}
		case a.Type == reldb.KindFloat:
			if rng.Intn(2) == 0 {
				t[i] = reldb.Float(edgeFloats[rng.Intn(len(edgeFloats))])
			} else {
				t[i] = reldb.Float(math.Float64frombits(rng.Uint64()))
			}
		default:
			if rng.Intn(2) == 0 {
				t[i] = reldb.String(edgeStrings[rng.Intn(len(edgeStrings))])
			} else {
				b := make([]byte, rng.Intn(24))
				rng.Read(b)
				t[i] = reldb.String(string(b))
			}
		}
	}
	return t
}

// randomInstance hand-builds an instance of def: 0–3 components per
// child node, so empty lists occur at every level.
func randomInstance(t testing.TB, rng *rand.Rand, def *viewobject.Definition) *viewobject.Instance {
	t.Helper()
	inst, err := viewobject.NewInstance(def, randomTuple(rng, def, def.Root()))
	if err != nil {
		t.Fatal(err)
	}
	var fill func(in *viewobject.InstNode)
	fill = func(in *viewobject.InstNode) {
		for _, child := range in.Node().Children {
			for k := rng.Intn(4); k > 0; k-- {
				cn, err := in.AddChild(def, child.ID, randomTuple(rng, def, child))
				if err != nil {
					t.Fatal(err)
				}
				fill(cn)
			}
		}
	}
	fill(inst.Root())
	return inst
}

// TestAppendInstanceMatchesEncoder is the wire encoder's whole oracle:
// on seeded random instances its bytes are the previous encoder's, and
// a client that decodes them and sends them back gets the same instance.
func TestAppendInstanceMatchesEncoder(t *testing.T) {
	def := encodeFixture(t)
	rng := rand.New(rand.NewSource(21))
	var insts []*viewobject.Instance
	for i := 0; i < 300; i++ {
		inst := randomInstance(t, rng, def)
		insts = append(insts, inst)
		got := append(AppendInstance(nil, inst), '\n')
		if want := oracle(t, InstanceDoc(inst)); !bytes.Equal(got, want) {
			t.Fatalf("instance %d:\n got %s\nwant %s", i, got, want)
		}
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.UseNumber()
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("instance %d: own output does not parse: %v\n%s", i, err, got)
		}
		back, err := InstanceFromDoc(def, doc)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if back.Render() != inst.Render() {
			t.Fatalf("instance %d changed across the wire:\nsent %s\ncame back %s", i, inst.Render(), back.Render())
		}
	}

	// The query envelope, around none, one and many instances.
	for _, n := range []int{0, 1, len(insts)} {
		docs := make([]any, n)
		for i := range docs {
			docs[i] = InstanceDoc(insts[i])
		}
		want := oracle(t, map[string]any{"count": n, "generation": uint64(math.MaxUint64 - 7), "instances": docs})
		if got := appendQuery(nil, insts[:n], math.MaxUint64-7); !bytes.Equal(got, want) {
			t.Fatalf("query envelope of %d instances:\n got %.300s\nwant %.300s", n, got, want)
		}
	}
}

// fuzzValue maps fuzz input to a value: kind picks the constructor, the
// payload's first bytes (zero-padded) or all of it are the content.
func fuzzValue(kind uint8, payload []byte) reldb.Value {
	var word [8]byte
	copy(word[:], payload)
	bits := binary.LittleEndian.Uint64(word[:])
	switch kind % 5 {
	case 0:
		return reldb.Null()
	case 1:
		return reldb.Bool(bits&1 == 1)
	case 2:
		return reldb.Int(int64(bits))
	case 3:
		return reldb.Float(math.Float64frombits(bits))
	default:
		return reldb.String(string(payload))
	}
}

// FuzzAppendValue holds appendValue to the previous value encoder on
// arbitrary values, and its output to the decoder.
func FuzzAppendValue(f *testing.F) {
	le := func(bits uint64) []byte { return binary.LittleEndian.AppendUint64(nil, bits) }
	f.Add(uint8(0), []byte(nil))
	f.Add(uint8(1), []byte{1})
	for _, n := range edgeInts {
		f.Add(uint8(2), le(uint64(n)))
	}
	for _, x := range edgeFloats {
		f.Add(uint8(3), le(math.Float64bits(x)))
	}
	for _, s := range edgeStrings {
		f.Add(uint8(4), []byte(s))
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		v := fuzzValue(kind, payload)
		got := append(appendValue(nil, v), '\n')
		if want := oracle(t, EncodeValue(v)); !bytes.Equal(got, want) {
			t.Fatalf("%s (kind %s):\n got %s\nwant %s", v, v.Kind(), got, want)
		}
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.UseNumber()
		var raw any
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("%s: own output does not parse: %v", got, err)
		}
		back, err := DecodeValue(raw)
		if err != nil {
			t.Fatalf("%s: %v", got, err)
		}
		if !binaryEq(v, back) {
			t.Fatalf("%s (kind %s) came back as %s (kind %s)", v, v.Kind(), back, back.Kind())
		}
	})
}

// TestResponsesMatchEncoder pins the handlers to the previous encoder at
// the HTTP level: every GET and query body is the old bytes, sent whole
// under a Content-Length that says so.
func TestResponsesMatchEncoder(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, c, _ := newTestServer(t, n, Config{})
		get := func(path string) []byte {
			t.Helper()
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
			}
			if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
				t.Errorf("GET %s: Content-Length %q on a body of %d bytes", path, cl, w.Body.Len())
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("GET %s: Content-Type %q", path, ct)
			}
			return w.Body.Bytes()
		}
		for _, name := range c.Objects() {
			def, err := c.Object(name)
			if err != nil {
				t.Fatal(err)
			}
			// Everything, the Figure 4 selection, and nothing.
			for _, text := range []string{"", "Level = 'graduate' and count(STUDENT) < 5", "Level = 'none'"} {
				q := ""
				if text != "" {
					q = "?q=" + url.QueryEscape(text)
				}
				parsed, err := oql.Parse(def, text)
				if err != nil {
					t.Fatal(err)
				}
				insts, err := c.Instantiate(name, parsed)
				if err != nil {
					t.Fatal(err)
				}
				docs := make([]any, len(insts))
				for i, inst := range insts {
					docs[i] = InstanceDoc(inst)
				}
				want := oracle(t, map[string]any{"count": len(docs), "generation": c.Generation(), "instances": docs})
				if got := get("/objects/" + name + q); !bytes.Equal(got, want) {
					t.Errorf("GET /objects/%s%s:\n got %s\nwant %s", name, q, got, want)
				}
				for _, inst := range insts {
					id := inst.Key()[0].MustString()
					if got, want := get("/objects/"+name+"/"+id), oracle(t, InstanceDoc(inst)); !bytes.Equal(got, want) {
						t.Errorf("GET /objects/%s/%s:\n got %s\nwant %s", name, id, got, want)
					}
				}
			}
		}
	})
}

// TestConcurrentResponsesMatchEncoder shares the buffer pool and the plan
// cache between goroutines: every body must still be its own request's
// document, whole (a buffer handed back too early would show here, and
// under -race).
func TestConcurrentResponsesMatchEncoder(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, c, _ := newTestServer(t, n, Config{MaxReadInFlight: -1})
		insts, err := c.Instantiate("omega", viewobject.Query{})
		if err != nil {
			t.Fatal(err)
		}
		paths := []string{"/objects/omega"}
		docs := make([]any, len(insts))
		for i, inst := range insts {
			docs[i] = InstanceDoc(inst)
			paths = append(paths, "/objects/omega/"+inst.Key()[0].MustString())
		}
		want := [][]byte{oracle(t, map[string]any{"count": len(docs), "generation": c.Generation(), "instances": docs})}
		for _, doc := range docs {
			want = append(want, oracle(t, doc))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					k := (g + i) % len(paths)
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, httptest.NewRequest("GET", paths[k], nil))
					if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[k]) {
						t.Errorf("GET %s under concurrency = %d:\n got %s\nwant %s", paths[k], w.Code, w.Body, want[k])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestEncodeAllocations pins what the read path may allocate (the race
// detector's sync.Pool drops items at random, so not under it). Each pin
// follows one warm-up call, which builds the plan and sizes the buffer.
func TestEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, sw := benchTree(t, 8)
	inst, ok, err := sw.C.InstantiateByKey(workload.ShardedObject, reldb.Tuple{reldb.Int(3)})
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if nodes := strings.Count(inst.Render(), "\n") - 1; nodes != 46 {
		t.Fatalf("the benchmark object has %d nodes per instance, want 46", nodes)
	}
	buf := AppendInstance(nil, inst)
	if a := testing.AllocsPerRun(100, func() { buf = AppendInstance(buf[:0], inst) }); a != 0 {
		t.Errorf("AppendInstance into a warm buffer allocates %v times, want 0", a)
	}

	// 2258 before this encoder, 398 when it landed, 197 once assembly
	// built levels in slabs, 136 once reads handed out the stored rows
	// and the batched probe answered by position, 100 once a probe's
	// answer was sized before it was filled, an edge's attributes were
	// resolved with its definition and a level deduplicated by key
	// prefix; the bound leaves room for net/http and the runtime to
	// drift, not for a copy per component.
	req := httptest.NewRequest("GET", "/objects/"+workload.ShardedObject+"/3", nil)
	w := &discard{h: make(http.Header)}
	h := s.Handler()
	h.ServeHTTP(w, req)
	a := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
	t.Logf("GET handler: %v allocations per request", a)
	if a > 110 {
		t.Errorf("GET handler allocates %v times per request, want <= 110", a)
	}
}
