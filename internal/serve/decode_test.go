package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"penguin/internal/viewobject"
	"penguin/internal/workload"
)

// verbs are the update verbs with the envelope fields each reads.
var verbs = []struct {
	name              string
	needKey, needInst bool
}{{"delete", true, false}, {"insert", false, true}, {"replace", true, true}}

// oracleUpdate is the decode the update handlers ran before the plan
// decoder: encoding/json (UseNumber, DisallowUnknownFields) into an
// envelope of `any` fields, nothing but whitespace after it, then the
// key's arity and values and InstanceFromDoc.
func oracleUpdate(def *viewobject.Definition, body []byte, verb string, needKey, needInst bool) (updateRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var env struct {
		Key      []any          `json:"key"`
		Instance map[string]any `json:"instance"`
	}
	if err := dec.Decode(&env); err != nil {
		return updateRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return updateRequest{}, errors.New("data after the request object")
	}
	if needInst && env.Instance == nil {
		return updateRequest{}, fmt.Errorf("%s needs an instance", verb)
	}
	var req updateRequest
	if needKey {
		if want := len(def.NodeSchema(def.Root()).Key()); len(env.Key) != want {
			return updateRequest{}, fmt.Errorf("key has %d attributes, want %d", len(env.Key), want)
		}
		for _, raw := range env.Key {
			v, err := DecodeValue(raw)
			if err != nil {
				return updateRequest{}, err
			}
			req.Key = append(req.Key, v)
		}
	}
	if needInst {
		inst, err := InstanceFromDoc(def, env.Instance)
		if err != nil {
			return updateRequest{}, err
		}
		req.Instance = inst
	}
	return req, nil
}

// repeatsName reports whether some object in body names a member twice,
// the top-level object's names compared as encoding/json matches struct
// fields: bytes.EqualFold.
func repeatsName(body []byte) bool {
	type frame struct {
		names   []string
		object  bool
		wantKey bool
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].object && stack[n-1].wantKey && tok != json.Delim('}') {
			top, name := stack[n-1], tok.(string)
			for _, seen := range top.names {
				if seen == name || n == 1 && strings.EqualFold(seen, name) {
					return true
				}
			}
			top.names, top.wantKey = append(top.names, name), false
			continue
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			stack = append(stack, &frame{object: tok == json.Delim('{'), wantKey: true})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value ended: the object around it expects a name next.
		if n := len(stack); n > 0 {
			stack[n-1].wantKey = true
		}
	}
}

// sameRequest compares two decoded requests: identical key values, and
// instances with the same document and the same rendering.
func sameRequest(t *testing.T, got, want updateRequest) {
	t.Helper()
	if len(got.Key) != len(want.Key) {
		t.Fatalf("key %s, want %s", got.Key, want.Key)
	}
	for i := range got.Key {
		if !got.Key[i].Identical(want.Key[i]) {
			t.Fatalf("key %s (kind %s at %d), want %s (kind %s)", got.Key, got.Key[i].Kind(), i, want.Key, want.Key[i].Kind())
		}
	}
	if (got.Instance == nil) != (want.Instance == nil) {
		t.Fatalf("instance %v, want %v", got.Instance, want.Instance)
	}
	if got.Instance == nil {
		return
	}
	if g, w := AppendInstance(nil, got.Instance), AppendInstance(nil, want.Instance); !bytes.Equal(g, w) {
		t.Fatalf("instance document\n got %s\nwant %s", g, w)
	}
	if g, w := got.Instance.Render(), want.Instance.Render(); g != w {
		t.Fatalf("instance\n got %s\nwant %s", g, w)
	}
}

// corpus reads the inputs of a fuzz target's committed seed corpus,
// each a single []byte.
func corpus(tb testing.TB, target string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzDecodeInstance holds the plan decoder to the oracle it replaced:
// on any body, under any verb, the same accept or reject, and on accept
// the same key and the same instance — except that the decoder refuses a
// name repeated in the envelope or in a node document, which the oracle
// lets the last occurrence win (or merges, for "instance").
func FuzzDecodeInstance(f *testing.F) {
	def := encodeFixture(f)
	docs := corpus(f, "FuzzInstanceFromDoc")
	for _, seed := range docSeeds {
		docs = append(docs, []byte(seed))
	}
	for i, doc := range docs {
		f.Add(uint8(i), []byte(`{"key":[1],"instance":`+string(doc)+`}`))
		f.Add(uint8(i), []byte(` {"Instance": `+string(doc)+`, "KEY": [{"int": "1"}]} `))
	}
	deep := strings.Repeat("[", maxDepth-2) + strings.Repeat("]", maxDepth-2)
	for _, body := range []string{
		// Repeated names: refused, where the oracle keeps the last.
		`{"key":[1],"instance":{"id":1,"M":[]},"instance":{"s":"x"}}`,
		`{"key":[1],"instance":{"id":1,"s":"a","s":"b"}}`,
		// Nesting at and one past the limit, in a skipped value.
		`{"key":[1],"instance":{"x":` + deep + `}}`,
		`{"key":[1],"instance":{"x":[` + deep + `]}}`,
		// Names and strings only a full unquote gets right.
		`{"\u212Aey":[1],"in\u017Ftance":{"\u0069d":1,"s":"\ud83d\ude00 \ud800 \udc00\ud800\u0041 \/"}}`,
		"{\"key\":[1],\"instance\":{\"id\":1,\"s\":\"\xff\xc3 \xed\xa0\x80\"}}",
		"{\"key\":[1],\"instance\":{\"id\":1,\"\xff\":1}}",
		// Tag objects: a repeated tag keeps its last value.
		`{"key":[{"int":5,"int":"3"}],"instance":{"id":{"int":"1","int":[{}]}}}`,
		`{"key":[{"float":"1","bits":null,"bits":"7ff8000000000001","float":"NaN"}],"instance":{"id":1}}`,
		`{"key":[{"bytes":"QQ==","x":1}],"instance":{"id":{"\u0069nt":"2"}}}`,
		// Envelope edge cases.
		`null`, ` `, ``, `{}`, `{"key":null,"instance":null}`, `{"key":[1,2]}`, `{"key":[1e999]}`,
		`{"key":[1],"instance":{"id":1}} `, `{"key":[1],"instance":{"id":1}} {}`, `{"key":[1],"instance":[]}`,
		`{"key":[[1]],"instance":{"id":1,"M":null,"E":[{"id":1,"eid":2,"s":"s"}]}}`,
		`{"KEY":[1],"\u0131nstance":{"id":1}}`,
		`{"key":"1","instance":{"id":-0}}`, `{"key":[-0.0],"instance":{"id":1E+2}}`,
	} {
		for v := range verbs {
			f.Add(uint8(v), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, v uint8, body []byte) {
		verb := verbs[int(v)%len(verbs)]
		want, wantErr := oracleUpdate(def, body, verb.name, verb.needKey, verb.needInst)
		got, err := decodeUpdate(def, body, verb.name, verb.needKey, verb.needInst)
		if errors.Is(err, errRepeatedName) {
			if !repeatsName(body) {
				t.Fatalf("%s: %q refused for a repeated name it does not have: %v", verb.name, body, err)
			}
			return
		}
		switch {
		case err != nil && wantErr == nil:
			t.Fatalf("%s: %q refused (%v), the oracle accepts it", verb.name, body, err)
		case err == nil && wantErr != nil:
			t.Fatalf("%s: %q accepted, the oracle refuses it (%v)", verb.name, body, wantErr)
		case err == nil:
			sameRequest(t, got, want)
		}
	})
}

// TestDecodeRoundTrip: the decoder reads back whatever the encoder
// writes, on TestAppendInstanceMatchesEncoder's random instances, as an
// insert's document and as a replace's key and document.
func TestDecodeRoundTrip(t *testing.T) {
	def := encodeFixture(t)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		inst := randomInstance(t, rng, def)
		doc := AppendInstance(nil, inst)
		got, err := decodeUpdate(def, append(append([]byte(`{"instance":`), doc...), '}'), "insert", false, true)
		if err != nil {
			t.Fatalf("instance %d: %v\n%s", i, err, doc)
		}
		if back := AppendInstance(nil, got.Instance); !bytes.Equal(back, doc) {
			t.Fatalf("instance %d changed across the wire:\nsent %s\ncame back %s", i, doc, back)
		}
		body := append([]byte(`{"key":[`), appendValue(nil, inst.Key()[0])...)
		body = append(append(append(body, `],"instance":`...), doc...), '}')
		got, err = decodeUpdate(def, body, "replace", true, true)
		if err != nil {
			t.Fatalf("instance %d: %v\n%s", i, err, body)
		}
		sameRequest(t, got, updateRequest{Key: inst.Key(), Instance: got.Instance})
		if back := AppendInstance(nil, got.Instance); !bytes.Equal(back, doc) {
			t.Fatalf("instance %d changed across the wire:\nsent %s\ncame back %s", i, doc, back)
		}
	}
}

// TestConcurrentDecode: goroutines decoding at once share the decoder
// pool and the definition's plan, and each gets its own instance.
func TestConcurrentDecode(t *testing.T) {
	def := encodeFixture(t)
	rng := rand.New(rand.NewSource(5))
	docs := make([][]byte, 16)
	for i := range docs {
		docs[i] = AppendInstance(nil, randomInstance(t, rng, def))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 64; k++ {
				doc := docs[(g*5+k)%len(docs)]
				req, err := decodeUpdate(def, append(append([]byte(`{"instance":`), doc...), '}'), "insert", false, true)
				if err != nil {
					t.Error(err)
					return
				}
				if back := AppendInstance(nil, req.Instance); !bytes.Equal(back, doc) {
					t.Errorf("decoded\n%s\nfrom\n%s", back, doc)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeRejects pins the rejections the oracle never had to make or
// that only a scanner can get wrong.
func TestDecodeRejects(t *testing.T) {
	def := encodeFixture(t)
	cases := map[string]string{
		"repeated attribute":         `{"instance":{"id":1,"s":"a","s":"b"}}`,
		"repeated child list":        `{"instance":{"id":1,"M":[],"M":[]}}`,
		"repeated envelope field":    `{"instance":{"id":1},"INSTANCE":{"id":2}}`,
		"unterminated string":        `{"instance":{"id":1,"s":"abc`,
		"bad escape":                 `{"instance":{"id":1,"s":"\q"}}`,
		"control character":          "{\"instance\":{\"id\":1,\"s\":\"a\x01\"}}",
		"leading zero":               `{"instance":{"id":01}}`,
		"bare minus":                 `{"instance":{"id":-}}`,
		"too deep to skip":           `{"key":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `,"instance":{"id":1}}`,
		"array body":                 `[{"instance":{"id":1}}]`,
		"trailing comma":             `{"instance":{"id":1},}`,
		"key of the wrong shape":     `{"key":{"id":1},"instance":{"id":1}}`,
		"instance of the wrong kind": `{"instance":"{}"}`,
	}
	for name, body := range cases {
		if req, err := decodeUpdate(def, []byte(body), "insert", false, true); err == nil {
			t.Errorf("%s: %s accepted as %v", name, body, req.Instance.Render())
		}
	}
	// Depth is counted from the envelope: maxDepth containers in all parse.
	within := `{"key":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `,"instance":{"id":1}}`
	if _, err := decodeUpdate(def, []byte(within), "insert", false, true); err != nil {
		t.Errorf("a body %d containers deep: %v", maxDepth, err)
	}
}

// TestEnvelopeNamesFold: the envelope's names match as encoding/json
// matches a struct field's, which is bytes.EqualFold, rune by rune.
func TestEnvelopeNamesFold(t *testing.T) {
	for _, c := range "KEYINSTAC" {
		for r := rune(0); r <= 0x1FFFF; r++ {
			name := []byte(string(r))
			if got, want := foldEqual(name, string(c)), bytes.EqualFold(name, []byte{byte(c)}); got != want {
				t.Errorf("foldEqual(%q, %q) = %v, bytes.EqualFold says %v", r, c, got, want)
			}
		}
	}
}

// TestDecodeAllocations pins what decoding the benchmark object's replace
// body may allocate: about 1 100 allocations through encoding/json and
// InstanceFromDoc, about 150 through the plan decoder building the
// instance node by node, and a handful once BuildInstance builds it in
// slabs.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, _ := benchTree(t, 8)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/objects/"+workload.ShardedObject+"/3", nil))
	body := []byte(`{"key":[3],"instance":` + strings.TrimSpace(rec.Body.String()) + `}`)
	def, err := s.cfg.Cluster.Object(workload.ShardedObject)
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeUpdate(def, body, "replace", true, true)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := strings.Count(req.Instance.Render(), "\n") - 1; nodes != 46 {
		t.Fatalf("the benchmark object has %d nodes per instance, want 46", nodes)
	}
	a := testing.AllocsPerRun(100, func() {
		if _, err := decodeUpdate(def, body, "replace", true, true); err != nil {
			t.Fatal(err)
		}
	})
	if a > 100 {
		t.Errorf("decoding the replace body allocates %v times, want <= 100", a)
	}
	t.Logf("%v allocations per decode", a)
}
