package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// newTestServer builds a serving tier over an n-shard university
// cluster with a private registry, so counter assertions are isolated
// from other tests.
func newTestServer(t *testing.T, n int, cfg Config) (*Server, *shard.Cluster, *obs.Registry) {
	t.Helper()
	c, err := university.NewSharded(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cfg.Cluster = c
	cfg.Reg = obs.NewRegistry()
	return New(cfg), c, cfg.Reg
}

// forEachN runs the test body against the plain database (one shard)
// and a partitioned cluster: the HTTP surface must not tell them apart
// except where the body says so.
func forEachN(t *testing.T, body func(t *testing.T, n int)) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { body(t, n) })
	}
}

// do runs one request through the handler tree and decodes the JSON
// response body (UseNumber, like a careful client). A []byte body is
// sent as is; any other non-nil body is marshaled.
func do(t *testing.T, s *Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	data, raw := body.([]byte)
	if !raw && body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var doc map[string]any
	dec := json.NewDecoder(w.Body)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s %s: bad response body: %v", method, path, err)
	}
	return w.Code, doc
}

// figure4 is the paper's Figure 4 query (graduate courses with fewer
// than 5 students), URL-encoded.
const figure4 = "Level+%3D+%27graduate%27+and+count%28STUDENT%29+%3C+5"

// TestListObjects pins the listing: both objects in name order, ω
// updatable everywhere, ω′ updatable on one shard and read-only over
// several (its paths cross partitioned relations outside its island, so
// the university registers it restrictively there).
func TestListObjects(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, _, _ := newTestServer(t, n, Config{})
		code, doc := do(t, s, "GET", "/objects", nil)
		if code != http.StatusOK {
			t.Fatalf("GET /objects = %d", code)
		}
		objs := doc["objects"].([]any)
		if len(objs) != 2 {
			t.Fatalf("listed %d objects, want 2", len(objs))
		}
		first := objs[0].(map[string]any)
		if first["name"] != "omega" || first["pivot"] != university.Courses || first["updatable"] != true {
			t.Errorf("first object = %v, want updatable omega over %s (sorted)", first, university.Courses)
		}
		second := objs[1].(map[string]any)
		if second["name"] != "omega-prime" || second["updatable"] != (n == 1) {
			t.Errorf("second object = %v, want omega-prime with updatable=%v", second, n == 1)
		}
	})
}

// TestQueryEndpoint runs the Figure 4 query and the unfiltered listing:
// the fan-out must find CS345 wherever its island landed and merge
// every shard's courses in pivot-key order.
func TestQueryEndpoint(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, c, _ := newTestServer(t, n, Config{})

		// Placement sanity: the 6 seeded courses are partitioned (counted
		// once across shards), the 3 departments replicated (once each
		// per shard).
		courses, depts := 0, 0
		for i := 0; i < c.N(); i++ {
			rtx := c.DB(i).BeginRead()
			courses += rtx.MustRelation(university.Courses).Count()
			depts += rtx.MustRelation(university.Department).Count()
			rtx.Close()
		}
		if courses != 6 || depts != 3*n {
			t.Fatalf("COURSES rows = %d (want 6, partitioned), DEPARTMENT rows = %d (want %d, replicated)",
				courses, depts, 3*n)
		}

		code, doc := do(t, s, "GET", "/objects/omega?q="+figure4, nil)
		if code != http.StatusOK {
			t.Fatalf("query = %d: %v", code, doc)
		}
		if v, _ := doc["count"].(json.Number).Int64(); v < 1 {
			t.Fatalf("Figure 4 query selected %v instances, want >= 1 (CS345)", doc["count"])
		}
		found := false
		for _, raw := range doc["instances"].([]any) {
			if raw.(map[string]any)["CourseID"] == "CS345" {
				found = true
			}
		}
		if !found {
			t.Error("CS345 missing from the Figure 4 query result")
		}

		code, doc = do(t, s, "GET", "/objects/omega", nil)
		if code != http.StatusOK {
			t.Fatalf("list query = %d", code)
		}
		insts := doc["instances"].([]any)
		if len(insts) != 6 {
			t.Fatalf("listing returned %d instances, want 6", len(insts))
		}
		prev := ""
		for _, raw := range insts {
			id := raw.(map[string]any)["CourseID"].(string)
			if id < prev {
				t.Fatalf("merged listing out of order: %q after %q", id, prev)
			}
			prev = id
		}

		if code, _ := do(t, s, "GET", "/objects/omega?q=%28%28", nil); code != http.StatusBadRequest {
			t.Errorf("malformed OQL = %d, want 400", code)
		}
		if code, _ := do(t, s, "GET", "/objects/nope", nil); code != http.StatusNotFound {
			t.Errorf("unknown object = %d, want 404", code)
		}
	})
}

func TestGetByKey(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, _, _ := newTestServer(t, n, Config{})
		code, doc := do(t, s, "GET", "/objects/omega/CS345", nil)
		if code != http.StatusOK {
			t.Fatalf("get = %d: %v", code, doc)
		}
		if doc["CourseID"] != "CS345" {
			t.Errorf("CourseID = %v", doc["CourseID"])
		}
		// Units is an int attribute: the wire form must be tagged.
		units, ok := doc["Units"].(map[string]any)
		if !ok || units["int"] == nil {
			t.Errorf("Units = %v, want tagged int form", doc["Units"])
		}
		// ω nests STUDENT under GRADES (Figure 2's tree).
		grades, ok := doc["GRADES"].([]any)
		if !ok || len(grades) == 0 {
			t.Fatalf("GRADES children missing: %v", doc["GRADES"])
		}
		if _, ok := grades[0].(map[string]any)["STUDENT"].([]any); !ok {
			t.Errorf("STUDENT missing under GRADES: %v", grades[0])
		}

		if code, _ := do(t, s, "GET", "/objects/omega/NOPE999", nil); code != http.StatusNotFound {
			t.Errorf("missing key = %d, want 404", code)
		}
	})
}

// TestOneShardMatchesDatabase is the "a database is a 1-shard cluster"
// contract at the wire: every query and by-key body a 1-shard server
// writes is byte-identical to InstanceDoc over viewobject.Instantiate
// run directly on the cluster's one database.
func TestOneShardMatchesDatabase(t *testing.T) {
	s, c, _ := newTestServer(t, 1, Config{})
	get := func(path string) string {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
		}
		return w.Body.String()
	}
	encode := func(v any) string {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		return w.Body.String()
	}
	rtx := c.DB(0).BeginRead()
	defer rtx.Close()
	for _, name := range c.Objects() {
		def, err := c.Object(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"", "Level = 'graduate' and count(STUDENT) < 5"} {
			insts, err := oql.Query(rtx, def, q)
			if err != nil {
				t.Fatal(err)
			}
			docs := make([]any, len(insts))
			for i, inst := range insts {
				docs[i] = InstanceDoc(inst)
			}
			want := encode(map[string]any{"count": len(docs), "generation": rtx.Generation(), "instances": docs})
			path := "/objects/" + name
			if q != "" {
				path += "?q=" + figure4
			}
			if got := get(path); got != want {
				t.Errorf("GET %s differs from the database's own answer:\n got %s\nwant %s", path, got, want)
			}
			for _, inst := range insts {
				id := inst.Key()[0].MustString()
				direct, ok, err := viewobject.InstantiateByKey(rtx, def, inst.Key())
				if err != nil || !ok {
					t.Fatalf("%s/%s: ok=%v err=%v", name, id, ok, err)
				}
				if got, want := get("/objects/"+name+"/"+id), encode(InstanceDoc(direct)); got != want {
					t.Errorf("GET /objects/%s/%s differs from the database's own answer:\n got %s\nwant %s", name, id, got, want)
				}
			}
		}
	}
}

// TestUpdateRoundTrip exercises VO-CD, VO-CI, and VO-R through the
// HTTP surface: fetch a document, delete it, reinsert it verbatim, and
// finally replace an attribute — the fetched document must work as an
// insert body unchanged (the codec round-trip in anger), the
// coordinator must route each verb to CS345's home shard, and the
// generation must advance.
func TestUpdateRoundTrip(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, c, _ := newTestServer(t, n, Config{})
		_, orig := do(t, s, "GET", "/objects/omega/CS345", nil)
		gen0 := c.Generation()

		code, res := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
		if code != http.StatusOK {
			t.Fatalf("delete = %d: %v", code, res)
		}
		if n, _ := res["count"].(json.Number).Int64(); n < 1 {
			t.Fatalf("delete translated into %v ops", res["count"])
		}
		if res["generation"] == nil {
			t.Fatal("delete response carries no generation")
		}
		if c.Generation() <= gen0 {
			t.Fatal("generation did not advance across the delete")
		}
		if code, _ := do(t, s, "GET", "/objects/omega/CS345", nil); code != http.StatusNotFound {
			t.Fatalf("CS345 still instantiable after VO-CD (%d)", code)
		}

		code, res = do(t, s, "POST", "/objects/omega:insert", map[string]any{"instance": orig})
		if code != http.StatusOK {
			t.Fatalf("insert = %d: %v", code, res)
		}
		code, back := do(t, s, "GET", "/objects/omega/CS345", nil)
		if code != http.StatusOK {
			t.Fatalf("get after insert = %d", code)
		}
		normalize(orig)
		normalize(back)
		if !reflect.DeepEqual(orig, back) {
			t.Errorf("document changed across delete+insert:\nbefore %v\nafter  %v", orig, back)
		}

		// VO-R: change the title, keep everything else.
		repl := map[string]any{}
		data, _ := json.Marshal(back)
		json.Unmarshal(data, &repl)
		repl["Title"] = "Rewritten Databases"
		code, res = do(t, s, "POST", "/objects/omega:replace",
			map[string]any{"key": []any{"CS345"}, "instance": repl})
		if code != http.StatusOK {
			t.Fatalf("replace = %d: %v", code, res)
		}
		_, after := do(t, s, "GET", "/objects/omega/CS345", nil)
		if after["Title"] != "Rewritten Databases" {
			t.Errorf("Title after replace = %v", after["Title"])
		}
	})
}

// normalize sorts child arrays so document comparison ignores sibling
// order (instantiation order is key order, but insertion resequences).
func normalize(doc map[string]any) {
	for k, v := range doc {
		list, ok := v.([]any)
		if !ok {
			continue
		}
		keys := make([]string, len(list))
		for i, item := range list {
			if m, ok := item.(map[string]any); ok {
				normalize(m)
				b, _ := json.Marshal(m)
				keys[i] = string(b)
			}
		}
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
				keys[j-1], keys[j] = keys[j], keys[j-1]
				list[j-1], list[j] = list[j], list[j-1]
			}
		}
		doc[k] = list
	}
}

// TestPeninsulaDeleteTranslatesOnce pins the N=1 commit rule. Deleting
// a course also removes its CURRICULUM rows — a relation outside ω's
// island, replicated over several shards. There the optimistic local
// attempt rolls back and the update re-translates under the cross-shard
// commit; on one shard there are no replicas, so the §5 pipeline runs
// exactly once and the cross-shard protocol never starts.
func TestPeninsulaDeleteTranslatesOnce(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, _, _ := newTestServer(t, n, Config{})
		before := obs.Capture()
		code, res := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
		if code != http.StatusOK {
			t.Fatalf("delete = %d: %v", code, res)
		}
		offIsland := false
		for _, op := range res["ops"].([]any) {
			if strings.Contains(op.(string), university.Curriculum) {
				offIsland = true
			}
		}
		if !offIsland {
			t.Fatalf("delete of CS345 touched no %s row — not a peninsula-touching update: %v", university.Curriculum, res["ops"])
		}
		d := obs.Capture().Sub(before)
		translations := d.Histogram("vupdate.step.translate_ns").Count
		cross := d.Counter("reldb.cross.prepares") + d.Counter("reldb.cross.commits") + d.Counter("reldb.cross.aborts")
		if n == 1 {
			if translations != 1 || cross != 0 {
				t.Errorf("one shard: %d translation(s), %d cross-shard protocol step(s); want 1 and 0", translations, cross)
			}
		} else if translations != 2 || d.Counter("reldb.cross.commits") == 0 {
			t.Errorf("%d shards: %d translation(s), %d cross commits; want the retry (2) under the cross-shard commit",
				n, translations, d.Counter("reldb.cross.commits"))
		}
	})
}

// TestUpdateErrors pins the status mapping: 405 for a verbless POST and
// for a read-only object, 404 for an unknown verb and for a replacement
// of a missing instance, 400 for a malformed key, 409 for a §5
// rejection (a deletion of a missing instance among them) and for a
// replacement that would re-home the pivot key (ErrCrossShardMove)
// instead of migrating the island.
func TestUpdateErrors(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, c, _ := newTestServer(t, n, Config{})
		if code, _ := do(t, s, "POST", "/objects/omega", nil); code != http.StatusMethodNotAllowed {
			t.Errorf("POST without verb = %d, want 405", code)
		}
		if code, _ := do(t, s, "POST", "/objects/omega:upsert", nil); code != http.StatusNotFound {
			t.Errorf("unknown verb = %d, want 404", code)
		}
		if code, _ := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345", "extra"}}); code != http.StatusBadRequest {
			t.Errorf("wrong key arity = %d, want 400", code)
		}
		code, doc := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"NOPE999"}})
		if code != http.StatusConflict {
			t.Errorf("delete of a missing instance = %d (%v), want 409", code, doc)
		}
		_, cs345 := do(t, s, "GET", "/objects/omega/CS345", nil)
		cs345["CourseID"] = "NOPE999"
		code, doc = do(t, s, "POST", "/objects/omega:replace", map[string]any{"key": []any{"NOPE999"}, "instance": cs345})
		if code != http.StatusNotFound {
			t.Errorf("replace of a missing instance = %d (%v), want 404", code, doc)
		}

		// ω′: one shard takes its updates like the plain database always
		// did; over several it is registered read-only.
		code, doc = do(t, s, "POST", "/objects/omega-prime:delete", map[string]any{"key": []any{"CS101"}})
		if n == 1 {
			if code != http.StatusOK {
				t.Errorf("omega-prime delete on one shard = %d (%v), want 200", code, doc)
			}
			if code, _ := do(t, s, "GET", "/objects/omega-prime/CS101", nil); code != http.StatusNotFound {
				t.Errorf("CS101 still instantiable after the omega-prime delete (%d)", code)
			}
			return // one shard: every key is home, nothing to move between
		}
		if code != http.StatusMethodNotAllowed {
			t.Errorf("omega-prime delete over %d shards = %d (%v), want 405", n, code, doc)
		}

		// Find a course id homed on another shard, then ask VO-R to move
		// CS345 there.
		home, err := c.HomeOf("omega", reldb.Tuple{reldb.String("CS345")})
		if err != nil {
			t.Fatal(err)
		}
		moved := ""
		for i := 0; i < 64 && moved == ""; i++ {
			cand := fmt.Sprintf("MOVE%03d", i)
			h, err := c.HomeOf("omega", reldb.Tuple{reldb.String(cand)})
			if err != nil {
				t.Fatal(err)
			}
			if h != home {
				moved = cand
			}
		}
		if moved == "" {
			t.Fatal("no candidate key hashes to another shard")
		}
		_, orig := do(t, s, "GET", "/objects/omega/CS345", nil)
		orig["CourseID"] = moved
		code, doc = do(t, s, "POST", "/objects/omega:replace",
			map[string]any{"key": []any{"CS345"}, "instance": orig})
		if code != http.StatusConflict {
			t.Errorf("cross-shard move = %d (%v), want 409", code, doc)
		}
	})
}

// TestReplaceSeesConcurrentCommit: a replacement replaces the instance
// as its own write transaction finds it. The test holds the home
// shard's writer with a transaction adding a GRADES row to CS345,
// starts a replacement of CS345 built from a GET taken before that row
// existed, then commits. The replacement runs after the insert, so the
// serial order is insert → replace: the instance ends as the body says
// and the new row is deleted, not left behind as a component the
// replacement never saw; the integrity audit is as it was.
func TestReplaceSeesConcurrentCommit(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, c, _ := newTestServer(t, n, Config{})
		audit0 := auditShards(t, c)
		_, doc := do(t, s, "GET", "/objects/omega/CS345", nil)
		doc["Title"] = "Replaced While Held"
		body, err := json.Marshal(map[string]any{"key": []any{"CS345"}, "instance": doc})
		if err != nil {
			t.Fatal(err)
		}
		home, err := c.HomeOf("omega", reldb.Tuple{reldb.String("CS345")})
		if err != nil {
			t.Fatal(err)
		}
		held := c.DB(home).Begin()
		if err := held.Insert(university.Grades, reldb.Tuple{
			reldb.String("CS345"), reldb.Int(2), reldb.String("Spr92"), reldb.String("B")}); err != nil {
			held.Rollback()
			t.Fatal(err)
		}
		type reply struct {
			code int
			body string
		}
		done := make(chan reply)
		go func() {
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/objects/omega:replace", bytes.NewReader(body)))
			done <- reply{w.Code, w.Body.String()}
		}()
		// Let the replacement reach the writer, so anything it reads
		// before taking the writer predates the insert. The outcome does
		// not hang on the wait: a replacement that reads inside its
		// transaction sees the insert however the two interleave.
		time.Sleep(50 * time.Millisecond)
		if err := held.Commit(); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if r.code != http.StatusOK {
			t.Fatalf("replace = %d: %s", r.code, r.body)
		}
		_, after := do(t, s, "GET", "/objects/omega/CS345", nil)
		normalize(doc)
		normalize(after)
		if !reflect.DeepEqual(after, doc) {
			t.Errorf("after insert → replace, CS345 is\n%v\nwant the replacement\n%v", after, doc)
		}
		if got := auditShards(t, c); got != audit0 {
			t.Errorf("the replacement changed the integrity audit:\n%s\nwant\n%s", got, audit0)
		}
	})
}

// auditShards renders every shard's integrity audit. One shard is
// clean; over several, replicated CURRICULUM rows dangle into the
// COURSES rows other shards hold, so a test compares the audit before
// and after an update.
func auditShards(t *testing.T, c *shard.Cluster) string {
	t.Helper()
	def, err := c.Object("omega")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < c.N(); i++ {
		vs, err := (&structural.Integrity{G: def.Graph()}).Audit(c.DB(i))
		if err != nil {
			t.Fatal(err)
		}
		if c.N() == 1 && len(vs) != 0 {
			t.Errorf("one shard:\n%s", structural.FormatViolations(vs))
		}
		fmt.Fprintf(&b, "shard %d:\n%s\n", i, structural.FormatViolations(vs))
	}
	return b.String()
}

// TestHiddenAttributeRejected: a document may write only what its view
// projects. omega's DEPARTMENT node hides Budget, so an insert or a
// replace whose DEPARTMENT element sets it is a 400 that writes nothing,
// on every shard.
func TestHiddenAttributeRejected(t *testing.T) {
	dept := map[string]any{"DeptName": "Newdept", "Building": "B", "Budget": map[string]any{"float": "12345"}}
	forEachN(t, func(t *testing.T, n int) {
		for _, verb := range []string{"insert", "replace"} {
			s, c, _ := newTestServer(t, n, Config{})
			body := map[string]any{"instance": map[string]any{
				"CourseID": "CS999", "Title": "Hidden", "DeptName": "Newdept", "Units": 3, "Level": "graduate",
				"DEPARTMENT": []any{dept},
			}}
			if verb == "replace" {
				_, orig := do(t, s, "GET", "/objects/omega/CS345", nil)
				orig["DeptName"] = "Newdept"
				orig["DEPARTMENT"] = []any{dept}
				body = map[string]any{"key": []any{"CS345"}, "instance": orig}
			}
			if code, doc := do(t, s, "POST", "/objects/omega:"+verb, body); code != http.StatusBadRequest {
				t.Errorf("%s setting the hidden DEPARTMENT.Budget = %d (%v), want 400", verb, code, doc)
			}
			for i := 0; i < c.N(); i++ {
				rtx := c.DB(i).BeginRead()
				_, found := rtx.MustRelation(university.Department).Get(reldb.Tuple{reldb.String("Newdept")})
				rtx.Close()
				if found {
					t.Errorf("after the %s, shard %d holds a Newdept row", verb, i)
				}
			}
		}
	})
}

// TestUpdateBodyIsOneEnvelope: an update body is exactly one
// {"key":…,"instance":…} object. A second object, trailing bytes or an
// unknown envelope field (a client's "preview" the server would not
// honour) is a 400 that changes nothing, not an update of whatever the
// first value named.
func TestUpdateBodyIsOneEnvelope(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, _, _ := newTestServer(t, n, Config{})
		cases := []struct{ body, intact string }{
			{`{"key":["CS445"]}{"key":["CS345"]}`, "CS445"},
			{`{"key":["CS101"]} trailing garbage`, "CS101"},
			{`{"key":["CS445"],"preview":true}`, "CS445"},
			{`{"kee":["CS445"]}`, "CS445"},
			{`{"key":["CS345"]}}`, "CS345"},
		}
		for _, c := range cases {
			if code, doc := do(t, s, "POST", "/objects/omega:delete", []byte(c.body)); code != http.StatusBadRequest {
				t.Errorf("delete with body %s = %d (%v), want 400", c.body, code, doc)
			}
			if code, _ := do(t, s, "GET", "/objects/omega/"+c.intact, nil); code != http.StatusOK {
				t.Errorf("%s not readable after the rejected body %s (%d)", c.intact, c.body, code)
			}
		}
		// Whitespace after the object is not trailing data.
		if code, doc := do(t, s, "POST", "/objects/omega:delete", []byte("{\"key\":[\"CS445\"]}\n\t ")); code != http.StatusOK {
			t.Errorf("delete with trailing whitespace = %d (%v), want 200", code, doc)
		}
	})
}

// TestUpdateBodyRepeatedNameRejected: a name given twice in the envelope
// or in a document is a 400 that changes nothing. encoding/json used to
// keep the last "key" (deleting CS345 here) and the last value of a
// repeated attribute.
func TestUpdateBodyRepeatedNameRejected(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, _, _ := newTestServer(t, n, Config{})
		if code, doc := do(t, s, "POST", "/objects/omega:delete", []byte(`{"key":["CS445"],"KEY":["CS345"]}`)); code != http.StatusBadRequest {
			t.Errorf("delete with a repeated key = %d (%v), want 400", code, doc)
		}
		for _, id := range []string{"CS445", "CS345"} {
			if code, _ := do(t, s, "GET", "/objects/omega/"+id, nil); code != http.StatusOK {
				t.Errorf("%s not readable after the rejected delete (%d)", id, code)
			}
		}
		_, orig := do(t, s, "GET", "/objects/omega/CS345", nil)
		doc, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		body := `{"key":["CS345"],"instance":{"Title":"Twice",` + string(doc[1:]) + `}`
		if code, resp := do(t, s, "POST", "/objects/omega:replace", []byte(body)); code != http.StatusBadRequest {
			t.Errorf("replace with a repeated attribute = %d (%v), want 400", code, resp)
		}
		if _, after := do(t, s, "GET", "/objects/omega/CS345", nil); after["Title"] != orig["Title"] {
			t.Errorf("Title = %v after the rejected replace, want %v", after["Title"], orig["Title"])
		}
	})
}

// stallOmega installs a StepProbe that parks the first ω update inside
// the §5 pipeline (standing in for a slow disk or a huge translation)
// until the returned release runs; entered closes once it is parked.
func stallOmega(t *testing.T) (entered chan struct{}, release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered = make(chan struct{})
	var once sync.Once
	prev := vupdate.SetStepProbe(func(_ obs.Step, object string) {
		if object == "omega" {
			once.Do(func() { close(entered) })
			<-gate
		}
	})
	t.Cleanup(func() { vupdate.SetStepProbe(prev) })
	return entered, func() { close(gate) }
}

// TestAdmissionControlSheds pins the overload contract: with the write
// path stalled and the write bound at 1, a second concurrent update is
// answered 429 immediately — shed, not queued — and the metrics
// partition arrivals into requests vs shed.
func TestAdmissionControlSheds(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, _, reg := newTestServer(t, n, Config{MaxWriteInFlight: 1})
		entered, release := stallOmega(t)

		var wg sync.WaitGroup
		wg.Add(1)
		var slowCode int
		go func() {
			defer wg.Done()
			slowCode, _ = do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
		}()
		<-entered // the first update holds the only write slot

		code, doc := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS101"}})
		if code != http.StatusTooManyRequests {
			t.Fatalf("second concurrent write = %d (%v), want 429", code, doc)
		}
		if doc["error"] != "overloaded" {
			t.Errorf("shed body = %v", doc)
		}

		release()
		wg.Wait()
		if slowCode != http.StatusOK {
			t.Fatalf("admitted write = %d, want 200", slowCode)
		}

		m := reg.Snapshot()
		if got := m.Counter("penguin.http.shed"); got != 1 {
			t.Errorf("penguin.http.shed = %d, want 1", got)
		}
		if got := m.LabeledCounters["penguin.http.shed"].Values[epDelete]; got != 1 {
			t.Errorf("per-endpoint shed = %d, want 1", got)
		}
		// The shed request is not an admitted request: requests counts 1
		// (the slow delete), not 2.
		if got := m.Counter("penguin.http.requests"); got != 1 {
			t.Errorf("penguin.http.requests = %d, want 1 (admitted only)", got)
		}
		if got := m.Histogram("penguin.http.ns").Count; got != 1 {
			t.Errorf("latency histogram holds %d observations, want 1 (admitted only)", got)
		}
		if got := m.Counter("penguin.http.status.4xx"); got != 1 {
			t.Errorf("4xx = %d, want 1 (the shed)", got)
		}
		if got := m.Counter("penguin.http.status.2xx"); got != 1 {
			t.Errorf("2xx = %d, want 1 (the admitted delete)", got)
		}
	})
}

// TestReadAdmissionIndependent checks the read and write semaphores are
// separate: saturating writes must not shed reads.
func TestReadAdmissionIndependent(t *testing.T) {
	s, _, reg := newTestServer(t, 1, Config{MaxWriteInFlight: 1, MaxReadInFlight: 8})
	entered, release := stallOmega(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
	}()
	<-entered

	if code, _ := do(t, s, "GET", "/objects/omega/CS101", nil); code != http.StatusOK {
		t.Errorf("read during write saturation = %d, want 200", code)
	}
	release()
	wg.Wait()
	if got := reg.Snapshot().Counter("penguin.http.shed"); got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
}

// TestMetricsMounted checks the serving tier exposes the same debug
// surface as the standalone metrics listener.
func TestMetricsMounted(t *testing.T) {
	s, _, _ := newTestServer(t, 1, Config{})
	do(t, s, "GET", "/objects/omega/CS345", nil)

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	body := w.Body.String()
	if err := obs.CheckExposition(body); err != nil {
		t.Errorf("exposition: %v", err)
	}
	// The serving tier records into obs.Default here (the test config's
	// private registry isolates counters, but the exposition serves the
	// default); the family names must still be present.
	for _, want := range []string{"penguin_http_requests", "penguin_http_ns"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}

// TestEndpointMetrics checks a mixed request sequence lands under the
// right endpoint labels (that the labels sum to the aggregate is
// obs.TestDerivedAggregates).
func TestEndpointMetrics(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		s, _, reg := newTestServer(t, n, Config{})
		for i := 0; i < 3; i++ {
			do(t, s, "GET", "/objects", nil)
		}
		do(t, s, "GET", "/objects/omega", nil)
		do(t, s, "GET", "/objects/omega/CS345", nil)
		do(t, s, "POST", "/objects/omega:replace", map[string]any{"key": []any{"CS345"}}) // 400: no instance

		byEp := reg.HTTPRequestsByEndpoint.StatByLabel()
		if byEp[epList] != 3 || byEp[epQuery] != 1 || byEp[epGet] != 1 || byEp[epReplace] != 1 {
			t.Errorf("per-endpoint counts = %v", byEp)
		}
		if got := reg.Snapshot().Counter("penguin.http.status.4xx"); got != 1 {
			t.Errorf("4xx = %d, want 1 (the bodyless replace)", got)
		}
	})
}

// TestDefaultRegistryExposition drives requests and validates the wired
// snapshot keys appear in text form under their expected names.
func TestDefaultRegistryExposition(t *testing.T) {
	s, _, reg := newTestServer(t, 1, Config{})
	do(t, s, "GET", "/objects", nil)
	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"penguin.http.requests 1",
		`penguin.http.requests{endpoint=list} 1`,
		"penguin.http.shed 0",
		"penguin.http.status.2xx 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("snapshot text lacks %q", want)
		}
	}
	if !strings.Contains(buf.String(), "penguin.http.ns") {
		t.Error("snapshot text lacks the latency histogram")
	}
}
