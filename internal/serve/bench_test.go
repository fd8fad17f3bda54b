package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
	"penguin/internal/workload"
)

// The read-path sizing set-up of EXPERIMENTS.md E14: the benchmark's
// object (TreeSpec{2,2,3,1}, 46 tuples per instance) over 2000 roots on
// one shard, the handlers driven in-process.
const benchRoots = 2000

func benchTree(tb testing.TB, roots int) (*Server, *workload.ShardedWorkload) {
	tb.Helper()
	sw, err := workload.NewShardedTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Peninsulas: 1, Roots: roots}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sw.Close() })
	return New(Config{Cluster: sw.C, MaxReadInFlight: -1}), sw
}

// discard is a ResponseWriter that keeps nothing, so the handler's own
// cost is what a benchmark sees.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

func BenchmarkGetHandler(b *testing.B) {
	s, _ := benchTree(b, benchRoots)
	reqs := make([]*http.Request, benchRoots)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/objects/%s/%d", workload.ShardedObject, i), nil)
	}
	w := &discard{h: make(http.Header)}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%benchRoots])
	}
}

func BenchmarkQueryHandler96(b *testing.B) {
	s, _ := benchTree(b, benchRoots)
	reqs := make([]*http.Request, 16)
	for i := range reqs {
		lo := i * 100
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/objects/%s?q=K0+%%3E%%3D+%d+and+K0+%%3C+%d", workload.ShardedObject, lo, lo+96), nil)
	}
	w := &discard{h: make(http.Header)}
	h := s.Handler()
	// One checked response: the query must select the 96 pivots.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, reqs[0])
	if body, _ := io.ReadAll(rec.Body); rec.Code != http.StatusOK || len(body) < 96*1000 {
		b.Fatalf("query = %d, %d bytes", rec.Code, len(body))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
}

func BenchmarkClusterInstantiateByKey(b *testing.B) {
	_, sw := benchTree(b, benchRoots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := sw.C.InstantiateByKey(workload.ShardedObject, reldb.Tuple{reldb.Int(int64(i % benchRoots))})
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// replaceBodies returns, per root key k < roots, two replace bodies for
// k's instance as a GET serves it, with V stamped "even" and "odd", so
// alternating them makes each replace change the stored instance.
func replaceBodies(tb testing.TB, h http.Handler, roots int) [][2][]byte {
	tb.Helper()
	bodies := make([][2][]byte, roots)
	for k := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/objects/%s/%d", workload.ShardedObject, k), nil))
		dec := json.NewDecoder(rec.Body)
		dec.UseNumber()
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			tb.Fatal(err)
		}
		for j, stamp := range []string{"even", "odd"} {
			doc["V"] = stamp
			body, err := json.Marshal(map[string]any{"key": []any{k}, "instance": doc})
			if err != nil {
				tb.Fatal(err)
			}
			bodies[k][j] = body
		}
	}
	return bodies
}

// BenchmarkReplaceHandler drives VO-R through the handler tree over the
// benchmark object at 100 roots: every iteration rewrites one pivot's V
// (the write mix's 60 % slot), alternating between two stamps per key so
// each replace changes the stored instance.
func BenchmarkReplaceHandler(b *testing.B) {
	const roots = 100
	s, _ := benchTree(b, roots)
	h := s.Handler()
	bodies := replaceBodies(b, h, roots)
	w := &discard{h: make(http.Header)}
	path := "/objects/" + workload.ShardedObject + ":replace"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%roots][(i/roots)%2]
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	}
}

// TestReplaceAllocations pins what one replace of a 46-node instance
// costs through the handler tree (BenchmarkReplaceHandler's request):
// decode, the old side's assembly inside the write transaction, the
// VO-R walk and the commit. About 1 250 allocations when every
// component's tuple was copied to be read, its pairing key built in a
// map and the decoded and cloned instances built node by node; a third
// of that once the walk reads in place and instances are slabs; about
// 245 once the old side holds the stored rows instead of copies.
func TestReplaceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const roots = 8
	s, _ := benchTree(t, roots)
	h := s.Handler()
	bodies := replaceBodies(t, h, roots)
	path := "/objects/" + workload.ShardedObject + ":replace"
	w := &discard{h: make(http.Header)}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(bodies[3][0])))
	if rec.Code != http.StatusOK {
		t.Fatalf("replace = %d: %s", rec.Code, rec.Body)
	}
	i := 0
	a := testing.AllocsPerRun(100, func() {
		i++
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(bodies[3][i%2])))
	})
	if a > 290 {
		t.Errorf("one replace allocates %v times, want <= 290", a)
	}
	t.Logf("%v allocations per replace", a)
}

// churnInstances assembles the instance of every root key k < roots, the
// VO-CI half of a churn puts back.
func churnInstances(tb testing.TB, sw *workload.ShardedWorkload, roots int) []*viewobject.Instance {
	tb.Helper()
	insts := make([]*viewobject.Instance, roots)
	for k := range insts {
		inst, ok, err := sw.C.InstantiateByKey(workload.ShardedObject, reldb.Tuple{reldb.Int(int64(k))})
		if err != nil || !ok {
			tb.Fatalf("instance %d: %v, %v", k, ok, err)
		}
		insts[k] = inst
	}
	return insts
}

// churn deletes the instance of root key k through the cluster (VO-CD)
// and inserts it again (VO-CI): the write mix's 20 % churn slot, whose
// cascade, dependency checks and re-insertion cross connections one
// row at a time.
func churn(tb testing.TB, sw *workload.ShardedWorkload, insts []*viewobject.Instance, k int) {
	if _, err := sw.C.DeleteByKey(workload.ShardedObject, reldb.Tuple{reldb.Int(int64(k))}); err != nil {
		tb.Fatal(err)
	}
	if _, err := sw.C.InsertInstance(workload.ShardedObject, insts[k]); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkChurnCluster drives one VO-CD then VO-CI of a 46-node
// instance through a 1-shard cluster of 100 roots per iteration.
func BenchmarkChurnCluster(b *testing.B) {
	const roots = 100
	_, sw := benchTree(b, roots)
	insts := churnInstances(b, sw, roots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(b, sw, insts, i%roots)
	}
}

// churnAllocs is one churn's allocation count before the edge crossings
// of the cascade and the dependency checks shared the batched lookup.
const churnAllocs = 2086

// TestChurnAllocations pins what one churn (BenchmarkChurnCluster's
// iteration) allocates.
func TestChurnAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const roots = 8
	_, sw := benchTree(t, roots)
	insts := churnInstances(t, sw, roots)
	churn(t, sw, insts, 3)
	a := testing.AllocsPerRun(100, func() { churn(t, sw, insts, 3) })
	if a > churnAllocs {
		t.Errorf("one churn allocates %v times, want <= %d", a, churnAllocs)
	}
	t.Logf("%v allocations per churn", a)
}
