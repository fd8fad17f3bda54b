package main

// layers.go is the layer ledger: the traced pass that says which layer
// spends an end-to-end number. It runs in this process, after the timed
// phases and apart from them. It rebuilds three fixed datasets and
// replays a seeded sequence of requests, executing each request once at
// every depth — the HTTP handler, then the shard.Cluster call the
// handler makes, then the viewobject/vupdate call the cluster makes,
// then the reldb primitives under that — with a span around each call.
// A layer's self-time is its span minus the span of the next-inner
// layer, per request; medians are reported.
//
// What this can and cannot say is in README.md ("Reading the ledger"):
// the spans are sequential re-executions measured from outside, with one
// caller, so they hold no lock waits, no queueing and no cross-request
// interference. Spans inside the engine are ROADMAP aim 4.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// ledgerConfig sizes the traced pass.
type ledgerConfig struct {
	largeRoots int // in memory, 1 shard: the main chain (write_large_mem's dataset)
	smallRoots int // durable, 1 shard: WAL, checkpoint, recovery (write_small_wal's dataset)
	reads      int
	queries    int
	replaces   int // 3 of 4 rewrite the pivot, 1 of 4 a leaf
	churns     int // delete + insert pairs; even, so the sharded replay ends with every instance back
	commits    int // one-row commits per commit figure
}

var fullLedger = ledgerConfig{
	largeRoots: 1000, smallRoots: 100,
	reads: 2000, queries: 50, replaces: 80, churns: 20, commits: 200,
}

type ledgerResult struct {
	metrics map[string]metric
	summary string
}

// ledger is the state of one traced pass. The first error sticks: every
// later step is skipped, and the pass returns it.
type ledger struct {
	cfg     ledgerConfig
	scratch string // where the durable dataset's directory is made
	t       *tracer
	s       map[string][]float64 // span name → durations, microseconds
	out     map[string]metric
	rng     *rand.Rand
	req     int
	err     error
}

// do runs a step that no span covers.
func (l *ledger) do(fn func() error) {
	if l.err == nil {
		l.err = fn()
	}
}

// timed runs fn under a span and returns the span's ID, for the
// next-inner layer to name as its parent, and its duration.
func (l *ledger) timed(name string, parent int, fn func() error) (int, time.Duration) {
	if l.err != nil {
		return 0, 0
	}
	id, d, err := l.t.call(name, l.req, parent, fn)
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	return id, d
}

// span is timed with the duration filed as a sample under name.
func (l *ledger) span(name string, parent int, fn func() error) int {
	id, d := l.timed(name, parent, fn)
	if l.err == nil {
		l.s[name] = append(l.s[name], float64(d)/1e3)
	}
	return id
}

// batchCalls is how many calls share one span when a primitive is too
// short to time one call at a time; the per-call share is the sample.
const batchCalls = 64

func (l *ledger) batch(name string, parent int, fn func() error) {
	_, d := l.timed(name, parent, func() error {
		for i := 0; i < batchCalls; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	if l.err == nil {
		l.s[name] = append(l.s[name], float64(d)/1e3/batchCalls)
	}
}

// serveOnce prepares one request through the handler in this process;
// the returned function is the part worth timing.
func serveOnce(h http.Handler, method, path string, body []byte) func() error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	return func() error {
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return nil
	}
}

func updateBody(k int, inst instance) ([]byte, error) {
	doc, err := encodeDoc(inst)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{"key": []any{k}, "instance": json.RawMessage(doc)})
}

// allocKB files the heap allocated per call of fn, over n calls, with
// nothing else running in this process.
func (l *ledger) allocKB(name string, n int, fn func() error) {
	l.do(func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		l.out[name] = metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n), Unit: "KiB", N: n}
		return nil
	})
}

// runLedger runs the traced pass and writes its spans to traceOut.
func runLedger(cfg ledgerConfig, seed int64, scratch, traceOut string) (*ledgerResult, error) {
	l := &ledger{
		cfg: cfg, scratch: scratch, t: newTracer(),
		s: map[string][]float64{}, out: map[string]metric{},
		rng: rand.New(rand.NewSource(seed)),
	}
	l.chain()
	l.sharded()
	l.durable()
	if l.err != nil {
		return nil, l.err
	}

	out := l.out
	us := func(name string) metric {
		return metric{Value: median(l.s[name]), Unit: "us", N: len(l.s[name])}
	}
	// Self-times: outer span minus next-inner span, request by request.
	self := func(outer, inner string) metric {
		a, b := l.s[outer], l.s[inner]
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return metric{Value: median(d), Unit: "us", N: len(d)}
	}
	out["serve.get_us"] = self("serve.get", "shard.get")
	out["serve.query_us"] = self("serve.query", "shard.query")
	out["serve.replace_us"] = self("serve.replace", "shard.replace")
	out["serve.delete_us"] = self("serve.delete", "shard.delete")
	out["serve.insert_us"] = self("serve.insert", "shard.insert")
	out["shard.get_us"] = self("shard.get", "viewobject.get")
	out["shard.query_us"] = self("shard.query", "viewobject.query96")
	out["shard.local_update_us"] = self("shard.replace", "vupdate.replace")
	for _, name := range []string{
		"serve.decode_doc", "serve.encode_doc", "shard.route", "shard.cross_update",
		"viewobject.get", "viewobject.query96", "viewobject.materialized_get", "viewobject.materialized_patch",
		"oql.parse", "vupdate.replace", "vupdate.delete", "vupdate.insert",
		"vupdate.preview_replace", "vupdate.preview_delete", "vupdate.preview_insert",
		"reldb.begin_read", "reldb.get", "reldb.match_equal", "reldb.commit_mem", "reldb.commit_wal_c1",
	} {
		out[name+"_us"] = us(name)
	}
	out["vupdate.large_over_small"] = metric{
		Value: median(l.s["vupdate.preview_replace"]) / median(l.s["small.preview_replace"]),
		Unit:  "ratio", N: len(l.s["small.preview_replace"]),
	}
	out["structural.audit_ms"] = metric{Value: median(l.s["structural.audit"]) / 1e3, Unit: "ms", N: len(l.s["structural.audit"])}
	rt := median(l.s["loopback.get"])
	transport := rt - median(l.s["serve.get"])
	out["serve.transport_us"] = metric{Value: transport, Unit: "us", N: len(l.s["loopback.get"])}
	out["loadgen.trace_overhead_share"] = metric{
		Value: median(l.s["traced.get"])/median(l.s["untraced.get"]) - 1,
		Unit:  "share", N: len(l.s["traced.get"]),
	}

	// The ledger must add up: the chain's self-times against what one
	// client sees on loopback.
	sum := transport + out["serve.get_us"].Value + out["shard.get_us"].Value + out["viewobject.get_us"].Value
	var b strings.Builder
	fmt.Fprintf(&b, "ledger: GET by key: transport %.1f + serve %.1f + shard %.1f + viewobject %.1f = %.1f us; 1-client loopback round trip %.1f us; unaccounted %.1f%%",
		transport, out["serve.get_us"].Value, out["shard.get_us"].Value, out["viewobject.get_us"].Value, sum, rt, 100*(rt-sum)/rt)
	if gap := (rt - sum) / rt; gap > 0.15 || gap < -0.15 {
		b.WriteString("  ** more than 15% unaccounted **")
	}
	b.WriteString("\n")
	if err := l.t.writeChrome(traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "ledger: %d spans written to %s\n", len(l.t.spans), traceOut)
	return &ledgerResult{metrics: out, summary: b.String()}, nil
}

// chain replays reads, queries and writes on the large in-memory
// dataset at every depth.
func (l *ledger) chain() {
	var e *engine
	l.do(func() (err error) {
		e, err = openEngine(datasetConfig{Roots: l.cfg.largeRoots, Shards: 1}, true)
		return
	})
	if l.err != nil {
		return
	}
	defer e.close()
	h := e.handler()
	readable := e.cfg.Roots - churnKeys(e.cfg.Roots)
	mat := e.newMaterializer()
	defer mat.close()
	l.do(func() error { return mat.get(0) }) // the first read builds the cache; not a hit

	// Reads.
	keys := make([]int, l.cfg.reads)
	for i := range keys {
		keys[i] = l.rng.Intn(readable)
	}
	get := func(k int) string { return fmt.Sprintf("%s/%d", objectURL, k) }
	for _, k := range keys {
		l.req++
		hid := l.span("serve.get", 0, serveOnce(h, "GET", get(k), nil))
		var inst instance
		cid := l.span("shard.get", hid, func() (err error) { inst, err = e.clusterGet(k); return })
		var rv readView
		l.span("reldb.begin_read", cid, func() error { rv = e.beginRead(); return nil })
		vid := l.span("viewobject.get", cid, func() error { _, err := rv.get(k); return err })
		l.batch("reldb.get", vid, func() error {
			if !rv.pivotGet(k) {
				return fmt.Errorf("pivot %d missing", k)
			}
			return nil
		})
		l.batch("reldb.match_equal", vid, func() error {
			n, err := rv.edgeProbe(k)
			if err == nil && n != fanout {
				err = fmt.Errorf("%d children under pivot %d", n, k)
			}
			return err
		})
		if l.err != nil {
			return
		}
		rv.close()
		var raw []byte
		l.span("serve.encode_doc", hid, func() (err error) { raw, err = encodeDoc(inst); return })
		l.span("serve.decode_doc", hid, func() error { _, err := e.decodeDoc(raw); return err })
		l.span("viewobject.materialized_get", cid, func() error { return mat.get(k) })
	}

	// What one client sees over loopback, for the same keys, and what
	// recording a span costs the handler timing.
	l.do(func() error {
		addr, stop, err := e.listen()
		if err != nil {
			return err
		}
		defer stop()
		client := &http.Client{}
		defer client.CloseIdleConnections()
		for _, k := range keys {
			l.req++
			l.span("loopback.get", 0, func() error {
				resp, err := client.Get("http://" + addr + get(k))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				_, err = io.Copy(io.Discard, resp.Body)
				return err
			})
		}
		return l.err
	})
	for i, k := range keys {
		l.req++
		name := "traced.get"
		if l.t.on = i%2 == 0; !l.t.on {
			name = "untraced.get"
		}
		l.span(name, 0, serveOnce(h, "GET", get(k), nil))
	}
	l.t.on = true

	// Range queries.
	for i := 0; i < l.cfg.queries && l.err == nil; i++ {
		l.req++
		lo := l.rng.Intn(readable - querySpan + 1)
		src := fmt.Sprintf("K0 >= %d and K0 < %d", lo, lo+querySpan)
		hid := l.span("serve.query", 0, serveOnce(h, "GET", objectURL+"?q="+strings.ReplaceAll(src, " ", "+"), nil))
		var q query
		l.span("oql.parse", hid, func() (err error) { q, err = e.parseQuery(src); return })
		want := func(n int, err error) error {
			if err == nil && n != querySpan {
				err = fmt.Errorf("%d instances, want %d", n, querySpan)
			}
			return err
		}
		cid := l.span("shard.query", hid, func() error { return want(e.clusterQuery(q)) })
		rv := e.beginRead()
		l.span("viewobject.query96", cid, func() error { return want(rv.query(q)) })
		rv.close()
	}

	// Replacements: the same kind of change at each depth, a fresh
	// value each time.
	u := e.updater()
	stamp := 0
	var (
		oldInst, newInst instance
		body             []byte
	)
	change := func(k int, leaf bool) {
		l.do(func() (err error) {
			if oldInst, err = e.clusterGet(k); err != nil {
				return err
			}
			stamp++
			mk := e.withPivotV
			if leaf {
				mk = e.withLeafV
			}
			newInst, err = mk(oldInst, fmt.Sprintf("l%d", stamp))
			return err
		})
	}
	changeBody := func(k int, leaf bool) {
		change(k, leaf)
		l.do(func() (err error) { body, err = updateBody(k, newInst); return })
	}
	for i := 0; i < l.cfg.replaces && l.err == nil; i++ {
		l.req++
		k, leaf := l.rng.Intn(readable), i%4 == 3
		changeBody(k, leaf)
		hid := l.span("serve.replace", 0, serveOnce(h, "POST", objectURL+":replace", body))
		change(k, leaf)
		cid := l.span("shard.replace", hid, func() error { return e.clusterReplace(oldInst, newInst) })
		change(k, leaf)
		uid := l.span("vupdate.replace", cid, func() error { _, err := u.replace(oldInst, newInst); return err })
		change(k, leaf)
		l.span("vupdate.preview_replace", uid, func() error { _, err := u.previewReplace(oldInst, newInst); return err })
	}

	// Churn: delete and re-insert one whole instance at each depth.
	var opsPerDelete []float64
	for i := 0; i < l.cfg.churns && l.err == nil; i++ {
		l.req++
		k := readable + l.rng.Intn(e.cfg.Roots-readable)
		var (
			inst instance
			doc  []byte
		)
		l.do(func() (err error) {
			if inst, err = e.clusterGet(k); err == nil {
				doc, err = encodeDoc(inst)
			}
			return
		})
		delBody := []byte(fmt.Sprintf(`{"key":[%d]}`, k))
		insBody := append(append([]byte(`{"instance":`), doc...), '}')
		hd := l.span("serve.delete", 0, serveOnce(h, "POST", objectURL+":delete", delBody))
		hi := l.span("serve.insert", 0, serveOnce(h, "POST", objectURL+":insert", insBody))
		cd := l.span("shard.delete", hd, func() error { return e.clusterDelete(k) })
		ci := l.span("shard.insert", hi, func() error { return e.clusterInsert(inst) })
		l.span("vupdate.preview_delete", cd, func() error { _, err := u.previewDelete(k); return err })
		l.span("vupdate.delete", cd, func() error {
			n, err := u.delete(k)
			opsPerDelete = append(opsPerDelete, float64(n))
			return err
		})
		l.span("vupdate.preview_insert", ci, func() error { _, err := u.previewInsert(inst); return err })
		l.span("vupdate.insert", ci, func() error { _, err := u.insert(inst); return err })
	}
	l.out["vupdate.ops_per_delete"] = metric{Value: median(opsPerDelete), Unit: "count", N: len(opsPerDelete)}

	// Commits and the materializer's patch: one pivot row changes, then
	// the first materialized read after it patches the cache.
	for i := 0; i < l.cfg.commits && l.err == nil; i++ {
		l.req++
		k := l.rng.Intn(readable)
		cid := l.span("reldb.commit_mem", 0, func() error { return e.commitOneRow(k, fmt.Sprintf("c%d", i)) })
		l.span("viewobject.materialized_patch", cid, func() error { return mat.get(k) })
	}

	// Allocation per call.
	k := keys[0]
	l.allocKB("serve.get_alloc_kb", 200, func() error { return serveOnce(h, "GET", get(k), nil)() })
	changeBody(k, false)
	l.allocKB("serve.replace_alloc_kb", 10, func() error { return serveOnce(h, "POST", objectURL+":replace", body)() })
	l.allocKB("reldb.commit_alloc_kb", 20, func() error { return e.commitOneRow(k, "alloc") })

	// The audit doubles as the check that the pass left the data sound.
	for i := 0; i < 3; i++ {
		l.span("structural.audit", 0, func() error {
			bad, err := e.audit()
			if err == nil && bad != 0 {
				err = fmt.Errorf("%d integrity violations after the ledger's writes", bad)
			}
			return err
		})
	}
	l.do(func() error {
		if rows := e.totalRows(); rows != e.cfg.seededRows() {
			return fmt.Errorf("ledger left %d rows, want the seeded %d", rows, e.cfg.seededRows())
		}
		return nil
	})
}

// sharded measures what only a cluster of two shards shows: routing,
// and the cross-shard commit a churn write takes because it touches the
// replicated peninsula. It replays the served write mix slot for slot: a
// churn slot deletes an instance, the next churn slot puts it back.
func (l *ledger) sharded() {
	var e *engine
	l.do(func() (err error) {
		e, err = openEngine(datasetConfig{Roots: l.cfg.largeRoots, Shards: 2}, true)
		return
	})
	if l.err != nil {
		return
	}
	defer e.close()
	readable := e.cfg.Roots - churnKeys(e.cfg.Roots)
	cross, updates := 0, 0
	count := func(fn func() error) func() error {
		return func() error {
			advanced, err := e.generationsAdvanced(fn)
			updates++
			if advanced > 1 {
				cross++
			}
			return err
		}
	}
	var (
		gone    instance // deleted by the last churn slot, for the next to re-insert
		goneKey int
	)
	for i := 0; i < l.cfg.churns*len(writePattern) && l.err == nil; i++ {
		l.req++
		v := writePattern[i%len(writePattern)]
		switch {
		case v == verbChurn && gone != nil:
			inst := gone
			gone = nil
			l.span("shard.cross_update", 0, count(func() error { return e.clusterInsert(inst) }))
		case v == verbChurn:
			goneKey = readable + l.rng.Intn(e.cfg.Roots-readable)
			l.batch("shard.route", 0, func() error { _, err := e.route(goneKey); return err })
			l.do(func() (err error) { gone, err = e.clusterGet(goneKey); return })
			l.span("shard.cross_update", 0, count(func() error { return e.clusterDelete(goneKey) }))
		default:
			k := l.rng.Intn(readable)
			var oldInst, newInst instance
			l.do(func() (err error) {
				if oldInst, err = e.clusterGet(k); err != nil {
					return err
				}
				mk := e.withPivotV
				if v == verbLeaf {
					mk = e.withLeafV
				}
				newInst, err = mk(oldInst, fmt.Sprintf("x%d", i))
				return err
			})
			l.do(count(func() error { return e.clusterReplace(oldInst, newInst) }))
		}
	}
	l.out["shard.cross_share"] = metric{Value: float64(cross) / float64(updates), Unit: "share", N: updates}
}

// durable measures the log: commit with fsync alone and in a group,
// bytes logged, checkpoint, and recovery, on the small dataset in a
// data directory of its own with the background checkpointer off.
func (l *ledger) durable() {
	var (
		dir string
		e   *engine
	)
	l.do(func() (err error) {
		if err = os.MkdirAll(l.scratch, 0o755); err != nil {
			return err
		}
		dir, err = os.MkdirTemp(l.scratch, "ledger-")
		return err
	})
	if l.err != nil {
		return
	}
	defer os.RemoveAll(dir)
	cfg := datasetConfig{Roots: l.cfg.smallRoots, Shards: 1, Dir: dir}
	l.do(func() (err error) { e, err = openEngine(cfg, true); return })
	if l.err != nil {
		return
	}
	defer func() { e.close() }() // by then e is the reopened engine; closing twice is harmless

	// The same replacement as on the large dataset, a tenth the rows.
	u := e.updater()
	for i := 0; i < l.cfg.replaces && l.err == nil; i++ {
		l.req++
		k := l.rng.Intn(cfg.Roots)
		var oldInst, newInst instance
		l.do(func() (err error) {
			if oldInst, err = e.clusterGet(k); err == nil {
				newInst, err = e.withPivotV(oldInst, fmt.Sprintf("s%d", i))
			}
			return
		})
		l.span("small.preview_replace", 0, func() error { _, err := u.previewReplace(oldInst, newInst); return err })
	}

	walBytes := func() (n int64) {
		l.do(func() (err error) { n, err = dirBytes(dir, "wal-"); return })
		return
	}
	before := walBytes()
	for i := 0; i < l.cfg.commits && l.err == nil; i++ {
		l.req++
		l.span("reldb.commit_wal_c1", 0, func() error { return e.commitOneRow(i%cfg.Roots, fmt.Sprintf("d%d", i)) })
	}
	l.out["reldb.wal_bytes_per_commit"] = metric{Value: float64(walBytes()-before) / float64(l.cfg.commits), Unit: "B", N: l.cfg.commits}

	// Concurrent committers: wall time per commit, so the gap to c1 is
	// what sharing an fsync saves.
	committers := runtime.NumCPU()
	each := max(l.cfg.commits/committers, 1)
	l.req++
	_, d := l.timed("reldb.commit_wal_cN", 0, func() error {
		errs := make([]error, committers)
		var wg sync.WaitGroup
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < each && errs[c] == nil; i++ {
					errs[c] = e.commitOneRow((c*each+i)%cfg.Roots, fmt.Sprintf("g%d.%d", c, i))
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	l.out["reldb.commit_wal_cN_us"] = metric{Value: float64(d) / 1e3 / float64(committers*each), Unit: "us", N: committers * each,
		Note: fmt.Sprintf("%d concurrent committers, wall time per commit", committers)}

	l.req++
	_, d = l.timed("reldb.checkpoint", 0, e.checkpoint)
	l.out["reldb.checkpoint_ms"] = metric{Value: float64(d) / 1e6, Unit: "ms", N: 1}
	l.do(func() error {
		snap, err := dirBytes(dir, "snap-")
		l.out["reldb.snapshot_bytes_per_row"] = metric{Value: float64(snap) / float64(e.totalRows()), Unit: "B", N: e.totalRows()}
		return err
	})

	// Recovery: a log tail of known length on top of that snapshot.
	for i := 0; i < max(l.cfg.commits/4, 1); i++ {
		l.do(func() error { return e.commitOneRow(i%cfg.Roots, fmt.Sprintf("t%d", i)) })
	}
	l.do(e.close)
	replayed := walReplayed()
	l.req++
	_, d = l.timed("reldb.recover", 0, func() error {
		re, err := openEngine(cfg, false)
		if err == nil {
			e = re
		}
		return err
	})
	l.out["reldb.recover_ms"] = metric{Value: float64(d) / 1e6, Unit: "ms", N: 1}
	l.out["reldb.recover_records"] = metric{Value: float64(walReplayed() - replayed), Unit: "count", N: 1}
	l.do(func() error {
		if rows := e.totalRows(); rows != cfg.seededRows() {
			return fmt.Errorf("recovered %d rows, want %d", rows, cfg.seededRows())
		}
		return nil
	})
}

// sortedNames returns the keys of a metric map in order.
func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
