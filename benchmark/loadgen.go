package main

// loadgen.go is the load generator: the seeded request stream, the
// open-loop and closed-loop drivers, and the check of every answer. It
// speaks HTTP only; what it knows of the engine is the URL scheme and
// the document shape.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opRead  opKind = iota // GET /objects/tree/{key}
	opQuery               // GET /objects/tree?q=K0 >= a and K0 < a+querySpan
	opWrite               // POST /objects/tree:replace | :delete | :insert
	numKinds
)

var kindNames = [numKinds]string{"read", "query", "write"}

// latencyLimit is the fixed per-type limit an operation must meet to
// count as goodput.
var latencyLimit = [numKinds]time.Duration{
	opRead:  10 * time.Millisecond,
	opQuery: 250 * time.Millisecond,
	opWrite: 250 * time.Millisecond,
}

// querySpan is the number of consecutive pivots every range query
// selects. It is pinned, and the server's GOMAXPROCS capped at
// maxServerProcs, because of the open tier-1 gate item in ROADMAP.md:
// instantiateParallel splits P pivots into min(4·workers, P) chunks of
// ceil(P/chunks) and clamps only the upper bound of a chunk, so a P that
// does not fill the chunks (10 pivots on 2 workers, 41 on 2, 20 on 4)
// indexes past the end and panics on a worker goroutine — which kills
// the whole serving process, not one request. 96 divides evenly into 8,
// 12 and 16 chunks, and with 1 worker assembly is sequential. For the
// same reason range queries are only sent to single-shard datasets: a
// cluster hands each shard an uncontrolled share of the range.
const querySpan = 96

// lateLimit is how late the dispatcher may wake for a request before
// the run counts it apart (loadgen.late_over_50ms): the generator, not
// the server, missed the schedule by that much. The request is still
// timed from its due time.
const lateLimit = 50 * time.Millisecond

type verb int

const (
	verbPivot  verb = iota // VO-R rewriting the pivot's V
	verbLeaf               // VO-R rewriting one grandchild's V
	verbChurn              // placeholder in writePattern: delete if present, else insert
	verbDelete             // VO-CD by key
	verbInsert             // VO-CI of the saved document
)

// writePattern is the write mix — 60 % pivot replace, 20 % leaf
// replace, 20 % churn — as a fixed cycle, so every seed offers the same
// mix and only the keys differ.
var writePattern = [5]verb{verbPivot, verbLeaf, verbPivot, verbChurn, verbPivot}

type op struct {
	kind  opKind
	verb  verb
	key   int // pivot key; for a query, the low end of the range
	stamp string
}

// keyState is what the generator knows of one instance.
type keyState struct {
	doc     map[string]any // last acknowledged document
	present bool
	busy    bool // a write is queued or in flight; no second one may start
	touched bool // written at least once: the final sweep re-reads it
}

type generator struct {
	def    workloadDef
	base   string
	client *http.Client

	mu   sync.Mutex // guards the flags of keys and failures
	keys []keyState
	// Keys [0, readable) are read, queried and replaced; [readable,
	// roots) is reserved for churn, so no read ever races a delete.
	readable int
	failures []string

	stamps                  atomic.Int64
	attempted, failed, shed atomic.Int64
}

func newGenerator(def workloadDef, addr string) *generator {
	clients := clientCount()
	g := &generator{
		def:  def,
		base: "http://" + addr,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: clients,
				MaxConnsPerHost:     clients,
			},
		},
		keys:     make([]keyState, def.data.Roots),
		readable: def.data.Roots,
	}
	if def.rate[opWrite] > 0 {
		g.readable -= churnKeys(def.data.Roots)
	}
	for i := range g.keys {
		g.keys[i].present = true
	}
	return g
}

// churnKeys is the size of the key range at the top of a dataset that
// the write mix deletes and re-inserts and nothing else touches.
func churnKeys(roots int) int { return max(roots/20, 4) }

func (g *generator) close() { g.client.CloseIdleConnections() }

// fail counts one failed operation and keeps the first few reasons.
func (g *generator) fail(format string, args ...any) {
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.failures) < 8 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// ---- the request stream --------------------------------------------

// picker turns slots into concrete operations. Each sending goroutine
// owns one, so the streams depend on the seed alone (up to which sender
// takes which slot, and the skipping of busy keys).
type picker struct {
	g        *generator
	rng      *rand.Rand
	zipf     *rand.Zipf
	perm     []int // Zipf rank → key, so hot keys spread over shards
	writeSeq int
}

func (g *generator) newPicker(seed int64) *picker {
	p := &picker{g: g, rng: rand.New(rand.NewSource(seed))}
	p.writeSeq = p.rng.Intn(len(writePattern))
	if g.def.zipf {
		p.zipf = rand.NewZipf(p.rng, 1.1, 1, uint64(g.readable-1))
		p.perm = rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(g.readable)
	}
	return p
}

// pick chooses the operation for a slot of the given kind. A write
// claims its key; ok is false when every candidate key already has a
// write outstanding.
func (p *picker) pick(kind opKind) (op, bool) {
	g := p.g
	switch kind {
	case opRead:
		if p.zipf != nil {
			return op{kind: opRead, key: p.perm[p.zipf.Uint64()]}, true
		}
		return op{kind: opRead, key: p.rng.Intn(g.readable)}, true
	case opQuery:
		return op{kind: opQuery, key: p.rng.Intn(g.readable - querySpan + 1)}, true
	}
	o := op{kind: opWrite, verb: writePattern[p.writeSeq%len(writePattern)]}
	p.writeSeq++
	lo, n := 0, g.readable
	if o.verb == verbChurn {
		lo, n = g.readable, len(g.keys)-g.readable
	}
	first := p.rng.Intn(n)
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < n; i++ {
		k := lo + (first+i)%n
		st := &g.keys[k]
		if st.busy {
			continue
		}
		st.busy = true
		o.key = k
		if o.verb == verbChurn {
			o.verb = verbDelete
			if !st.present {
				o.verb = verbInsert
			}
		}
		o.stamp = "w" + strconv.FormatInt(g.stamps.Add(1), 10)
		return o, true
	}
	return o, false
}

// ---- executing and checking one operation --------------------------

func (g *generator) roundTrip(method, path string, body []byte) (int, []byte, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	raw, err := io.ReadAll(resp.Body)
	end := time.Now()
	resp.Body.Close()
	return resp.StatusCode, raw, end, err
}

// exec sends one operation, stops the clock when the whole answer has
// arrived, and then checks the answer. It returns the completion time
// and whether the operation succeeded and verified.
func (g *generator) exec(o op) (time.Time, bool) {
	g.attempted.Add(1)
	var (
		status int
		raw    []byte
		end    time.Time
		err    error
		what   string
	)
	switch o.kind {
	case opRead:
		what = "GET " + strconv.Itoa(o.key)
		status, raw, end, err = g.roundTrip("GET", objectURL+"/"+strconv.Itoa(o.key), nil)
		if err == nil && status == http.StatusOK {
			_, err = decodeInstance(raw, o.key)
		}
	case opQuery:
		what = "query from " + strconv.Itoa(o.key)
		q := fmt.Sprintf("?q=K0+%%3E%%3D+%d+and+K0+%%3C+%d", o.key, o.key+querySpan)
		status, raw, end, err = g.roundTrip("GET", objectURL+q, nil)
		if err == nil && status == http.StatusOK {
			err = checkQueryAnswer(raw, o.key)
		}
	case opWrite:
		return g.execWrite(o)
	}
	return end, g.verdict(what, status, raw, err)
}

// verdict classifies an answer: transport error, shed, other non-2xx
// and a failed check are all failures.
func (g *generator) verdict(what string, status int, raw []byte, err error) bool {
	switch {
	case err != nil:
		g.fail("%s: %v", what, err)
	case status == http.StatusTooManyRequests:
		g.shed.Add(1)
		g.fail("%s: shed (429)", what)
	case status != http.StatusOK:
		g.fail("%s: status %d: %s", what, status, bytes.TrimSpace(raw))
	default:
		return true
	}
	return false
}

// execWrite sends one write. The picker marked the key busy, so this
// goroutine owns the key's document until it clears the flag.
func (g *generator) execWrite(o op) (time.Time, bool) {
	st := &g.keys[o.key]
	key := []any{o.key}
	var (
		body  map[string]any
		path  = objectURL + ":replace"
		node  map[string]any // the node whose V is rewritten
		saved any
	)
	switch o.verb {
	case verbPivot:
		node = st.doc
	case verbLeaf:
		node = st.doc[childRel].([]any)[0].(map[string]any)[leafRel].([]any)[0].(map[string]any)
	case verbDelete:
		path, body = objectURL+":delete", map[string]any{"key": key}
	case verbInsert:
		path, body = objectURL+":insert", map[string]any{"instance": st.doc}
	}
	if node != nil {
		saved, node["V"] = node["V"], o.stamp
		body = map[string]any{"key": key, "instance": st.doc}
	}
	what := fmt.Sprintf("POST %s key %d", path, o.key)
	payload, err := json.Marshal(body)
	var (
		status int
		raw    []byte
		end    = time.Now()
	)
	if err == nil {
		status, raw, end, err = g.roundTrip("POST", path, payload)
	}
	ok := g.verdict(what, status, raw, err)
	g.mu.Lock()
	switch {
	case !ok && node != nil:
		node["V"] = saved
	case ok && o.verb == verbDelete:
		st.present = false
	case ok && o.verb == verbInsert:
		st.present = true
	}
	st.touched = true
	st.busy = false
	g.mu.Unlock()
	return end, ok
}

// decodeInstance decodes one instance document and checks that it is
// the instance asked for, whole: the requested key, and the full
// 46-node shape with `fanout` components under every child node.
func decodeInstance(raw []byte, key int) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("bad document: %w", err)
	}
	return doc, checkInstance(doc, key)
}

func checkInstance(doc map[string]any, key int) error {
	k0, _ := doc["K0"].(map[string]any)
	if got, _ := k0["int"].(string); got != strconv.Itoa(key) {
		return fmt.Errorf("asked for key %d, got K0=%v", key, doc["K0"])
	}
	nodes, err := countNodes(doc)
	if err == nil && nodes != nodesPerInstance {
		err = fmt.Errorf("%d nodes, want %d", nodes, nodesPerInstance)
	}
	if err != nil {
		return fmt.Errorf("instance %d: %w", key, err)
	}
	return nil
}

func countNodes(doc map[string]any) (int, error) {
	n := 1
	for field, v := range doc {
		kids, ok := v.([]any)
		if !ok {
			continue
		}
		if len(kids) != fanout {
			return 0, fmt.Errorf("%d components under %s, want %d", len(kids), field, fanout)
		}
		for _, kid := range kids {
			kd, ok := kid.(map[string]any)
			if !ok {
				return 0, fmt.Errorf("component of %s is not an object", field)
			}
			sub, err := countNodes(kd)
			if err != nil {
				return 0, err
			}
			n += sub
		}
	}
	return n, nil
}

// checkQueryAnswer checks a range query's answer: exactly querySpan
// instances, whole, in key order from lo.
func checkQueryAnswer(raw []byte, lo int) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var ans struct {
		Instances []map[string]any `json:"instances"`
	}
	if err := dec.Decode(&ans); err != nil {
		return fmt.Errorf("bad query answer: %w", err)
	}
	if len(ans.Instances) != querySpan {
		return fmt.Errorf("query returned %d instances, want %d", len(ans.Instances), querySpan)
	}
	for i, doc := range ans.Instances {
		if err := checkInstance(doc, lo+i); err != nil {
			return err
		}
	}
	return nil
}

// prefetch loads the document of every key the write mix can touch, so
// a write is one request and the sweep has something to compare with.
func (g *generator) prefetch() error {
	for k := range g.keys {
		raw, err := g.fetchHTTP(k)
		if err == nil {
			g.keys[k].doc, err = decodeInstance(raw, k)
		}
		if err != nil {
			return fmt.Errorf("prefetch of key %d: %w", k, err)
		}
	}
	return nil
}

// restoreChurn re-inserts every churn instance the run left deleted, so
// the dataset nets to its seeded row count.
func (g *generator) restoreChurn() {
	for k := g.readable; k < len(g.keys); k++ {
		if !g.keys[k].present {
			g.keys[k].busy = true
			g.exec(op{kind: opWrite, verb: verbInsert, key: k})
		}
	}
}

// sweep re-reads every written key through fetch and compares the whole
// document with the last acknowledged one.
func (g *generator) sweep(where string, fetch func(k int) ([]byte, error)) {
	for k := range g.keys {
		st := &g.keys[k]
		if !st.touched {
			continue
		}
		g.attempted.Add(1)
		raw, err := fetch(k)
		var doc map[string]any
		if err == nil {
			doc, err = decodeInstance(raw, k)
		}
		if err == nil && !reflect.DeepEqual(doc, st.doc) {
			err = fmt.Errorf("stored document differs from the last acknowledged write (V=%v, want %v)", doc["V"], st.doc["V"])
		}
		if err != nil {
			g.fail("%s sweep, key %d: %v", where, k, err)
		}
	}
}

func (g *generator) fetchHTTP(k int) ([]byte, error) {
	status, raw, _, err := g.roundTrip("GET", objectURL+"/"+strconv.Itoa(k), nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	return raw, err
}

// ---- open loop -----------------------------------------------------

// slot is one scheduled arrival: an offset from the phase start and the
// kind of operation due then.
type slot struct {
	at   time.Duration
	kind opKind
}

// buildSchedule lays out the arrivals of d at fixed rates: each kind
// evenly spaced at its own rate, the kinds phase-shifted against one
// another, merged into one absolute timeline.
func buildSchedule(rate [numKinds]float64, d time.Duration) []slot {
	var sched []slot
	for kind, r := range rate {
		if r <= 0 {
			continue
		}
		gap := float64(time.Second) / r
		phase := gap * float64(kind+1) / float64(numKinds+1)
		for at := phase; at < float64(d); at += gap {
			sched = append(sched, slot{at: time.Duration(at), kind: opKind(kind)})
		}
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].at < sched[b].at })
	return sched
}

// record is one operation as the generator saw it.
type record struct {
	kind opKind
	due  time.Time // when it was scheduled to be sent (closed loop: when it was sent)
	wake time.Time // when the dispatcher got to it
	end  time.Time // when the whole answer had arrived
	ok   bool
}

func (r record) latency() time.Duration { return r.end.Sub(r.due) }

// runOpenLoop sends sched on its absolute timeline, whatever the server
// does. One dispatcher sleeps until each slot is due, notes how late it
// woke, and queues the slot; `workers` senders, one connection each,
// drain the queue through send, which chooses the concrete operation at
// the moment it goes out. The queue holds the whole schedule, so the
// dispatcher never waits for a free connection: a stalled server makes
// requests wait in the queue, and because each is timed from its due
// time that wait is counted as its latency, not hidden by a slower
// arrival rate.
func runOpenLoop(start time.Time, sched []slot, workers int, send func(worker int, kind opKind) (time.Time, bool)) []record {
	records := make([]record, len(sched))
	queue := make(chan int, len(sched)) // one send per slot: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				r := &records[i]
				r.end, r.ok = send(w, r.kind)
			}
		}(w)
	}
	for i, s := range sched {
		due := start.Add(s.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r := &records[i]
		r.kind, r.due, r.wake = s.kind, due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return records
}

// senders returns the send function of n callers: each owns a picker,
// picks its operation when it is about to send it — so at most n keys
// have a write outstanding however long the queue — and executes it.
func (g *generator) senders(n int, seed int64) func(worker int, kind opKind) (time.Time, bool) {
	pickers := make([]*picker, n)
	for w := range pickers {
		pickers[w] = g.newPicker(seed + int64(w))
	}
	return func(w int, kind opKind) (time.Time, bool) {
		o, ok := pickers[w].pick(kind)
		if !ok {
			g.attempted.Add(1)
			g.fail("no key without an outstanding write for a %s", kindNames[kind])
			return time.Now(), false
		}
		return g.exec(o)
	}
}

// ---- closed loop ---------------------------------------------------

// runClosedLoop runs `clients` callers for d, each sending its next
// operation when the previous one has been answered. Every caller deals
// the kinds out in proportion to the workload's rates by a fixed rule,
// not by chance: a range query costs fifty reads, so a few queries more
// or fewer in a run would show as a change in cost per operation.
func (g *generator) runClosedLoop(d time.Duration, seed int64) []record {
	var total float64
	for _, r := range g.def.rate {
		total += r
	}
	clients := clientCount()
	send := g.senders(clients, seed)
	perClient := make([][]record, clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// owed[k] is how many operations of kind k this caller is
			// behind its share; the kind furthest behind goes next.
			var owed [numKinds]float64
			for k := range owed {
				owed[k] = float64(c) / float64(clients) * g.def.rate[k] / total
			}
			for time.Now().Before(deadline) {
				kind := opKind(0)
				for k := range owed {
					owed[k] += g.def.rate[k] / total
					if owed[k] > owed[kind] {
						kind = opKind(k)
					}
				}
				owed[kind]--
				r := record{kind: kind, due: time.Now()}
				r.wake = r.due
				r.end, r.ok = send(c, kind)
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []record
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all
}
