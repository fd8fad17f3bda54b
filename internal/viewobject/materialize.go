// Materialized view-object cache: a Materializer keeps the full extent
// of a view object's instances pinned to the generation they were built
// at and consumes the reldb delta stream to keep them fresh, mapping
// each committed delta through the definition tree instead of paying
// full re-instantiation on every read.
//
// Patch-versus-fallback decision per delta:
//
//   - pivot-relation tuples → membership: an insert builds the new
//     instance, a delete drops it, a same-key replace rebuilds it;
//   - tuples of any other relation on a definition path → localized:
//     the affected pivot keys are found by traversing the reversed
//     connection path(s) from the changed tuple images back to the
//     pivot, and exactly those instances are rebuilt from the snapshot;
//   - structural deltas (relation-level DDL) touching a definition
//     relation, pivot deltas when the pivot also appears mid-path, or a
//     generation gap → the plan cannot localize: invalidate and lazily
//     re-instantiate through the existing (parallel) path;
//   - a delta-stream overflow → resync: the cache lost history and
//     rebuilds from a fresh snapshot.
//
// The differential guarantee — a patched instance is byte-identical to
// a fresh instantiation at the same generation — holds by construction:
// patched instances are produced by the same assembleBatch the fresh
// path uses, against a snapshot of the same generation the cache is
// synced to, and affected-pivot discovery over-approximates (rebuilding
// an unaffected instance reproduces it exactly).
package viewobject

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// Materializer caches the instances of one view object over one
// database and keeps them fresh from the per-commit delta stream. All
// methods are safe for concurrent use; reads serialize on the cache
// (the win is amortized patching, not read fan-out).
type Materializer struct {
	db  *reldb.Database
	def *Definition

	mu      sync.Mutex
	sub     *reldb.Subscription
	buffer  int
	insts   map[string]*Instance // full extent, by encoded pivot key
	keys    []string             // encoded pivot keys, sorted
	gen     uint64               // generation the cache reflects
	valid   bool
	pending []reldb.DeltaBatch // polled but not yet applied (Gen > gen)

	pivotRel    string
	pivotSchema *reldb.Schema
	// revPaths maps each relation on a definition path to the reversed
	// connection path(s) leading from it back to the pivot; traversing
	// one from a changed tuple image yields the candidate affected
	// pivots.
	revPaths map[string][][]structural.Edge
	// defRels is every relation the definition touches (pivot, node
	// relations, and path intermediates); structural DDL on any of them
	// invalidates the cache.
	defRels map[string]bool
	// pivotOnPath marks definitions whose paths route through the pivot
	// relation mid-way: pivot deltas then affect more than membership,
	// so they invalidate instead of patching.
	pivotOnPath bool
}

// NewMaterializer creates a materializer for def's instances over db.
// The cache builds lazily on the first read.
func NewMaterializer(db *reldb.Database, def *Definition) *Materializer {
	m := &Materializer{
		db:          db,
		def:         def,
		pivotRel:    def.Pivot(),
		pivotSchema: def.schemaOf(def.root),
		revPaths:    make(map[string][][]structural.Edge),
		defRels:     map[string]bool{def.Pivot(): true},
	}
	// Precompute, for every relation at every step of every node's full
	// pivot-to-node path, the reversed edge prefix leading back to the
	// pivot. Parent prefixes are registered once (children extend them).
	full := map[*Node][]structural.Edge{def.root: nil}
	for _, n := range def.Nodes() {
		if n == def.root {
			continue
		}
		parentLen := len(full[n.Parent()])
		fp := make([]structural.Edge, 0, parentLen+len(n.Path))
		fp = append(append(fp, full[n.Parent()]...), n.Path...)
		full[n] = fp
		for i := parentLen; i < len(fp); i++ {
			rel := fp[i].Target()
			m.defRels[rel] = true
			if rel == m.pivotRel {
				m.pivotOnPath = true
				continue
			}
			rev := make([]structural.Edge, 0, i+1)
			for j := i; j >= 0; j-- {
				rev = append(rev, structural.Edge{Conn: fp[j].Conn, Forward: !fp[j].Forward})
			}
			m.revPaths[rel] = append(m.revPaths[rel], rev)
		}
	}
	return m
}

// SetDeltaBuffer sets the delta-subscription queue capacity used when
// the cache first syncs (reldb.DefaultDeltaBuffer when unset). Only
// effective before the first read; tests use it to force overflows.
func (m *Materializer) SetDeltaBuffer(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buffer = n
}

// Generation returns the commit generation the cache currently
// reflects (0 before the first read).
func (m *Materializer) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Len returns the number of cached instances.
func (m *Materializer) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.insts)
}

// Close unsubscribes from the delta stream and drops the cache. The
// materializer resubscribes and rebuilds if read again.
func (m *Materializer) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sub != nil {
		m.sub.Close()
		m.sub = nil
	}
	m.insts, m.keys, m.pending = nil, nil, nil
	m.valid = false
}

// Instantiate serves the object query from the materialized cache,
// patching it fresh first. Results — contents and order — are identical
// to Instantiate over a snapshot of the same generation. A failed serve
// finishes its span too (detail err=…), like every other root span.
func (m *Materializer) Instantiate(q Query) ([]*Instance, error) {
	op := obs.Default.StartOp("viewobject.materialize.serve")
	m.mu.Lock()
	defer m.mu.Unlock()
	out, err := m.instantiateLocked(q, op)
	if op.Active() {
		if err != nil {
			op.Finish(fmt.Sprintf("object=%s gen=%d err=%v", m.def.Name, m.gen, err))
		} else {
			op.Finish(fmt.Sprintf("object=%s gen=%d instances=%d", m.def.Name, m.gen, len(out)))
		}
	}
	return out, err
}

func (m *Materializer) instantiateLocked(q Query, op obs.Op) ([]*Instance, error) {
	rtx, err := m.syncLocked(op)
	if err != nil {
		return nil, err
	}
	if rtx != nil {
		rtx.Close()
	}
	var out []*Instance
	for _, ek := range m.keys {
		inst := m.insts[ek]
		if q.PivotPred != nil {
			ok, err := reldb.EvalBool(q.PivotPred, reldb.Row{Schema: m.pivotSchema, Tuple: inst.root.tuple})
			if err != nil {
				return nil, fmt.Errorf("viewobject: %s: pivot selection: %w", m.def.Name, err)
			}
			if !ok {
				continue
			}
		}
		keep, err := inst.matches(q)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, inst.Clone())
		}
	}
	return out, nil
}

// InstantiateByKey serves the single instance with the given object key
// from the materialized cache, or ok=false if absent.
func (m *Materializer) InstantiateByKey(key reldb.Tuple) (*Instance, bool, error) {
	op := obs.Default.StartOp("viewobject.materialize.serve")
	m.mu.Lock()
	defer m.mu.Unlock()
	rtx, err := m.syncLocked(op)
	if err != nil {
		if op.Active() {
			op.Finish(fmt.Sprintf("object=%s gen=%d key=%s err=%v", m.def.Name, m.gen, key, err))
		}
		return nil, false, err
	}
	if rtx != nil {
		rtx.Close()
	}
	finish := func(found bool) {
		if op.Active() {
			op.Finish(fmt.Sprintf("object=%s gen=%d key=%s found=%t", m.def.Name, m.gen, key, found))
		}
	}
	ek, err := m.pivotSchema.EncodeKey(key)
	if err != nil {
		finish(false)
		return nil, false, nil // mirror InstantiateByKey: a malformed key finds nothing
	}
	inst, ok := m.insts[ek]
	if !ok {
		finish(false)
		return nil, false, nil
	}
	finish(true)
	return inst.Clone(), true, nil
}

// applyVerdict classifies one patch attempt.
type applyVerdict int

const (
	applyOK applyVerdict = iota
	applyFallback
	applyResync
)

// syncLocked brings the cache up to the current committed generation:
// subscribe (first use), pin a snapshot, drain the stream, and either
// patch the affected instances or rebuild wholesale. It returns the
// snapshot the cache is now synced to (callers close it), or nil when
// the fast path proved the cache already fresh without pinning one.
// When op is active, the serve's outcome shows up as child spans:
// "…materialize.patch" for applied deltas and a "…materialize.{miss,
// fallback,resync}" span wrapping a rebuild (the rebuild's own
// instantiate span nests inside it).
func (m *Materializer) syncLocked(op obs.Op) (*reldb.ReadTx, error) {
	if m.sub == nil {
		// Subscribe before pinning the snapshot: the snapshot generation
		// is then >= StartGen, so every later commit reaches the queue.
		m.sub = m.db.Subscribe(m.buffer)
	} else if m.valid && len(m.pending) == 0 && m.db.Generation() == m.gen {
		// Nothing committed since the last sync: the queue is necessarily
		// empty (every publish advances the generation), so serve without
		// pinning a snapshot. A commit racing this check linearizes after
		// the serve. Callers handle the nil snapshot.
		obs.Default.MatHits.Inc()
		return nil, nil
	}
	rtx := m.db.BeginRead()
	batches, lost := m.sub.Poll()
	m.pending = append(m.pending, batches...)

	var cause *obs.Counter
	var causeName string
	switch {
	case m.insts == nil:
		m.valid, cause, causeName = false, &obs.Default.MatMisses, "miss"
	case lost:
		m.valid, cause, causeName = false, &obs.Default.MatResyncs, "resync"
	}
	if m.valid {
		verdict, err := m.applyLocked(rtx, op)
		if err != nil {
			rtx.Close()
			return nil, err
		}
		switch verdict {
		case applyOK:
			cause = &obs.Default.MatHits
		case applyFallback:
			m.valid, cause, causeName = false, &obs.Default.MatFallbacks, "fallback"
		case applyResync:
			m.valid, cause, causeName = false, &obs.Default.MatResyncs, "resync"
		}
	}
	if !m.valid {
		var rop obs.Op
		if op.Active() {
			rop = op.Child("viewobject.materialize." + causeName)
		}
		if err := m.rebuildLocked(rtx, rop); err != nil {
			rtx.Close()
			return nil, err
		}
		if rop.Active() {
			rop.Finish(fmt.Sprintf("object=%s gen=%d instances=%d", m.def.Name, m.gen, len(m.insts)))
		}
	}
	cause.Inc()
	return rtx, nil
}

// applyLocked patches the cache with every pending batch up to the
// snapshot's generation. It scans the batches first — any condition the
// plan cannot localize returns a fallback/resync verdict before a
// single instance is touched — then traverses reverse paths to find the
// affected pivot keys and rebuilds exactly those instances from the
// snapshot.
func (m *Materializer) applyLocked(rtx *reldb.ReadTx, op obs.Op) (applyVerdict, error) {
	target := rtx.Generation()
	cut := 0
	for cut < len(m.pending) && m.pending[cut].Gen <= target {
		cut++
	}
	batches := m.pending[:cut]
	m.pending = m.pending[cut:]
	if len(batches) == 0 {
		if m.gen != target {
			// No batches yet the snapshot moved: the subscription was
			// pinned past an in-flight commit whose batch it never got.
			return applyResync, nil
		}
		return applyOK, nil // already fresh
	}
	start := time.Now()

	// Scan: membership changes key the pivot directly; other on-path
	// relations contribute changed images for reverse traversal.
	touched := make(map[string]bool)
	var traverse []struct {
		rel string
		img reldb.Tuple
	}
	gen := m.gen
	for _, b := range batches {
		if b.Gen != gen+1 {
			return applyResync, nil // gap: the stream skipped a generation
		}
		gen = b.Gen
		for _, d := range b.Deltas {
			switch {
			case d.Structural:
				if m.defRels[d.Relation] {
					return applyFallback, nil
				}
			case d.Relation == m.pivotRel:
				if m.pivotOnPath {
					return applyFallback, nil
				}
				for _, t := range d.Inserts {
					touched[m.pivotSchema.EncodeKeyOf(t)] = true
				}
				for _, t := range d.Deletes {
					touched[m.pivotSchema.EncodeKeyOf(t)] = true
				}
				for _, rc := range d.Replaces {
					touched[m.pivotSchema.EncodeKeyOf(rc.Old)] = true
					touched[m.pivotSchema.EncodeKeyOf(rc.New)] = true
				}
			default:
				paths := m.revPaths[d.Relation]
				if len(paths) == 0 {
					continue // not part of this object
				}
				for _, t := range d.Inserts {
					traverse = append(traverse, struct {
						rel string
						img reldb.Tuple
					}{d.Relation, t})
				}
				for _, t := range d.Deletes {
					traverse = append(traverse, struct {
						rel string
						img reldb.Tuple
					}{d.Relation, t})
				}
				for _, rc := range d.Replaces {
					traverse = append(traverse, struct {
						rel string
						img reldb.Tuple
					}{d.Relation, rc.Old}, struct {
						rel string
						img reldb.Tuple
					}{d.Relation, rc.New})
				}
			}
		}
	}
	if gen != target {
		// The stream publishes every generation advance while subscribed,
		// so falling short of the snapshot means lost history.
		return applyResync, nil
	}

	// Localize: both the old and new image of every change reach every
	// pivot whose instance content they entered or left — the reversed
	// path from the earliest-changed link runs through steps that did not
	// change in this window, so evaluating at the final state is exact.
	for _, c := range traverse {
		for _, rp := range m.revPaths[c.rel] {
			pivots, err := TraversePath(rtx, c.img, rp)
			if err != nil {
				return applyFallback, err
			}
			for _, p := range pivots {
				touched[m.pivotSchema.EncodeKeyOf(p)] = true
			}
		}
	}

	// Patch: final membership and content both resolve against the
	// snapshot — a touched key present in the pivot relation rebuilds
	// (through the same assembleBatch the fresh path uses), an absent
	// one drops.
	pivotRel, err := rtx.Relation(m.pivotRel)
	if err != nil {
		return applyFallback, err
	}
	eks := make([]string, 0, len(touched))
	for ek := range touched {
		eks = append(eks, ek)
	}
	sort.Strings(eks)
	patches := 0
	var rebuildEKs []string
	var rebuildPts []reldb.Tuple
	for _, ek := range eks {
		pt, ok := pivotRel.GetEncoded(ek)
		if !ok {
			if _, had := m.insts[ek]; had {
				delete(m.insts, ek)
				m.dropKey(ek)
				patches++
			}
			continue
		}
		rebuildEKs = append(rebuildEKs, ek)
		rebuildPts = append(rebuildPts, pt)
	}
	if len(rebuildPts) > 0 {
		insts, err := assembleBatch(rtx, m.def, rebuildPts)
		if err != nil {
			return applyFallback, err
		}
		for i, ek := range rebuildEKs {
			if _, had := m.insts[ek]; !had {
				m.addKey(ek)
			}
			m.insts[ek] = insts[i]
			patches++
		}
	}
	m.gen = target
	if patches > 0 {
		obs.Default.MatPatches.Add(int64(patches))
		obs.Default.MatPatchNs.Observe(time.Since(start).Nanoseconds())
		if op.Active() {
			op.Span("viewobject.materialize.patch",
				fmt.Sprintf("object=%s gen=%d patches=%d", m.def.Name, target, patches),
				start, time.Since(start))
		}
	}
	return applyOK, nil
}

// rebuildLocked re-instantiates the full extent through the existing
// Instantiate path (parallel when the pivot frontier and worker budget
// warrant) and re-keys the cache at the snapshot's generation.
func (m *Materializer) rebuildLocked(rtx *reldb.ReadTx, op obs.Op) error {
	insts, err := InstantiateOp(rtx, m.def, Query{}, op)
	if err != nil {
		return err
	}
	m.insts = make(map[string]*Instance, len(insts))
	m.keys = m.keys[:0]
	for _, inst := range insts {
		ek := m.pivotSchema.EncodeKeyOf(inst.root.tuple)
		m.insts[ek] = inst
		m.keys = append(m.keys, ek)
	}
	sort.Strings(m.keys)
	m.gen = rtx.Generation()
	cut := 0
	for cut < len(m.pending) && m.pending[cut].Gen <= m.gen {
		cut++
	}
	m.pending = m.pending[cut:]
	m.valid = true
	return nil
}

// addKey inserts ek into the sorted key slice.
func (m *Materializer) addKey(ek string) {
	i := sort.SearchStrings(m.keys, ek)
	m.keys = append(m.keys, "")
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = ek
}

// dropKey removes ek from the sorted key slice.
func (m *Materializer) dropKey(ek string) {
	i := sort.SearchStrings(m.keys, ek)
	if i < len(m.keys) && m.keys[i] == ek {
		m.keys = append(m.keys[:i], m.keys[i+1:]...)
	}
}

// materializers interns one Materializer per (database, definition)
// pair for the package-level MaterializedInstantiate entry point.
var materializers sync.Map // matKey -> *Materializer

type matKey struct {
	db  *reldb.Database
	def *Definition
}

// MaterializerFor returns the shared materializer for def's instances
// over db, creating it on first use.
func MaterializerFor(db *reldb.Database, def *Definition) *Materializer {
	k := matKey{db: db, def: def}
	if v, ok := materializers.Load(k); ok {
		return v.(*Materializer)
	}
	v, _ := materializers.LoadOrStore(k, NewMaterializer(db, def))
	return v.(*Materializer)
}

// MaterializedInstantiate is Instantiate through the shared materialized
// cache: it serves patched instances when the cache is fresh and falls
// back to the regular instantiation path on miss or invalidation. The
// result is byte-identical to Instantiate over a snapshot at the same
// generation.
func MaterializedInstantiate(db *reldb.Database, def *Definition, q Query) ([]*Instance, error) {
	return MaterializerFor(db, def).Instantiate(q)
}
