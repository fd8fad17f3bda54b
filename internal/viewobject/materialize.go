// Materialized view-object cache: a Materializer keeps the full extent
// of a view object's instances at the generation they were built at,
// together with the committed versions of the definition's relations at
// that generation. Each sync diffs those versions against a fresh
// snapshot's (reldb.Diff) and maps the net change through the definition
// tree instead of paying full re-instantiation on every read.
//
// Patch-versus-fallback decision per changed relation:
//
//   - pivot-relation tuples → membership: an insert builds the new
//     instance, a delete drops it, a same-key replace rebuilds it;
//   - tuples of any other relation on a definition path → localized:
//     the affected pivot keys are found by traversing the reversed
//     connection path(s) from the changed tuple images back to the
//     pivot, and exactly those instances are rebuilt from the snapshot;
//   - a definition relation missing, new, or dropped and created again
//     (Diff reports it Structural), or a pivot change when the pivot also
//     appears mid-path → the plan cannot localize: re-instantiate through
//     the existing path.
//
// The window between two syncs may span any number of commits; the diff
// is their net effect, and that is all localization needs (DESIGN §11).
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
// database and keeps them fresh by diffing relation versions. All methods
// are safe for concurrent use; reads serialize on the cache (the win is
// amortized patching, not read fan-out).
type Materializer struct {
	db  *reldb.Database
	def *Definition

	mu    sync.Mutex
	insts map[string]*Instance // full extent, by encoded pivot key; nil until built
	keys  []string             // encoded pivot keys, sorted
	gen   uint64               // generation the cache reflects
	// vers are the committed versions of the definition's relations at
	// gen, by name. They are versions, not a ReadTx: holding them pins
	// what the next diff needs without counting as a stale reader.
	vers map[string]*reldb.Relation

	pivotRel    string
	pivotSchema *reldb.Schema
	// revPaths maps each relation on a definition path to the reversed
	// connection path(s) leading from it back to the pivot; traversing
	// one from a changed tuple image yields the candidate affected
	// pivots.
	revPaths map[string][][]structural.Edge
	// defRels is every relation the definition touches (pivot, node
	// relations, and path intermediates): the relations each sync diffs.
	defRels map[string]bool
	// pivotOnPath marks definitions whose paths route through the pivot
	// relation mid-way: pivot changes then affect more than membership,
	// so they fall back instead of patching.
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

// Close drops the cache and the relation versions it pins. The
// materializer rebuilds if read again.
func (m *Materializer) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insts, m.keys, m.vers = nil, nil, nil
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
	if err := m.syncLocked(op); err != nil {
		return nil, err
	}
	kept := make([]*Instance, 0, len(m.keys))
	for _, ek := range m.keys {
		inst := m.insts[ek]
		if q.PivotPred != nil {
			ok, err := reldb.EvalBool(q.PivotPred, m.pivotSchema, inst.root.row)
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
			kept = append(kept, inst)
		}
	}
	return cloneAll(kept), nil
}

// InstantiateByKey serves the single instance with the given object key
// from the materialized cache, or ok=false if absent.
func (m *Materializer) InstantiateByKey(key reldb.Tuple) (*Instance, bool, error) {
	op := obs.Default.StartOp("viewobject.materialize.serve")
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.syncLocked(op); err != nil {
		if op.Active() {
			op.Finish(fmt.Sprintf("object=%s gen=%d key=%s err=%v", m.def.Name, m.gen, key, err))
		}
		return nil, false, err
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

// syncLocked brings the cache up to the current committed generation:
// build it (first use), or pin a snapshot and either patch the instances
// the diff of the relation versions affects or rebuild wholesale. When
// op is active, the serve's outcome shows up as child spans:
// "…materialize.patch" for applied changes and a "…materialize.{miss,
// fallback}" span wrapping a rebuild (the rebuild's own instantiate span
// nests inside it).
func (m *Materializer) syncLocked(op obs.Op) error {
	if m.insts != nil && m.db.Generation() == m.gen {
		// Nothing committed since the last sync: serve without pinning a
		// snapshot. A commit racing this check linearizes after the serve.
		obs.Default.MatHits.Inc()
		return nil
	}
	rtx := m.db.BeginRead()
	defer rtx.Close()
	cause, causeName := &obs.Default.MatMisses, "miss"
	if m.insts != nil {
		patched, err := m.patchLocked(rtx, op)
		if err != nil {
			return err
		}
		if patched {
			obs.Default.MatHits.Inc()
			return nil
		}
		cause, causeName = &obs.Default.MatFallbacks, "fallback"
	}
	var rop obs.Op
	if op.Active() {
		rop = op.Child("viewobject.materialize." + causeName)
	}
	if err := m.rebuildLocked(rtx, rop); err != nil {
		return err
	}
	if rop.Active() {
		rop.Finish(fmt.Sprintf("object=%s gen=%d instances=%d", m.def.Name, m.gen, len(m.insts)))
	}
	cause.Inc()
	return nil
}

// patchLocked brings the cache to the snapshot's generation by diffing
// every definition relation's cached version against the snapshot's. It
// checks every diff first — a change the plan cannot localize returns
// false before a single instance is touched — then traverses reverse
// paths to find the affected pivot keys and rebuilds exactly those
// instances from the snapshot.
func (m *Materializer) patchLocked(rtx *reldb.ReadTx, op obs.Op) (bool, error) {
	start := time.Now()
	target := rtx.Generation()
	vers := m.versionsIn(rtx)
	var diffs []reldb.Delta
	for name := range m.defRels {
		was, now := m.vers[name], vers[name]
		if was == now {
			continue
		}
		if was == nil || now == nil {
			return false, nil // a definition relation appeared or vanished
		}
		d := reldb.Diff(was, now)
		changed := len(d.Inserts)+len(d.Deletes)+len(d.Replaces) > 0
		if d.Structural || (changed && name == m.pivotRel && m.pivotOnPath) {
			return false, nil
		}
		diffs = append(diffs, d)
	}

	// Localize: membership changes key the pivot directly; for any other
	// relation, both the old and new image of every change reach every
	// pivot whose instance content they entered or left — the reversed
	// path from the earliest-changed link runs through tuples that are
	// the same at both ends of the window, so evaluating at the final
	// state is exact.
	touched := make(map[string]bool)
	for _, d := range diffs {
		images := append(append([]reldb.Row(nil), d.Inserts...), d.Deletes...)
		for _, rc := range d.Replaces {
			images = append(images, rc.Old, rc.New)
		}
		if d.Relation == m.pivotRel {
			for _, img := range images {
				touched[img.EncodeKey(m.pivotSchema)] = true
			}
			continue
		}
		for _, rp := range m.revPaths[d.Relation] {
			reached, err := walkPath(rtx, rp, images, nil)
			if err != nil {
				return false, err
			}
			for _, pivots := range reached {
				for _, p := range pivots {
					touched[p.EncodeKey(m.pivotSchema)] = true
				}
			}
		}
	}

	// Patch: final membership and content both resolve against the
	// snapshot — a touched key present in the pivot relation rebuilds
	// (through the same assembleBatch the fresh path uses), an absent
	// one drops.
	pivotRel, err := rtx.Relation(m.pivotRel)
	if err != nil {
		return false, err
	}
	eks := make([]string, 0, len(touched))
	for ek := range touched {
		eks = append(eks, ek)
	}
	sort.Strings(eks)
	patches := 0
	var rebuildEKs []string
	var rebuildPts []reldb.Row
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
			return false, err
		}
		for i, ek := range rebuildEKs {
			if _, had := m.insts[ek]; !had {
				m.addKey(ek)
			}
			m.insts[ek] = insts[i]
			patches++
		}
	}
	m.gen, m.vers = target, vers
	if patches > 0 {
		obs.Default.MatPatches.Add(int64(patches))
		obs.Default.MatPatchNs.Observe(time.Since(start).Nanoseconds())
		if op.Active() {
			op.Span("viewobject.materialize.patch",
				fmt.Sprintf("object=%s gen=%d patches=%d", m.def.Name, target, patches),
				start, time.Since(start))
		}
	}
	return true, nil
}

// versionsIn returns the snapshot's versions of the definition's
// relations, by name; a relation the snapshot lacks is absent.
func (m *Materializer) versionsIn(rtx *reldb.ReadTx) map[string]*reldb.Relation {
	vers := make(map[string]*reldb.Relation, len(m.defRels))
	for name := range m.defRels {
		if r, err := rtx.Relation(name); err == nil {
			vers[name] = r
		}
	}
	return vers
}

// rebuildLocked re-instantiates the full extent through the existing
// Instantiate path and re-keys the cache at the snapshot's generation.
func (m *Materializer) rebuildLocked(rtx *reldb.ReadTx, op obs.Op) error {
	insts, err := InstantiateOp(rtx, m.def, Query{}, op)
	if err != nil {
		return err
	}
	m.insts = make(map[string]*Instance, len(insts))
	m.keys = m.keys[:0]
	for _, inst := range insts {
		ek := inst.root.row.EncodeKey(m.pivotSchema)
		m.insts[ek] = inst
		m.keys = append(m.keys, ek)
	}
	sort.Strings(m.keys)
	m.gen, m.vers = rtx.Generation(), m.versionsIn(rtx)
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
