package reldb

import (
	"fmt"
	"slices"
	"sync/atomic"

	"penguin/internal/obs"
)

// Relation is an in-memory keyed table. Rows live in a path-copying
// ordered tree (ptree.go) keyed by the order-preserving encoding of the
// primary key, so a scan is an in-order walk. Optional secondary indexes —
// trees of the same kind, keyed by the indexed values followed by the
// primary key — accelerate equality and range lookups on other attribute
// sets (the connection attributes of the structural model).
//
// Relation is not internally synchronized. Under the database's copy-on-
// write discipline, committed versions are immutable: write transactions
// mutate a private clone and publish it at commit, so any *Relation
// obtained from the catalog (directly or through a ReadTx snapshot) is
// safe to read concurrently. Stored tuples are never mutated in place
// (Insert and Replace store defensive copies), which lets versions, and
// the row tree and the index trees of one version, share them.
type Relation struct {
	schema  *Schema
	rows    ptree
	indexes map[string]*secondaryIndex
	// edit is the token under which this version mutates tree nodes in
	// place: nil on a frozen version, taken lazily by the first mutation.
	// A version is frozen when it is published (Tx.install) and when it is
	// cloned — the moment its nodes become shared; the latter is the one
	// write a setup-phase relation ever sees from another goroutine, hence
	// the atomic.
	edit atomic.Pointer[treeOwner]
	// gen is the commit generation that published this version (0 for a
	// version never published by a transaction).
	gen uint64
	// origin is the relation's identity across its versions: NewRelation
	// makes it, clone keeps it. Diff tells a later version from a relation
	// dropped and created again under the same name by it.
	origin *treeOwner
	// obsSlot is the relation name's slot in obs.Default.Relations,
	// interned at construction so the per-relation lookup-cost counters
	// (reldb.relation.scanned and friends) stay allocation-free.
	obsSlot int
}

type secondaryIndex struct {
	name  string
	attrs []int // attribute indices, in the order given at creation
	// tree maps EncodeValues(attrs of t…)+EncodeKeyOf(t) to the stored t.
	tree ptree
}

// NewRelation creates an empty relation with the given schema. The
// schema's name is interned into the obs relation-label dimension here —
// registration time — so every later labeled increment is slot-indexed.
func NewRelation(schema *Schema) *Relation {
	return &Relation{
		schema:  schema,
		indexes: make(map[string]*secondaryIndex),
		origin:  new(treeOwner),
		obsSlot: obs.Default.Relations.Intern(schema.Name()),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Name returns the relation's name.
func (r *Relation) Name() string { return r.schema.Name() }

// Count returns the number of tuples in the relation.
func (r *Relation) Count() int { return r.rows.n }

// Generation returns the commit generation that published this version of
// the relation.
func (r *Relation) Generation() uint64 { return r.gen }

// owner returns the token this version mutates under, taking one if the
// version is frozen (a fresh clone, or a catalog relation mutated in place
// under the setup-phase exception).
func (r *Relation) owner() *treeOwner {
	o := r.edit.Load()
	if o == nil {
		o = new(treeOwner)
		r.edit.Store(o)
	}
	return o
}

// freeze gives up the edit token: every node this version reaches is
// immutable from here on, whoever shares it. It writes nothing on an
// already frozen version, so concurrent cloners of a published version
// only read.
func (r *Relation) freeze() {
	if r.edit.Load() != nil {
		r.edit.Store(nil)
	}
}

// checkStorable is CheckTuple plus the key-codec domain check on indexed
// attributes (CheckTuple covers the key attributes).
func (r *Relation) checkStorable(t Tuple) error {
	if err := r.schema.CheckTuple(t); err != nil {
		return err
	}
	for _, ix := range r.indexes {
		if err := ix.check(r, t); err != nil {
			return err
		}
	}
	return nil
}

// Insert adds a tuple. It fails with ErrDuplicateKey if a tuple with the
// same primary key exists, and with a validation error if the tuple does
// not satisfy the schema.
func (r *Relation) Insert(t Tuple) error {
	if err := r.checkStorable(t); err != nil {
		return err
	}
	ek := r.schema.EncodeKeyOf(t)
	if _, exists := r.rows.get(ek); exists {
		return fmt.Errorf("reldb: %s: insert %s: %w", r.Name(), r.schema.KeyOf(t), ErrDuplicateKey)
	}
	// One stored copy, filed under ek in the row tree and under its
	// indexed values in every index tree.
	t = t.Clone()
	o := r.owner()
	r.rows.put(o, ek, t)
	for _, ix := range r.indexes {
		ix.tree.put(o, ix.keyFor(t, ek), t)
	}
	return nil
}

// Get fetches the tuple with the given key values (canonical key order).
func (r *Relation) Get(key Tuple) (Tuple, bool) {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return nil, false
	}
	return r.GetEncoded(ek)
}

// GetEncoded fetches the tuple with the given encoded primary key.
func (r *Relation) GetEncoded(ek string) (Tuple, bool) {
	t, ok := r.rows.get(ek)
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// Has reports whether a tuple with the given key values exists.
func (r *Relation) Has(key Tuple) bool {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return false
	}
	_, ok := r.rows.get(ek)
	return ok
}

// Delete removes the tuple with the given key values and returns a copy
// of it: the stored one lives on in every version that shares it. It fails
// with ErrNoSuchTuple if absent.
func (r *Relation) Delete(key Tuple) (Tuple, error) {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return nil, err
	}
	t, ok := r.rows.get(ek)
	if !ok {
		return nil, fmt.Errorf("reldb: %s: delete %s: %w", r.Name(), key, ErrNoSuchTuple)
	}
	o := r.owner()
	r.rows.delete(o, ek)
	for _, ix := range r.indexes {
		ix.tree.delete(o, ix.keyFor(t, ek))
	}
	return t.Clone(), nil
}

// Replace substitutes the tuple identified by oldKey with newTuple, which
// may carry a different primary key (a key replacement). It fails with
// ErrNoSuchTuple if oldKey is absent and with ErrDuplicateKey if the new
// key collides with a different existing tuple.
func (r *Relation) Replace(oldKey Tuple, newTuple Tuple) error {
	_, err := r.replace(oldKey, newTuple)
	return err
}

// replace is Replace that also returns the stored tuple (shared,
// immutable) it took out.
func (r *Relation) replace(oldKey Tuple, newTuple Tuple) (Tuple, error) {
	if err := r.checkStorable(newTuple); err != nil {
		return nil, err
	}
	oldEK, err := r.schema.EncodeKey(oldKey)
	if err != nil {
		return nil, err
	}
	old, ok := r.rows.get(oldEK)
	if !ok {
		return nil, fmt.Errorf("reldb: %s: replace %s: %w", r.Name(), oldKey, ErrNoSuchTuple)
	}
	newEK := r.schema.EncodeKeyOf(newTuple)
	if _, clash := r.rows.get(newEK); clash && newEK != oldEK {
		return nil, fmt.Errorf("reldb: %s: replace %s -> %s: %w",
			r.Name(), oldKey, r.schema.KeyOf(newTuple), ErrDuplicateKey)
	}
	// An entry whose key is unchanged — in the row tree or in an index — is
	// overwritten rather than deleted and inserted: it still has to point
	// at the new tuple.
	nt := newTuple.Clone()
	o := r.owner()
	if newEK != oldEK {
		r.rows.delete(o, oldEK)
	}
	r.rows.put(o, newEK, nt)
	for _, ix := range r.indexes {
		was, now := ix.keyFor(old, oldEK), ix.keyFor(nt, newEK)
		if was != now {
			ix.tree.delete(o, was)
		}
		ix.tree.put(o, now, nt)
	}
	return old, nil
}

// Scan calls fn for every tuple in primary-key order, walking the tree as
// it stood when Scan was called. If fn returns false the scan stops early.
// fn must not mutate the tuple it is passed, nor the relation.
func (r *Relation) Scan(fn func(Tuple) bool) {
	r.rows.ascend("", func(_ string, t Tuple) bool { return fn(t) })
}

// All returns every tuple in primary-key order, as copies.
func (r *Relation) All() []Tuple {
	out := make([]Tuple, 0, r.rows.n)
	r.Scan(func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// Select returns all tuples satisfying the predicate, in key order.
// A nil predicate selects everything. On a predicate evaluation error the
// result slice is nil — never a truncated prefix a caller could silently
// use.
func (r *Relation) Select(pred Expr) ([]Tuple, error) {
	var out []Tuple
	var evalErr error
	r.Scan(func(t Tuple) bool {
		if pred != nil {
			ok, err := EvalBool(pred, Row{Schema: r.schema, Tuple: t})
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		out = append(out, t.Clone())
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// CreateIndex registers a secondary index over the named attributes and
// backfills it. Index names are unique per relation.
func (r *Relation) CreateIndex(name string, attrNames []string) error {
	if _, dup := r.indexes[name]; dup {
		return fmt.Errorf("reldb: %s: index %s already exists", r.Name(), name)
	}
	idx, err := r.schema.Indices(attrNames)
	if err != nil {
		return err
	}
	ix := &secondaryIndex{name: name, attrs: idx}
	o := r.owner()
	r.rows.ascend("", func(ek string, t Tuple) bool {
		if err = ix.check(r, t); err == nil {
			ix.tree.put(o, ix.keyFor(t, ek), t)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	r.indexes[name] = ix
	return nil
}

// IndexNames returns the names of the relation's secondary indexes, sorted.
func (r *Relation) IndexNames() []string {
	names := make([]string, 0, len(r.indexes))
	for n := range r.indexes {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// checkLookupVals validates lookup values against the attributes they
// probe: arity, value kinds (per the same assignability rule as
// CheckTuple), and nulls (allowed only where the attribute is nullable).
// A wrong-typed value can never match a stored tuple, so accepting it
// would silently return an empty result where Select and CheckTuple
// report an error.
func (r *Relation) checkLookupVals(what string, idx []int, vals Tuple) error {
	if len(vals) != len(idx) {
		return fmt.Errorf("reldb: %s: %s wants %d values, got %d",
			r.Name(), what, len(idx), len(vals))
	}
	for i, j := range idx {
		a := r.schema.attrs[j]
		v := vals[i]
		if v.IsNull() {
			if r.schema.isKey[j] || !a.Nullable {
				return fmt.Errorf("reldb: %s: %s: attribute %s cannot be null",
					r.Name(), what, a.Name)
			}
			continue
		}
		if !kindAssignable(a.Type, v.Kind()) {
			return fmt.Errorf("reldb: %s: %s: attribute %s has kind %s, want %s",
				r.Name(), what, a.Name, v.Kind(), a.Type)
		}
		if !keyEncodable(v) {
			return fmt.Errorf("reldb: %s: %s: attribute %s: %s: %w", r.Name(), what, a.Name, v, ErrKeyDomain)
		}
	}
	return nil
}

// MatchStats accumulates the cost of MatchEqual-family lookups, so
// callers (the view-object assembly in particular) can attribute how
// many stored tuples a lookup had to visit.
type MatchStats struct {
	// Scanned counts tuples visited: probed bucket entries for indexed
	// lookups, the whole relation for scan fallbacks.
	Scanned int
	// Probes counts point lookups and index-bucket probes.
	Probes int
	// Scans counts full-relation scan fallbacks.
	Scans int
}

func (st *MatchStats) addProbe(visited int) {
	if st != nil {
		st.Probes++
		st.Scanned += visited
	}
}

func (st *MatchStats) addScan(visited int) {
	if st != nil {
		st.Scans++
		st.Scanned += visited
	}
}

// obsProbe records one point lookup or index-bucket probe: into the
// caller's MatchStats (may be nil) and into the per-relation labeled
// counters, charging the relation that served the lookup. Slot-indexed
// atomic adds — allocation-free.
func (r *Relation) obsProbe(st *MatchStats, visited int) {
	st.addProbe(visited)
	obs.Default.RelProbes.At(r.obsSlot).Inc()
	obs.Default.RelScanned.At(r.obsSlot).Add(int64(visited))
}

// obsScan records one full-relation scan fallback, likewise attributed
// to the relation — a missing index shows up against the relation that
// pays for it.
func (r *Relation) obsScan(st *MatchStats, visited int) {
	st.addScan(visited)
	obs.Default.RelScans.At(r.obsSlot).Inc()
	obs.Default.RelScanned.At(r.obsSlot).Add(int64(visited))
}

// lookupIndices resolves attrNames and rejects duplicates: the lookup
// paths compare attribute sets, and a duplicated name (e.g. ["id","id"]
// against a two-column key) would falsely pass sameIntSet and build a
// key with a hole.
func (r *Relation) lookupIndices(what string, attrNames []string) ([]int, error) {
	idx, err := r.schema.Indices(attrNames)
	if err != nil {
		return nil, err
	}
	for i, j := range idx {
		if slices.Contains(idx[:i], j) {
			return nil, fmt.Errorf("reldb: %s: %s: duplicate attribute %s",
				r.Name(), what, r.schema.Attr(j).Name)
		}
	}
	return idx, nil
}

// HasIndexOn reports whether a secondary index serves lookups over
// exactly the named attribute set, in any order. The primary key's own
// set is served by the row tree and reports false.
func (r *Relation) HasIndexOn(attrNames []string) bool {
	pl, err := r.planFor("HasIndexOn", attrNames)
	return err == nil && pl.kind == planIndex
}

// MatchEqual returns the tuples whose attributes attrNames equal vals,
// using a secondary index over those attributes (in any order) if one
// exists and falling back to a scan otherwise. Results are in
// primary-key order.
func (r *Relation) MatchEqual(attrNames []string, vals Tuple) ([]Tuple, error) {
	return r.MatchEqualStats(attrNames, vals, nil)
}

// MatchEqualStats is MatchEqual that additionally accumulates lookup
// cost into st (which may be nil). The access path — point lookup,
// secondary index or scan — is resolved by planFor on every call.
func (r *Relation) MatchEqualStats(attrNames []string, vals Tuple, st *MatchStats) ([]Tuple, error) {
	pl, err := r.planFor("MatchEqual", attrNames)
	if err != nil {
		return nil, err
	}
	if err := r.checkLookupVals("MatchEqual", pl.idx, vals); err != nil {
		return nil, err
	}
	if pl.kind != planScan {
		var buf [64]byte
		return r.appendProbe(nil, pl, string(pl.appendPrefix(buf[:0], vals)), st), nil
	}
	var out []Tuple
	r.Scan(func(t Tuple) bool {
		for i, j := range pl.idx {
			if !t[j].Equal(vals[i]) {
				return true
			}
		}
		out = append(out, t.Clone())
		return true
	})
	r.obsScan(st, r.Count())
	return out, nil
}

// appendProbe serves one planned lookup that has an ordered access path,
// appending its answer to dst: tuples equal on the plan's attributes
// share a key prefix in its tree — the row tree when they are the
// primary key, else the plan's index's — so the answer is one seek and
// a walk of that prefix, already in primary-key order. prefix is the
// lookup values encoded in the tree's attribute order (appendPrefix).
func (r *Relation) appendProbe(dst []Tuple, pl lookupPlan, prefix string, st *MatchStats) []Tuple {
	t := &r.rows
	if pl.kind == planIndex {
		t = &pl.ix.tree
	}
	n := len(dst)
	dst = t.appendPrefixed(dst, prefix)
	r.obsProbe(st, len(dst)-n)
	return dst
}

// MatchEqualBatch answers many MatchEqual probes over the same attribute
// list in one pass. The result maps the encoded form of each value set
// (EncodeValues in the given attribute order) to the matching tuples in
// primary-key order; value sets with no matches are absent. Duplicate
// value sets collapse into one probe. With an index (or a primary-key
// match) the batch costs one probe per distinct value set; without one
// it costs a single shared scan that buckets every value set at once —
// never one scan per value set.
func (r *Relation) MatchEqualBatch(attrNames []string, valSets []Tuple) (map[string][]Tuple, error) {
	return r.MatchEqualBatchStats(attrNames, valSets, nil)
}

// MatchEqualBatchStats is MatchEqualBatch that additionally accumulates
// lookup cost into st (which may be nil).
//
// Each value set is encoded once, into a reused buffer, and that one
// string is its dedupe key, its result key and — whenever the serving
// tree's attribute order is attrNames' own, as for every index the
// structural graph builds — its seek prefix; otherwise the prefix is
// built in a second reused buffer. The probes append the whole batch's
// matches into one slice, and each bucket is a full-capacity subslice of
// it, so a caller appending to one bucket reallocates it instead of
// writing into its neighbour. Every returned tuple is still a copy.
func (r *Relation) MatchEqualBatchStats(attrNames []string, valSets []Tuple, st *MatchStats) (map[string][]Tuple, error) {
	pl, err := r.planFor("MatchEqualBatch", attrNames)
	if err != nil {
		return nil, err
	}
	for _, vs := range valSets {
		if err := r.checkLookupVals("MatchEqualBatch", pl.idx, vs); err != nil {
			return nil, err
		}
	}
	// out doubles as the set of value sets seen: each distinct one enters
	// with a nil bucket, which its matches fill or the end removes.
	out := make(map[string][]Tuple, len(valSets))
	if len(valSets) == 0 {
		return out, nil
	}
	type span struct {
		key    string
		lo, hi int
	}
	spans := make([]span, 0, len(valSets))
	inOrder := slices.Equal(pl.order, pl.idx)
	var encBuf, preBuf [64]byte
	enc, pre := encBuf[:0], preBuf[:0]
	var all []Tuple
	for _, vs := range valSets {
		enc = enc[:0]
		for _, v := range vs {
			enc = AppendKey(enc, v)
		}
		if _, dup := out[string(enc)]; dup {
			continue
		}
		k := string(enc)
		out[k] = nil
		if pl.kind == planScan {
			continue
		}
		prefix := k
		if !inOrder {
			pre = pl.appendPrefix(pre[:0], vs)
			prefix = string(pre)
		}
		lo := len(all)
		all = r.appendProbe(all, pl, prefix, st)
		spans = append(spans, span{key: k, lo: lo, hi: len(all)})
	}
	if pl.kind == planScan {
		// No index: one shared scan buckets every value set at once. The
		// scan is in primary-key order, so each bucket comes out
		// key-ordered, and a row's projection encoded the way the value
		// sets were makes its bucket a map hit.
		r.Scan(func(t Tuple) bool {
			enc = enc[:0]
			for _, j := range pl.idx {
				enc = AppendKey(enc, t[j])
			}
			if b, ok := out[string(enc)]; ok {
				out[string(enc)] = append(b, t.Clone())
			}
			return true
		})
		r.obsScan(st, r.Count())
		for k, b := range out {
			if b == nil {
				delete(out, k)
			}
		}
		return out, nil
	}
	for _, s := range spans {
		if s.hi > s.lo {
			out[s.key] = all[s.lo:s.hi:s.hi]
		} else {
			delete(out, s.key)
		}
	}
	return out, nil
}

// sameIntSet reports whether a and b hold the same elements (both are
// duplicate-free attribute index lists).
func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// keyFor builds the index-tree key of the stored tuple t, whose encoded
// primary key is ek.
func (ix *secondaryIndex) keyFor(t Tuple, ek string) string {
	dst := make([]byte, 0, 16*len(ix.attrs)+len(ek))
	for _, j := range ix.attrs {
		dst = AppendKey(dst, t[j])
	}
	return string(append(dst, ek...))
}

// check rejects a tuple whose indexed values the key codec cannot encode
// exactly.
func (ix *secondaryIndex) check(r *Relation, t Tuple) error {
	for _, j := range ix.attrs {
		if !keyEncodable(t[j]) {
			return fmt.Errorf("reldb: %s: index %s: attribute %s: %s: %w",
				r.Name(), ix.name, r.schema.attrs[j].Name, t[j], ErrKeyDomain)
		}
	}
	return nil
}

// clone returns an independent version of the relation in O(#indexes):
// the trees are shared by root, and so are the stored tuples. Both sides
// are frozen — neither may touch a shared node in place again — and each
// takes a new edit token if and when it next mutates.
func (r *Relation) clone() *Relation {
	r.freeze()
	c := &Relation{
		schema:  r.schema,
		rows:    r.rows,
		indexes: make(map[string]*secondaryIndex, len(r.indexes)),
		gen:     r.gen,
		origin:  r.origin,
		obsSlot: r.obsSlot,
	}
	for name, ix := range r.indexes {
		cp := *ix
		c.indexes[name] = &cp
	}
	return c
}
