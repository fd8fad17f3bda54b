package reldb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"penguin/internal/obs"
)

// Relation is an in-memory keyed table. Rows live in a path-copying
// ordered tree (ptree.go) keyed by the order-preserving encoding of the
// primary key, so a scan is an in-order walk and an equality lookup over
// a leading prefix of the key is a prefix probe of it. Optional
// secondary indexes — trees of the same kind, keyed by the indexed
// values followed by the primary key — accelerate equality and range
// lookups on other attribute sets (the connection attributes of the
// structural model that no key prefix covers).
//
// Relation is not internally synchronized. Under the database's copy-on-
// write discipline, committed versions are immutable: write transactions
// mutate a private clone and publish it at commit, so any *Relation
// obtained from the catalog (directly or through a ReadTx snapshot) is
// safe to read concurrently. A stored row is one immutable string
// (Insert and Replace encode the caller's tuple into it), which lets
// versions, and the row tree and the index trees of one version, share
// it — and lets every read hand the stored row itself out.
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
	// tree maps EncodeValues(attrs of a row…)+its key to the stored row.
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

// storable checks t — CheckTuple plus the key-codec domain check on
// indexed attributes (CheckTuple covers the key attributes) — and
// encodes it into the row string it would be stored as.
func (r *Relation) storable(t Tuple) (Row, error) {
	if err := r.schema.CheckTuple(t); err != nil {
		return Row{}, err
	}
	return r.indexable(newRow(r.schema.key, t))
}

// storableRow is storable for a row's values: a row read from the WAL or
// a snapshot, or a delta's image, whose value bytes are stored as they
// are.
func (r *Relation) storableRow(vals Row) (Row, error) {
	if err := r.schema.CheckRow(vals); err != nil {
		return Row{}, err
	}
	return r.indexable(vals.keyed(r.schema.key))
}

// indexable returns row if every index can file it.
func (r *Relation) indexable(row Row) (Row, error) {
	for _, ix := range r.indexes {
		if err := ix.check(r, row); err != nil {
			return Row{}, err
		}
	}
	return row, nil
}

// Insert adds a tuple. It fails with ErrDuplicateKey if a tuple with the
// same primary key exists, and with a validation error if the tuple does
// not satisfy the schema.
func (r *Relation) Insert(t Tuple) error {
	row, err := r.storable(t)
	if err != nil {
		return err
	}
	return r.insert(row)
}

// insertRow is Insert of a row's values (storableRow).
func (r *Relation) insertRow(vals Row) error {
	row, err := r.storableRow(vals)
	if err != nil {
		return err
	}
	return r.insert(row)
}

// insert stores a storable row.
func (r *Relation) insert(row Row) error {
	ek := row.key()
	if _, exists := r.rows.get(ek); exists {
		return fmt.Errorf("reldb: %s: insert %s: %w", r.Name(), row.Key(r.schema), ErrDuplicateKey)
	}
	// One stored string, filed under its key prefix in the row tree and
	// under its indexed values in every index tree.
	o := r.owner()
	r.rows.put(o, ek, row)
	for _, ix := range r.indexes {
		ix.tree.put(o, ix.keyFor(row, ek), row)
	}
	return nil
}

// Get fetches the tuple with the given key values (canonical key order).
func (r *Relation) Get(key Tuple) (Row, bool) {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return Row{}, false
	}
	return r.GetEncoded(ek)
}

// GetEncoded fetches the tuple with the given encoded primary key.
func (r *Relation) GetEncoded(ek string) (Row, bool) { return r.rows.get(ek) }

// Has reports whether a tuple with the given key values exists.
func (r *Relation) Has(key Tuple) bool {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return false
	}
	_, ok := r.rows.get(ek)
	return ok
}

// Delete removes the tuple with the given key values and returns it: the
// stored one, which lives on in every version that shares it. It fails
// with ErrNoSuchTuple if absent.
func (r *Relation) Delete(key Tuple) (Row, error) {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return Row{}, err
	}
	row, ok := r.rows.get(ek)
	if !ok {
		return Row{}, fmt.Errorf("reldb: %s: delete %s: %w", r.Name(), key, ErrNoSuchTuple)
	}
	o := r.owner()
	r.rows.delete(o, ek)
	for _, ix := range r.indexes {
		ix.tree.delete(o, ix.keyFor(row, ek))
	}
	return row, nil
}

// Replace substitutes the tuple identified by oldKey with newTuple, which
// may carry a different primary key (a key replacement). It fails with
// ErrNoSuchTuple if oldKey is absent and with ErrDuplicateKey if the new
// key collides with a different existing tuple.
func (r *Relation) Replace(oldKey Tuple, newTuple Tuple) error {
	nt, err := r.storable(newTuple)
	if err == nil {
		_, err = r.replace(oldKey, nt)
	}
	return err
}

// replace stores nt, a storable row, in place of the row under oldKey
// and returns the row it took out.
func (r *Relation) replace(oldKey Tuple, nt Row) (Row, error) {
	oldEK, err := r.schema.EncodeKey(oldKey)
	if err != nil {
		return Row{}, err
	}
	old, ok := r.rows.get(oldEK)
	if !ok {
		return Row{}, fmt.Errorf("reldb: %s: replace %s: %w", r.Name(), oldKey, ErrNoSuchTuple)
	}
	newEK := nt.key()
	if _, clash := r.rows.get(newEK); clash && newEK != oldEK {
		return Row{}, fmt.Errorf("reldb: %s: replace %s -> %s: %w",
			r.Name(), oldKey, nt.Key(r.schema), ErrDuplicateKey)
	}
	// An entry whose key is unchanged — in the row tree or in an index — is
	// overwritten rather than deleted and inserted: it still has to point
	// at the new row.
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

// Scan calls fn for every stored row in primary-key order, walking the
// tree as it stood when Scan was called. If fn returns false the scan
// stops early. fn must not write the relation; the row it is passed is
// read-only, and stays valid after the scan.
func (r *Relation) Scan(fn func(Row) bool) {
	r.rows.ascend("", func(_ string, row Row) bool { return fn(row) })
}

// All returns every stored row in primary-key order.
func (r *Relation) All() []Row {
	out := make([]Row, 0, r.rows.n)
	r.rows.ascend("", func(_ string, row Row) bool {
		out = append(out, row)
		return true
	})
	return out
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
	r.rows.ascend("", func(ek string, row Row) bool {
		if err = ix.check(r, row); err == nil {
			ix.tree.put(o, ix.keyFor(row, ek), row)
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

// MatchStats accumulates the cost of equality lookups and
// Select, so callers (the view-object assembly in particular) can
// attribute how many stored tuples a lookup had to visit.
type MatchStats struct {
	// Scanned counts tuples visited: probed bucket entries for indexed
	// lookups, a walked window for ranges, the whole relation for scans.
	Scanned int
	// Probes counts row-tree prefix probes (a point lookup among them),
	// index-bucket probes and range walks.
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

// obsProbe records one row-tree or index-bucket probe: into the
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

// TreeServes reports whether a tree serves equality lookups over
// exactly the named attribute set, in any order: the row tree when the
// set is a leading prefix of the primary key, else a secondary index
// over it. A set no tree serves is looked up by a scan.
func (r *Relation) TreeServes(attrNames []string) bool {
	pl, err := r.planFor("TreeServes", attrNames)
	return err == nil && pl.kind != planScan
}

// MatchEqual returns the rows whose attributes attrNames equal vals, in
// primary-key order: a batch of one through the lookup MatchEqualBatchAt
// makes, so the access path — a prefix probe of the row tree when the
// attributes lead the primary key, a secondary index over them (in any
// order) or a scan — is resolved by planFor on every call.
func (r *Relation) MatchEqual(attrNames []string, vals Tuple) ([]Row, error) {
	pl, err := r.planFor("MatchEqual", attrNames)
	if err != nil {
		return nil, err
	}
	var out [1][]Row
	if err := r.matchEqual(pl, []Tuple{vals}, out[:], nil); err != nil {
		return nil, err
	}
	return out[0], nil
}

// probe serves n planned lookups that have an ordered access path: rows
// equal on the plan's attributes share a key prefix in its tree — the row
// tree when they lead the primary key, else the plan's index's — so each
// answer is one seek and a walk of that prefix, already in primary-key
// order. prefix(g) is the g-th lookup's values encoded in the tree's
// attribute order (appendPrefix); the n prefixes are distinct and
// ascend. A counting pass through one finger sizes the array a second
// finger appends every match into, so the answer allocates once; ends,
// when given, gets where each lookup's run ends in it.
func (r *Relation) probe(pl lookupPlan, n int, prefix func(g int) string, ends []int, st *MatchStats) []Row {
	t := &r.rows
	if pl.kind == planIndex {
		t = &pl.ix.tree
	}
	var count, walk finger
	total := 0
	for g := 0; g < n; g++ {
		c := count.countPrefixed(t, prefix(g))
		r.obsProbe(st, c)
		if total += c; ends != nil {
			ends[g] = total
		}
	}
	if total == 0 {
		return nil
	}
	all := make([]Row, 0, total)
	for g := 0; g < n; g++ {
		all = walk.appendPrefixed(t, all, prefix(g))
	}
	return all
}

// MatchEqualBatchAt answers many equality lookups over one attribute
// list, given as attribute indices (Schema.Indices resolves names): a
// caller that probes one list many times resolves it once. The result is
// aligned with valSets: out[i] holds the rows whose attributes equal
// valSets[i], in primary-key order, or nil when none does. When a tree
// serves the list (TreeServes), value sets with one key encoding are
// looked up once and share one bucket, and the batch costs one probe per
// distinct encoding; otherwise it costs a single shared scan — never one
// scan per value set — in which identical value sets share one bucket.
// Sets that encode alike without being identical (Int(1<<53) and
// Float(1<<53)) may get separate buckets on a scan: a stored
// Int(1<<53+1) equals the float and not the int. A bad value set
// anywhere fails the whole batch before anything is read. st, which may
// be nil, accumulates the lookup cost.
func (r *Relation) MatchEqualBatchAt(attrs []int, valSets []Tuple, st *MatchStats) ([][]Row, error) {
	pl, err := r.planAt("MatchEqual", attrs)
	if err != nil {
		return nil, err
	}
	out := make([][]Row, len(valSets))
	if err := r.matchEqual(pl, valSets, out, st); err != nil {
		return nil, err
	}
	return out, nil
}

// matchEqual is the one equality lookup, under a resolved plan: out[i]
// gets the rows that equal valSets[i].
//
// Every value set is encoded once, in the serving tree's attribute
// order, into one string: each set's encoding is a substring of it, at
// once its seek prefix and what finds its equals. Sorting the batch's
// positions by encoding brings equal sets together (a batch assembly
// hands over is mostly in order already), and the distinct ones are
// probed in that order through one finger, every match appended into
// one array. Each bucket is a full-capacity subslice of it, so a caller
// appending to one bucket reallocates it instead of writing into its
// neighbour. A single lookup keeps its scratch and its key on the stack.
func (r *Relation) matchEqual(pl lookupPlan, valSets []Tuple, out [][]Row, st *MatchStats) error {
	for _, vs := range valSets {
		if err := r.checkLookupVals("MatchEqual", pl.idx, vs); err != nil {
			return err
		}
	}
	n := len(valSets)
	if n == 0 {
		return nil
	}
	// ends[i] is one past valSets[i]'s encoding in keys; perm lists the
	// positions in encoding order; starts[g] is where the g-th distinct
	// set begins in perm; a probed set's bucket ends at all[runs[g]].
	var one [4]int
	scratch := one[:]
	if n > 1 {
		scratch = make([]int, 4*n)
	}
	ends, perm := scratch[:n], scratch[n:2*n]
	starts, runs := scratch[2*n:2*n:3*n], scratch[3*n:]
	var encBuf [64]byte
	var keys string
	if n == 1 {
		keys = string(pl.appendPrefix(encBuf[:0], valSets[0]))
		ends[0], perm[0] = len(keys), 0
	} else {
		var kb strings.Builder
		kb.Grow(10 * len(pl.order) * n)
		for i, vs := range valSets {
			kb.Write(pl.appendPrefix(encBuf[:0], vs))
			ends[i], perm[i] = kb.Len(), i
		}
		keys = kb.String()
	}
	key := func(i int) string {
		if i == 0 {
			return keys[:ends[0]]
		}
		return keys[ends[i-1]:ends[i]]
	}
	slices.SortFunc(perm, func(a, b int) int {
		c := cmp.Compare(key(a), key(b))
		if c == 0 && pl.kind == planScan {
			// A scan tells apart sets that encode alike, so identical
			// sets must be neighbours to share a bucket.
			c = slices.CompareFunc(valSets[a], valSets[b], Value.compareIdentity)
		}
		return c
	})
	for p := range perm {
		if p == 0 || key(perm[p]) != key(perm[p-1]) ||
			pl.kind == planScan && !slices.EqualFunc(valSets[perm[p]], valSets[perm[p-1]], Value.Identical) {
			starts = append(starts, p)
		}
	}
	// spread hands bucket b to every position holding distinct set g.
	spread := func(g int, b []Row) {
		end := n
		if g+1 < len(starts) {
			end = starts[g+1]
		}
		for p := starts[g]; p < end; p++ {
			out[perm[p]] = b
		}
	}
	if pl.kind == planScan {
		// No index: one shared scan buckets every value set at once, in
		// primary-key order. A row joins a set's bucket when each of its
		// values is Value.Equal to the set's. The key codec encodes a value
		// set exactly, so a row whose values it also encodes exactly can
		// only equal the sets with its encoding, which a binary search
		// finds; a row holding any other value — an int past ±2^53, which
		// shares its encoding with a neighbour, or a NaN — is compared
		// with every set. Such a row can tell apart sets the codec encodes
		// alike (Int(1<<53+1) equals Float(1<<53) but not Int(1<<53)), so
		// the scan groups identical sets, and neighbouring groups encoded
		// alike share a bucket once the scan finds them equal.
		var oneBucket [1][]Row
		buckets := oneBucket[:]
		if len(starts) > 1 {
			buckets = make([][]Row, len(starts))
		}
		var rowBuf [64]byte // not encBuf: the closure would move it to the heap
		// sets returns the groups [lo, hi) row can equal.
		sets := func(row Row) (lo, hi int) {
			enc, ok := appendExactKey(rowBuf[:0], row, pl.idx)
			if !ok {
				return 0, len(starts)
			}
			lo = sort.Search(len(starts), func(g int) bool { return key(perm[starts[g]]) >= string(enc) })
			for hi = lo; hi < len(starts) && key(perm[starts[hi]]) == string(enc); hi++ {
			}
			return lo, hi
		}
		only := valSets[perm[0]]
		r.rows.ascend("", func(_ string, row Row) bool {
			if len(starts) == 1 {
				// One distinct set, as a single lookup has, needs no search.
				if equalAt(row, pl.idx, only) {
					buckets[0] = append(buckets[0], row)
				}
				return true
			}
			lo, hi := sets(row)
			for g := lo; g < hi; g++ {
				if equalAt(row, pl.idx, valSets[perm[starts[g]]]) {
					buckets[g] = append(buckets[g], row)
				}
			}
			return true
		})
		r.obsScan(st, r.Count())
		for g := range buckets {
			if g > 0 && key(perm[starts[g]]) == key(perm[starts[g-1]]) && slices.EqualFunc(buckets[g], buckets[g-1], Row.Same) {
				buckets[g] = buckets[g-1]
			}
			spread(g, slices.Clip(buckets[g]))
		}
		return nil
	}
	all := r.probe(pl, len(starts), func(g int) string { return key(perm[starts[g]]) }, runs, st)
	lo := 0
	for g, hi := range runs[:len(starts)] {
		if hi > lo {
			spread(g, all[lo:hi:hi])
		}
		lo = hi
	}
	return nil
}

// appendExactKey appends to dst the encoding of row's values at idx,
// and reports whether the key codec encodes each of them exactly.
func appendExactKey(dst []byte, row Row, idx []int) ([]byte, bool) {
	for _, j := range idx {
		v := row.At(j)
		if !keyEncodable(v) {
			return dst, false
		}
		dst = AppendKey(dst, v)
	}
	return dst, true
}

// equalAt reports whether row's values at idx are Value.Equal to vals.
func equalAt(row Row, idx []int, vals Tuple) bool {
	for i, j := range idx {
		if !row.At(j).Equal(vals[i]) {
			return false
		}
	}
	return true
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

// keyFor builds the index-tree key of the stored row, whose key is ek.
func (ix *secondaryIndex) keyFor(row Row, ek string) string {
	var buf [128]byte
	dst := buf[:0]
	for _, j := range ix.attrs {
		dst = AppendKey(dst, row.At(j))
	}
	return string(append(dst, ek...))
}

// check rejects a row whose indexed values the key codec cannot encode
// exactly.
func (ix *secondaryIndex) check(r *Relation, row Row) error {
	for _, j := range ix.attrs {
		if v := row.At(j); !keyEncodable(v) {
			return fmt.Errorf("reldb: %s: index %s: attribute %s: %s: %w",
				r.Name(), ix.name, r.schema.attrs[j].Name, v, ErrKeyDomain)
		}
	}
	return nil
}

// clone returns an independent version of the relation in O(#indexes):
// the trees are shared by root, and so are the stored rows. Both sides
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
