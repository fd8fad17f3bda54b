package reldb

import (
	"fmt"
	"slices"
)

// planKind classifies how an equality lookup over an attribute
// set is served on a given relation version.
type planKind uint8

const (
	// planScan: no covering index — fall back to a full-relation scan.
	planScan planKind = iota
	// planPoint: the attribute set is exactly the primary key — serve
	// with a prefix probe of the row tree (at most one tuple).
	planPoint
	// planIndex: a secondary index covers the attribute set — serve with
	// a prefix probe of its tree.
	planIndex
)

// lookupPlan is the access path of one lookup over an attribute list on
// one relation version.
type lookupPlan struct {
	// idx are the attribute indices, in the caller's attrNames order
	// (duplicate-free — planAt rejected duplicates).
	idx  []int
	kind planKind
	// ix is the serving secondary index (planIndex only).
	ix *secondaryIndex
	// order is the serving tree's attribute order: the primary key
	// (planPoint) or ix.attrs (planIndex); idx itself for planScan. A
	// batch encodes its value sets in this order.
	order []int
}

// planFor resolves the access path for attrNames on this version: a
// point probe when the attribute set is exactly the primary key, else a
// probe of the secondary index over exactly that set (in any order; the
// lexicographically first name wins when several do), else a scan.
// MatchEqual and HasIndexOn call it, and so does Select, the one
// predicate planner, for an equality conjunction (a range over one
// attribute walks rangeTree's tree instead); MatchEqualBatchAt, given
// indices, calls planAt. It runs on
// every call: nothing is memoized, so a committed version has no mutable
// state and an answer depends on that version alone.
func (r *Relation) planFor(what string, attrNames []string) (lookupPlan, error) {
	idx, err := r.schema.Indices(attrNames)
	if err != nil {
		return lookupPlan{}, err
	}
	return r.planAt(what, idx)
}

// planAt is planFor over attribute indices; it allocates nothing. It
// rejects duplicates: the lookup paths compare attribute sets, and a
// duplicated attribute (e.g. ["id","id"] against a two-column key) would
// falsely pass sameIntSet and build a key with a hole.
func (r *Relation) planAt(what string, idx []int) (lookupPlan, error) {
	for i, j := range idx {
		if j < 0 || j >= r.schema.Arity() {
			return lookupPlan{}, fmt.Errorf("reldb: %s: %s: no attribute %d", r.Name(), what, j)
		}
		if slices.Contains(idx[:i], j) {
			return lookupPlan{}, fmt.Errorf("reldb: %s: %s: duplicate attribute %s",
				r.Name(), what, r.schema.Attr(j).Name)
		}
	}
	pl := lookupPlan{idx: idx, kind: planScan, order: idx}
	if sameIntSet(idx, r.schema.key) {
		pl.kind, pl.order = planPoint, r.schema.key
		return pl, nil
	}
	for _, ix := range r.indexes {
		if sameIntSet(ix.attrs, idx) && (pl.ix == nil || ix.name < pl.ix.name) {
			pl.ix = ix
		}
	}
	if pl.ix != nil {
		pl.kind, pl.order = planIndex, pl.ix.attrs
	}
	return pl, nil
}

// appendPrefix appends to dst the seek prefix of a lookup whose values
// vals are in idx order: the values encoded in the serving tree's
// attribute order, so an index built over the same attributes in a
// different order still serves the lookup.
func (pl lookupPlan) appendPrefix(dst []byte, vals Tuple) []byte {
	for _, a := range pl.order {
		dst = AppendKey(dst, vals[slices.Index(pl.idx, a)])
	}
	return dst
}
