package vupdate

import (
	"bytes"
	"slices"
	"strings"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// deltaOp is what the applier does with one node delta.
type deltaOp uint8

const (
	deltaPair   deltaOp = iota // the R-cases of a paired component
	deltaInsert                // VO-CI's cases: I-2 to I-4, an unpaired new component
	deltaDelete                // deleteCascade of an unpaired old island component
)

// nodeDelta is one entry of a view update's delta: a component of p's
// node, its tuple before (pair, delete) and after (pair, insert).
type nodeDelta struct {
	p      *nodePlan
	op     deltaOp
	ot, nt reldb.Row
}

// machine states of algorithm VO-R.
type voState uint8

const (
	stateR voState = iota // replacing: aligned with existing data
	stateI                // inserting: the subtree is new data
)

// diff is VO-R's translation step without its writes (§5.3): the
// two-state R/I machine walks the paired component trees of two
// instances (the new one already propagated by step 1) depth-first and
// returns what the applier must write, in the order it must write it —
// under each pair, per child node, the pairs' subtrees, then the
// unpaired new subtrees, then the unpaired old island components. It
// leaves out what writes nothing: CASE R-1 pairs (projections equal),
// I-1's switch back to state R, and unpaired old components outside the
// island, which the object does not own. It reads the components in
// place, and a delta holds the components' rows, not copies.
func diff(topo *Topology, oldInst, newInst *viewobject.Instance) []nodeDelta {
	var d differ
	d.pair(topo.root, oldInst.Root(), newInst.Root(), stateR)
	return d.out
}

// differ carries one diff: the deltas so far, and pairKids' encoding
// buffers, reused across the walk (each call is done with them before
// the walk descends).
type differ struct {
	out        []nodeDelta
	keyA, keyB []byte
}

// pair emits the deltas of one paired component (old, new) of p's node
// and of its children.
func (d *differ) pair(p *nodePlan, oldIn, newIn *viewobject.InstNode, state voState) {
	// CASE I-1: in state I with matching keys, go to state R staying
	// with this tuple.
	if state == stateI && sameValues(oldIn, newIn, p.key) {
		state = stateR
	}
	switch {
	case state == stateI && p.class != ClassPeninsula:
		// Cases I-2, I-3 and I-4 (the keys differ) are VO-CI's cases 2,
		// 1 and 3. Only a node outside the island gets here: an island
		// node's parent is the pivot or an island node, which walks in
		// state R, so the island node does too.
		d.out = append(d.out, nodeDelta{p: p, op: deltaInsert, nt: newIn.Row()})
	case !sameValues(oldIn, newIn, p.proj):
		// The R-cases, which peninsula components take in either state:
		// their foreign keys are system-maintained (step 3), their other
		// key attributes are frozen, and non-key changes replace.
		d.out = append(d.out, nodeDelta{p: p, op: deltaPair, ot: oldIn.Row(), nt: newIn.Row()})
	}
	for _, cp := range p.kids {
		// Moving to the next relation down: state I outside the island,
		// state R inside (from state R); state I stays I.
		childState := stateI
		if state == stateR && cp.island {
			childState = stateR
		}
		oldKids, newKids := oldIn.ChildList(cp.node.ID), newIn.ChildList(cp.node.ID)
		if d.zipped(cp, oldKids, newKids) {
			// No pair list is built for the common replace.
			for i := 0; i < newKids.Len(); i++ {
				d.pair(cp, oldKids.At(i), newKids.At(i), childState)
			}
			continue
		}
		pairs, unpairedOld, unpairedNew := d.pairKids(cp, oldKids, newKids)
		for _, pr := range pairs {
			d.pair(cp, pr[0], pr[1], childState)
		}
		for _, n := range unpairedNew {
			d.insertSubtree(cp, n)
		}
		if cp.island {
			for _, o := range unpairedOld {
				d.out = append(d.out, nodeDelta{p: cp, op: deltaDelete, ot: o.Row()})
			}
		}
	}
}

// insertSubtree emits an unpaired new component of p's node and its
// descendants as insertions: an unpaired new component is new data by
// definition.
func (d *differ) insertSubtree(p *nodePlan, in *viewobject.InstNode) {
	d.out = append(d.out, nodeDelta{p: p, op: deltaInsert, nt: in.Row()})
	for _, cp := range p.kids {
		kids := in.ChildList(cp.node.ID)
		for i := 0; i < kids.Len(); i++ {
			d.insertSubtree(cp, kids.At(i))
		}
	}
}

// sameValues reports whether two components hold equal values at every
// index of idx: the in-place form of projectedEqual.
func sameValues(a, b *viewobject.InstNode, idx []int) bool {
	for _, j := range idx {
		if !a.Value(j).Equal(b.Value(j)) {
			return false
		}
	}
	return true
}

// appendValues appends the key encoding of a component's values at idx.
func appendValues(dst []byte, in *viewobject.InstNode, idx []int) []byte {
	for _, j := range idx {
		dst = reldb.AppendKey(dst, in.Value(j))
	}
	return dst
}

// zipped reports whether the lists pair by index: they have equal
// length, every pairing key equals the one at its index, and the new
// components are already in pair order. It is the common replace,
// which rewrites values and keeps keys; the map-based pairing would
// return the same pairs.
func (d *differ) zipped(p *nodePlan, oldKids, newKids viewobject.ChildList) bool {
	return oldKids.Len() == newKids.Len() && d.positional(p, oldKids, newKids) &&
		d.inOrder(p, newKids.Len(), newKids.At)
}

// pairKids aligns the old and new components of p's node (a child of
// the pair being walked) when the lists are not zipped. Each
// component's pairing key is p.pairing's values: the key complement for
// an island child linked by one connection, so a parent key change
// still pairs the corresponding children; the full key otherwise.
// pairByKey pairs them, and the pairs are sorted, stably, by the new
// tuple's encoding.
func (d *differ) pairKids(p *nodePlan, oldKids, newKids viewobject.ChildList) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	pairs, unpairedOld, unpairedNew = pairByKey(p, oldKids, newKids)
	if !d.inOrder(p, len(pairs), func(i int) *viewobject.InstNode { return pairs[i][1] }) {
		sortPairs(p, pairs)
	}
	return pairs, unpairedOld, unpairedNew
}

// positional reports whether old and new component i hold the same
// pairing key for every i (the lists have equal length).
func (d *differ) positional(p *nodePlan, oldKids, newKids viewobject.ChildList) bool {
	for i := 0; i < oldKids.Len(); i++ {
		d.keyA = appendValues(d.keyA[:0], oldKids.At(i), p.pairing)
		d.keyB = appendValues(d.keyB[:0], newKids.At(i), p.pairing)
		if !bytes.Equal(d.keyA, d.keyB) {
			return false
		}
	}
	return true
}

// inOrder reports whether the n new components at(0), …, at(n-1) are
// already sorted by the encoding of their tuples, which is the common
// case; it costs one encoding per component, in two reused buffers.
func (d *differ) inOrder(p *nodePlan, n int, at func(int) *viewobject.InstNode) bool {
	if n < 2 {
		return true
	}
	prev, cur := appendValues(d.keyA[:0], at(0), p.all), d.keyB[:0]
	ok := true
	for i := 1; i < n && ok; i++ {
		cur = appendValues(cur[:0], at(i), p.all)
		ok = bytes.Compare(prev, cur) <= 0
		prev, cur = cur, prev
	}
	d.keyA, d.keyB = prev, cur
	return ok
}

// pairByKey is the general pairing: a new component pairs with the
// first unpaired old component holding its key; the leftovers pair
// positionally, the old ones grouped by the order in which each key
// first appears in the old list (these are the key-change pairs).
func pairByKey(p *nodePlan, oldKids, newKids viewobject.ChildList) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	var buf []byte
	keyOf := func(in *viewobject.InstNode) string {
		buf = appendValues(buf[:0], in, p.pairing)
		return string(buf)
	}
	oldByKey := make(map[string][]*viewobject.InstNode)
	var oldOrder []string
	for i := 0; i < oldKids.Len(); i++ {
		o := oldKids.At(i)
		k := keyOf(o)
		if _, seen := oldByKey[k]; !seen {
			oldOrder = append(oldOrder, k)
		}
		oldByKey[k] = append(oldByKey[k], o)
	}
	var leftoverNew []*viewobject.InstNode
	for j := 0; j < newKids.Len(); j++ {
		n := newKids.At(j)
		k := keyOf(n)
		if olds := oldByKey[k]; len(olds) > 0 {
			pairs = append(pairs, [2]*viewobject.InstNode{olds[0], n})
			oldByKey[k] = olds[1:]
		} else {
			leftoverNew = append(leftoverNew, n)
		}
	}
	var leftoverOld []*viewobject.InstNode
	for _, k := range oldOrder {
		leftoverOld = append(leftoverOld, oldByKey[k]...)
	}
	m := min(len(leftoverOld), len(leftoverNew))
	for i := 0; i < m; i++ {
		pairs = append(pairs, [2]*viewobject.InstNode{leftoverOld[i], leftoverNew[i]})
	}
	return pairs, leftoverOld[m:], leftoverNew[m:]
}

// sortPairs sorts pairs, stably, by the encoding of each new tuple
// (p's attributes in schema order).
func sortPairs(p *nodePlan, pairs [][2]*viewobject.InstNode) {
	type keyedPair struct {
		key  string
		pair [2]*viewobject.InstNode
	}
	var buf []byte
	keyed := make([]keyedPair, len(pairs))
	for i, pr := range pairs {
		buf = appendValues(buf[:0], pr[1], p.all)
		keyed[i] = keyedPair{string(buf), pr}
	}
	slices.SortStableFunc(keyed, func(a, b keyedPair) int { return strings.Compare(a.key, b.key) })
	for i := range keyed {
		pairs[i] = keyed[i].pair
	}
}
