package vupdate

import (
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// PairKids runs VO-R's child pairing for the child node under an old
// and a new parent component, as the diff does: zipped lists pair by
// index, any others through pairKids.
func PairKids(tr *Translator, child *viewobject.Node, oldParent, newParent *viewobject.InstNode) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	p := tr.Topology().planOf(child)
	oldKids, newKids := oldParent.ChildList(child.ID), newParent.ChildList(child.ID)
	var d differ
	if !d.zipped(p, oldKids, newKids) {
		return d.pairKids(p, oldKids, newKids)
	}
	for i := 0; i < newKids.Len(); i++ {
		pairs = append(pairs, [2]*viewobject.InstNode{oldKids.At(i), newKids.At(i)})
	}
	return pairs, nil, nil
}

// NodeDelta is one entry of Diff's result: the node, the applier's
// operation ("pair", "insert" or "delete"), and the tuples before and
// after (nil where the operation has none).
type NodeDelta struct {
	Node     string
	Op       string
	Old, New reldb.Tuple
}

// Diff runs VO-R's steps 1 and 2 up to the writes: the new instance is
// cloned and propagated, then diffed against the old one.
func Diff(tr *Translator, oldInst, newInst *viewobject.Instance) ([]NodeDelta, error) {
	topo := tr.Topology()
	newInst = newInst.Clone()
	if err := propagateIslandKeys(topo.Def, topo.root, newInst.Root()); err != nil {
		return nil, err
	}
	var out []NodeDelta
	for _, d := range diff(topo, oldInst, newInst) {
		op := [...]string{deltaPair: "pair", deltaInsert: "insert", deltaDelete: "delete"}[d.op]
		out = append(out, NodeDelta{d.p.node.ID, op, d.ot.Tuple(), d.nt.Tuple()})
	}
	return out, nil
}
