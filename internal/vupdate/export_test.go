package vupdate

import "penguin/internal/viewobject"

// PairKids runs VO-R's child pairing (pairKids) for the child node
// under an old and a new parent component.
func PairKids(tr *Translator, child *viewobject.Node, oldParent, newParent *viewobject.InstNode) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	topo := tr.Topology()
	rc := &replaceCtx{topo: topo}
	return rc.pairKids(topo.planOf(child), oldParent.ChildList(child.ID), newParent.ChildList(child.ID))
}
