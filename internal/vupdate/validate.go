package vupdate

import (
	"penguin/internal/viewobject"
)

// validateConnections is the structural part of local validation (step 1
// of §5): within the instance, every child component linked to its parent
// by a single connection must actually be connected — the values of the
// connecting attributes must match. A mismatch means the request is
// internally inconsistent (for example, a STUDENT component whose PID
// differs from its GRADES parent's PID) and is rejected before any
// translation happens. Children attached through multi-connection paths
// (excluded intermediate relations) cannot be checked without the
// intermediate tuples and are skipped. p is the plan of in's node.
func validateConnections(def *viewobject.Definition, p *nodePlan, in *viewobject.InstNode) error {
	for _, cp := range p.kids {
		child := cp.node
		kids := in.ChildList(child.ID)
		if kids.Len() == 0 {
			continue
		}
		if len(child.Path) == 1 {
			for j := 0; j < kids.Len(); j++ {
				ci := kids.At(j)
				for k := range cp.src {
					pv := in.Value(cp.src[k])
					cv := ci.Value(cp.tgt[k])
					if pv.IsNull() {
						e := child.Path[0]
						return rejectAs(ReasonIntegrity, "vupdate: %s: component %s cannot be connected: parent %s has null %s",
							def.Name, child.ID, p.node.ID, e.SourceAttrs()[k])
					}
					if !pv.Equal(cv) {
						e := child.Path[0]
						return rejectAs(ReasonIntegrity, "vupdate: %s: component %s (%s) is not connected to its parent %s (%s=%s, %s=%s)",
							def.Name, child.ID, ci.Row(), p.node.ID,
							e.SourceAttrs()[k], pv, e.TargetAttrs()[k], cv)
					}
				}
			}
		}
		for j := 0; j < kids.Len(); j++ {
			if err := validateConnections(def, cp, kids.At(j)); err != nil {
				return err
			}
		}
	}
	return nil
}
