package viewobject

import (
	"fmt"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// The naive parent-at-a-time assembler: the reference the differential
// tests hold the batched level-at-a-time path against, byte for byte. It shares pivotSelect and the metric families
// with production, so instance sets and scan accounting compare
// directly; everything below the pivots is its own code.

// InstantiateNaive assembles every instance of def one parent at a
// time. Queries are not filtered: the oracle is only ever asked for the
// whole extent.
func InstantiateNaive(res structural.Resolver, def *Definition) ([]*Instance, error) {
	pivotRel, err := res.Relation(def.Pivot())
	if err != nil {
		return nil, err
	}
	pivots, scanned, err := pivotSelect(pivotRel, nil)
	if err != nil {
		return nil, err
	}
	obs.Default.InstTuplesByObject.At(def.obsSlot).Add(scanned)
	var out []*Instance
	for _, pt := range pivots {
		inst, err := assembleNaive(res, def, pt)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// InstantiateByKeyNaive assembles the instance at key one parent at a
// time (ok=false when the pivot tuple does not exist).
func InstantiateByKeyNaive(res structural.Resolver, def *Definition, key reldb.Tuple) (*Instance, bool, error) {
	pivotRel, err := res.Relation(def.Pivot())
	if err != nil {
		return nil, false, err
	}
	pt, ok := pivotRel.Get(key)
	if !ok {
		return nil, false, nil
	}
	inst, err := assembleNaive(res, def, pt)
	return inst, err == nil, err
}

func assembleNaive(res structural.Resolver, def *Definition, pivotTuple reldb.Tuple) (*Instance, error) {
	inst, err := NewInstance(def, pivotTuple)
	if err != nil {
		return nil, err
	}
	obs.Default.InstNodesByObject.At(def.obsSlot).Inc() // the root component
	if err := fillChildren(res, def, inst.root); err != nil {
		return nil, err
	}
	return inst, nil
}

func fillChildren(res structural.Resolver, def *Definition, in *InstNode) error {
	for _, child := range in.node.Children {
		var st reldb.MatchStats
		targets, err := traversePath(res, in.tuple, child.Path, &st)
		if err != nil {
			return fmt.Errorf("viewobject: %s: node %s: %w", def.Name, child.ID, err)
		}
		obs.Default.InstTuplesByObject.At(def.obsSlot).Add(int64(st.Scanned))
		for _, tt := range targets {
			cn, err := in.AddChild(def, child.ID, tt)
			if err != nil {
				return err
			}
			obs.Default.InstNodesByObject.At(def.obsSlot).Inc()
			if err := fillChildren(res, def, cn); err != nil {
				return err
			}
		}
	}
	return nil
}

// SharesTuple reports whether two components hold the very same tuple
// slice — what adopting one batched probe's result for two parents, and
// Clone, both produce. The sharing tests use it to prove they test the
// shared case.
func SharesTuple(a, b *InstNode) bool {
	return len(a.tuple) > 0 && len(b.tuple) > 0 && &a.tuple[0] == &b.tuple[0]
}
