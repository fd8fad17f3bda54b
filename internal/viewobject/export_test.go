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

func assembleNaive(res structural.Resolver, def *Definition, pivot reldb.Row) (*Instance, error) {
	inst, err := NewInstance(def, pivot.Tuple())
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
		targets, err := traversePath(res, in.row, child.Path, &st)
		if err != nil {
			return fmt.Errorf("viewobject: %s: node %s: %w", def.Name, child.ID, err)
		}
		obs.Default.InstTuplesByObject.At(def.obsSlot).Add(int64(st.Scanned))
		for _, tt := range targets {
			cn, err := in.AddChild(def, child.ID, tt.Tuple())
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

// traversePath follows a connection path from one source row, crossing
// each edge once per frontier row: the reference for the batched walk.
func traversePath(res structural.Resolver, start reldb.Row, path []structural.Edge, st *reldb.MatchStats) ([]reldb.Row, error) {
	frontier := []reldb.Row{start}
	for _, e := range path {
		tgtRel, err := res.Relation(e.Target())
		if err != nil {
			return nil, err
		}
		tgtSchema := tgtRel.Schema()
		seen := make(map[string]bool)
		var next []reldb.Row
		for _, ft := range frontier {
			matches, err := structural.ConnectedVia(res, e, []reldb.Row{ft}, st)
			if err != nil {
				return nil, err
			}
			for _, mt := range matches[0] {
				ek := mt.EncodeKey(tgtSchema)
				if seen[ek] {
					continue
				}
				seen[ek] = true
				next = append(next, mt)
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return nil, nil
		}
	}
	return frontier, nil
}
