package vupdate

import (
	"fmt"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// InsertInstance translates and executes a complete insertion (algorithm
// VO-CI, §5.2): adding a fully specified view-object instance to the
// database. Per projection tuple, the three cases of VO-CI apply:
//
//	case 1 — an identical tuple exists: reject inside the dependency
//	         island, do nothing outside;
//	case 2 — the key is free: insert;
//	case 3 — the key exists with differing non-key values: reject inside
//	         the island, replace outside (when the translator allows it).
//
// Tuples are compared on the node's projected attributes; inserted tuples
// are the instance's full-width tuples (hand-built instances carry null
// for attributes projected out — the paper's "extension" point). After
// translation, global consistency is restored by the recursive dependency
// repair of §5.2.
func (u *Updater) InsertInstance(inst *viewobject.Instance) (*Result, error) {
	if err := u.checkInstance(inst); err != nil {
		return nil, err
	}
	return u.run(func(s *session) error {
		return s.insertInstance(inst)
	})
}

func (s *session) insertInstance(inst *viewobject.Instance) error {
	if !s.tr.AllowInsertion {
		return reject("vupdate: %s: insertion of object instances is not allowed", s.def.Name)
	}
	topo := s.tr.Topology()
	if err := s.step(obs.StepLocalValidate, func() error {
		return validateConnections(s.def, topo.root, inst.Root())
	}); err != nil {
		return err
	}
	if err := s.step(obs.StepTranslate, func() error {
		// Walk the definition preorder so owners precede owned tuples.
		for _, p := range topo.plans {
			for _, in := range inst.NodesAt(p.node.ID) {
				if err := s.insertComponent(p, in.Row()); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Global validation (§5.2): dependency repair for every inserted or
	// replaced tuple, recursively.
	return s.step(obs.StepGlobalValidate, func() error {
		return s.repair(s.touched)
	})
}

type relTuple struct {
	rel   string
	tuple reldb.Row
}

// insertComponent applies the three VO-CI cases to one component tuple
// of p's node; on a node outside the dependency island they are also
// VO-R's cases I-3, I-2 and I-4 (§5.3).
func (s *session) insertComponent(p *nodePlan, tuple reldb.Row) error {
	node := p.node
	rel, err := s.relation(node.Relation)
	if err != nil {
		return err
	}
	if err := p.schema.CheckRow(tuple); err != nil {
		return fmt.Errorf("vupdate: %s: component %s: %w", s.def.Name, node.ID, err)
	}
	key := tuple.Key(p.schema)
	existing, exists := rel.Get(key)

	switch {
	case exists && projectedEqual(tuple, existing, p.proj):
		// CASE 1: an identical tuple exists.
		if p.island {
			return rejectAs(ReasonConflict, "vupdate: %s: identical %s tuple %s already exists in the dependency island",
				s.def.Name, node.ID, key)
		}
		return nil
	case !exists:
		// CASE 2: the key is free.
		if err := s.mayInsert(p); err != nil {
			return err
		}
		if err := s.insert(node.Relation, tuple.Tuple()); err != nil {
			return err
		}
		s.touch(node.Relation, tuple)
		return nil
	default:
		// CASE 3: the key exists with differing values.
		if p.island {
			return rejectAs(ReasonConflict, "vupdate: %s: %s tuple with key %s exists with conflicting values",
				s.def.Name, node.ID, key)
		}
		if err := s.mayModify(p); err != nil {
			return err
		}
		merged := mergeProjection(p, existing, tuple)
		if err := s.replace(node.Relation, key, merged); err != nil {
			return err
		}
		s.touch(node.Relation, reldb.RowOf(merged))
		return nil
	}
}

// mergeProjection returns a copy of the stored row with p's projected
// attributes taken from t: attributes outside the projection keep their
// stored values.
func mergeProjection(p *nodePlan, stored, t reldb.Row) reldb.Tuple {
	merged := stored.Tuple()
	for _, j := range p.proj {
		merged[j] = t.At(j)
	}
	return merged
}

// projectedEqual compares two full-width rows on the projected indices.
func projectedEqual(a, b reldb.Row, idx []int) bool {
	for _, j := range idx {
		if !a.At(j).Equal(b.At(j)) {
			return false
		}
	}
	return true
}
