package vupdate

import (
	"fmt"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// DeleteByKey translates and executes a complete deletion (algorithm
// VO-CD, §5.1) of the instance whose object key is key. The instance is
// assembled inside the transaction, so the deletion always sees current
// data.
func (u *Updater) DeleteByKey(key reldb.Tuple) (*Result, error) {
	return u.run(func(s *session) error {
		var inst *viewobject.Instance
		if err := s.step(obs.StepLocalValidate, func() error {
			var err error
			inst, err = s.instanceAt(key)
			return err
		}); err != nil {
			return err
		}
		return s.deleteInstance(inst)
	})
}

// instanceAt assembles the instance whose object key is key inside the
// session's transaction; a missing one is an error wrapping
// reldb.ErrNoSuchTuple.
func (s *session) instanceAt(key reldb.Tuple) (*viewobject.Instance, error) {
	inst, ok, err := viewobject.InstantiateByKeyOp(s.tx, s.def, key, s.op)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("vupdate: %s: no instance with key %s: %w",
			s.def.Name, key, reldb.ErrNoSuchTuple)
	}
	return inst, nil
}

// deleteInstance implements VO-CD:
//
//   - isolate the dependency island;
//   - delete the matching tuples of every island projection (the cascade
//     below reaches every island component from the pivot, plus owned and
//     subset tuples outside the object — the global maintenance of §5.1);
//   - for each referencing peninsula, update the foreign keys of matching
//     tuples per the translator (replacement, set-null, deletion, or
//     rollback when not allowed);
//   - foreign-key maintenance applies likewise to out-of-object relations
//     referencing any deleted tuple.
func (s *session) deleteInstance(inst *viewobject.Instance) error {
	if !s.tr.AllowDeletion {
		return reject("vupdate: %s: deletion of object instances is not allowed", s.def.Name)
	}
	pivotRel, err := s.relation(s.def.Pivot())
	if err != nil {
		return err
	}
	pivotKey := inst.Key()
	pivotTuple, ok := pivotRel.Get(pivotKey)
	if !ok {
		return fmt.Errorf("vupdate: %s: pivot tuple %s no longer exists: %w",
			s.def.Name, pivotKey, reldb.ErrNoSuchTuple)
	}
	// The cascade interleaves translation (island deletions) with global
	// maintenance (peninsula and out-of-object foreign keys); the two are
	// timed as one translate step.
	return s.step(obs.StepTranslate, func() error {
		deleted := make(map[string]bool)
		if err := s.deleteCascade(s.def.Pivot(), pivotTuple, deleted); err != nil {
			return err
		}
		// Island components reached through paths with excluded intermediate
		// relations are not covered by the connection cascade from the pivot
		// alone; delete them explicitly.
		topo := s.tr.Topology()
		for _, nodeID := range topo.Island() {
			for _, in := range inst.NodesAt(nodeID) {
				node := in.Node()
				rel, err := s.relation(node.Relation)
				if err != nil {
					return err
				}
				row := in.Row()
				if !rel.Has(row.Key(rel.Schema())) {
					continue // already deleted by the cascade
				}
				if err := s.deleteCascade(node.Relation, row, deleted); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// deleteCascade deletes one tuple and maintains global integrity:
// incoming references are updated per the peninsula policies (or the
// key-aware default for out-of-object relations), and owned and subset
// tuples are deleted recursively.
func (s *session) deleteCascade(relName string, tuple reldb.Row, deleted map[string]bool) error {
	rel, err := s.relation(relName)
	if err != nil {
		return err
	}
	schema := rel.Schema()
	key := tuple.Key(schema)
	ek := relName + "\x00" + tuple.EncodeKey(schema)
	if deleted[ek] {
		return nil
	}
	deleted[ek] = true
	if !rel.Has(key) {
		return nil // a diamond cascade already removed it
	}

	// Incoming references: peninsulas and other referencing relations.
	for _, c := range s.g.Incoming(relName) {
		if c.Type != structural.Reference {
			continue
		}
		refs, err := structural.ConnectedVia(s.tx, structural.Edge{Conn: c, Forward: false}, []reldb.Row{tuple}, nil)
		if err != nil {
			return err
		}
		if len(refs[0]) == 0 {
			continue
		}
		policy := s.referencingPolicy(c.From)
		switch policy.OnDelete {
		case PeninsulaRestrict:
			return reject("vupdate: %s: deletion touches %s through %s, which the translator does not allow",
				s.def.Name, c.From, c)
		case PeninsulaDeleteTuple:
			for _, rt := range refs[0] {
				if err := s.deleteCascade(c.From, rt, deleted); err != nil {
					return err
				}
			}
		case PeninsulaSetNull, PeninsulaReplaceDefault:
			if err := s.rewriteReferencing(c, refs[0], policy); err != nil {
				return err
			}
		}
	}

	// Outgoing ownership and subset connections: cascade.
	for _, c := range s.g.Outgoing(relName) {
		if c.Type != structural.Ownership && c.Type != structural.Subset {
			continue
		}
		deps, err := structural.ConnectedVia(s.tx, structural.Edge{Conn: c, Forward: true}, []reldb.Row{tuple}, nil)
		if err != nil {
			return err
		}
		for _, dt := range deps[0] {
			if err := s.deleteCascade(c.To, dt, deleted); err != nil {
				return err
			}
		}
	}

	return s.delete(relName, key)
}

// referencingPolicy resolves the deletion-time policy for a relation that
// references a deleted tuple: the translator's peninsula policy when the
// relation is an object node classified as a peninsula, and the
// key-aware default for everything else (global integrity maintenance).
func (s *session) referencingPolicy(relName string) PeninsulaPolicy {
	if p := s.tr.topo.firstPeninsula[relName]; p != nil {
		pol := s.tr.peninsulaPolicy(p.node.ID)
		if !pol.AllowUpdateOnDelete {
			return PeninsulaPolicy{OnDelete: PeninsulaRestrict}
		}
		return pol
	}
	rel, err := s.relation(relName)
	if err != nil {
		return PeninsulaPolicy{OnDelete: PeninsulaRestrict}
	}
	return PeninsulaPolicy{AllowUpdateOnDelete: true, OnDelete: keyAwareAction(s.g, rel.Schema())}
}

// rewriteReferencing rewrites the referencing attributes of refs (tuples
// of c.From) to null or to the policy's default values.
func (s *session) rewriteReferencing(c *structural.Connection, refs []reldb.Row, policy PeninsulaPolicy) error {
	fromRel, err := s.relation(c.From)
	if err != nil {
		return err
	}
	schema := fromRel.Schema()
	idx, err := schema.Indices(c.FromAttrs)
	if err != nil {
		return err
	}
	if policy.OnDelete == PeninsulaReplaceDefault && len(policy.Default) != len(idx) {
		return fmt.Errorf("vupdate: peninsula default for %s has %d values, want %d",
			c.From, len(policy.Default), len(idx))
	}
	for _, rt := range refs {
		nt := rt.Tuple()
		for i, j := range idx {
			if policy.OnDelete == PeninsulaSetNull {
				nt[j] = reldb.Null()
			} else {
				nt[j] = policy.Default[i]
			}
		}
		if err := s.replace(c.From, rt.Key(schema), nt); err != nil {
			return fmt.Errorf("vupdate: updating %s for deletion: %w", c.From, err)
		}
	}
	return nil
}
