package vupdate

import (
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// ensureDependencies implements the recursive global-consistency check of
// §5.2: after a tuple is inserted (or replaced with referencing attributes
// involved), the relations along inverse ownership, inverse subset, and
// forward reference connections must hold the tuples the structural model
// requires. Missing dependency tuples are inserted — minimally: key
// attributes take the connecting values, every other attribute is null —
// and the check recurses into each repair insertion.
//
// Repairs are gated: a relation that is a node of the view object needs
// its policy's insert permission (island nodes are implicitly permitted);
// any other relation needs the translator's RepairInserts flag.
func (s *session) ensureDependencies(relName string, tuple reldb.Row, seen map[string]bool) error {
	rel, err := s.relation(relName)
	if err != nil {
		return err
	}
	ek := relName + "\x00" + tuple.EncodeKey(rel.Schema())
	if seen[ek] {
		return nil
	}
	seen[ek] = true

	// Inverse ownership and inverse subset: an owning or generalizing
	// tuple must exist.
	for _, c := range s.g.Incoming(relName) {
		if c.Type != structural.Ownership && c.Type != structural.Subset {
			continue
		}
		e := structural.Edge{Conn: c, Forward: false}
		owners, err := structural.ConnectedVia(s.tx, e, []reldb.Row{tuple}, nil)
		if err != nil {
			return err
		}
		if owners[0] == nil {
			return fmt.Errorf("vupdate: %s tuple %s has null connecting values for %s",
				relName, tuple, c)
		}
		if len(owners[0]) > 0 {
			continue
		}
		if err := s.repairInsert(c.From, e, tuple, seen); err != nil {
			return err
		}
	}
	// Forward references: the referenced tuple must exist (or the
	// referencing attributes are null).
	for _, c := range s.g.Outgoing(relName) {
		if c.Type != structural.Reference {
			continue
		}
		e := structural.Edge{Conn: c, Forward: true}
		targets, err := structural.ConnectedVia(s.tx, e, []reldb.Row{tuple}, nil)
		if err != nil {
			return err
		}
		if targets[0] == nil || len(targets[0]) > 0 {
			continue // null reference, or satisfied
		}
		if err := s.repairInsert(c.To, e, tuple, seen); err != nil {
			return err
		}
	}
	return nil
}

// repair runs the recursive dependency repair over the given inserted
// or replaced tuples, in order.
func (s *session) repair(touched []relTuple) error {
	if len(touched) == 0 {
		return nil
	}
	seen := make(map[string]bool)
	for _, rt := range touched {
		if err := s.ensureDependencies(rt.rel, rt.tuple, seen); err != nil {
			return err
		}
	}
	return nil
}

// repairInsert inserts the minimal dependency tuple of relation target
// required by edge e from the source tuple, then recurses.
func (s *session) repairInsert(target string, e structural.Edge, source reldb.Row, seen map[string]bool) error {
	if err := s.checkRepairAllowed(target); err != nil {
		return err
	}
	tgtRel, err := s.relation(target)
	if err != nil {
		return err
	}
	nt := make(reldb.Tuple, tgtRel.Schema().Arity())
	if err := s.carry(e, source, nt); err != nil {
		return err
	}
	if err := tgtRel.Schema().CheckTuple(nt); err != nil {
		return fmt.Errorf("vupdate: cannot construct minimal %s dependency tuple: %w", target, err)
	}
	if err := s.insert(target, nt); err != nil {
		return err
	}
	return s.ensureDependencies(target, reldb.RowOf(nt), seen)
}

// carry writes into dst, a tuple of e's target, the values src, a row of
// e's source, holds at e's connecting attributes: dst becomes connected
// to src through e.
func (s *session) carry(e structural.Edge, src reldb.Row, dst reldb.Tuple) error {
	srcRel, err := s.relation(e.Source())
	if err != nil {
		return err
	}
	srcIdx, err := srcRel.Schema().Indices(e.SourceAttrs())
	if err != nil {
		return err
	}
	tgtRel, err := s.relation(e.Target())
	if err != nil {
		return err
	}
	tgtIdx, err := tgtRel.Schema().Indices(e.TargetAttrs())
	if err != nil {
		return err
	}
	for i, j := range tgtIdx {
		dst[j] = src.At(srcIdx[i])
	}
	return nil
}

// checkRepairAllowed verifies the translator permits inserting dependency
// tuples into relName: the insertion permission of the relation's first
// node in the object, or RepairInserts for a relation outside it.
func (s *session) checkRepairAllowed(relName string) error {
	if p := s.tr.topo.firstNode[relName]; p != nil {
		return s.mayInsert(p)
	}
	if !s.tr.RepairInserts {
		return reject("vupdate: %s: dependency repair would insert into %s, which the translator does not allow",
			s.def.Name, relName)
	}
	return nil
}
