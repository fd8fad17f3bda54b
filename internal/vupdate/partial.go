package vupdate

import (
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// Partial update operations manipulate a single component of a view
// object (one node of the object's tree) rather than a complete instance.
// The paper defines them in the companion thesis [4]. Each is its own
// checks followed by a one-entry delta through apply, the dispatch VO-R
// writes its delta with, so every §5 case keeps one implementation:
//
//   - PartialInsert adds one component tuple under an existing instance
//     (an insertion: the VO-CI cases), runs the §5.2 dependency repair,
//     and verifies the new tuple is actually connected to the instance;
//   - PartialDelete removes one component tuple (a deletion: VO-CD's
//     cascade); only dependency-island components may be deleted
//     (removing a non-island component from an instance does not delete
//     shared base data — such requests are inherently ambiguous and
//     rejected);
//   - PartialUpdate replaces one component tuple (a pair: the R-cases,
//     so key replacements only inside the island, with VO-R's step 3
//     after them); a non-pivot island component's new key must keep it
//     connected to the instance, as PartialInsert checks.

// PartialInsert adds one component tuple at node nodeID of the instance
// identified by pivotKey.
func (u *Updater) PartialInsert(pivotKey reldb.Tuple, nodeID string, tuple reldb.Tuple) (*Result, error) {
	return u.run(func(s *session) error {
		node, err := s.partialNode(nodeID)
		if err != nil {
			return err
		}
		if !s.tr.AllowInsertion {
			return reject("vupdate: %s: insertion is not allowed", s.def.Name)
		}
		pivotTuple, err := s.pivotTuple(pivotKey)
		if err != nil {
			return err
		}
		p := s.tr.Topology().planOf(node)
		nt := reldb.RowOf(tuple)
		if err := s.apply([]nodeDelta{{p: p, op: deltaInsert, nt: nt}}); err != nil {
			return err
		}
		// The tuple the insertion stored (case 3 merges the request into
		// the existing tuple); case 1 wrote nothing, and the request is
		// still checked.
		t := nt
		if len(s.touched) > 0 {
			t = s.touched[0].tuple
		}
		if err := s.repair([]relTuple{{node.Relation, t}}); err != nil {
			return err
		}
		return s.requireConnected(pivotKey, pivotTuple, node, t)
	})
}

// PartialDelete removes the component tuple with the given key at node
// nodeID of the instance identified by pivotKey. Only dependency-island
// components can be deleted.
func (u *Updater) PartialDelete(pivotKey reldb.Tuple, nodeID string, key reldb.Tuple) (*Result, error) {
	return u.run(func(s *session) error {
		node, err := s.partialNode(nodeID)
		if err != nil {
			return err
		}
		if !s.tr.AllowDeletion {
			return reject("vupdate: %s: deletion is not allowed", s.def.Name)
		}
		topo := s.tr.Topology()
		if !topo.InIsland(nodeID) {
			return rejectAs(ReasonAmbiguousKey, "vupdate: %s: partial deletion of %s components is ambiguous (outside the dependency island)",
				s.def.Name, nodeID)
		}
		pivotTuple, err := s.pivotTuple(pivotKey)
		if err != nil {
			return err
		}
		rel, err := s.relation(node.Relation)
		if err != nil {
			return err
		}
		tuple, ok := rel.Get(key)
		if !ok {
			return fmt.Errorf("vupdate: %s: no %s tuple with key %s: %w",
				s.def.Name, nodeID, key, reldb.ErrNoSuchTuple)
		}
		// The tuple must belong to this instance.
		connected, err := s.connectedToInstance(pivotTuple, node, tuple)
		if err != nil {
			return err
		}
		if !connected {
			return rejectAs(ReasonNoInstance, "vupdate: %s: %s tuple %s does not belong to instance %s",
				s.def.Name, nodeID, key, pivotKey)
		}
		if node == s.def.Root() {
			return reject("vupdate: %s: deleting the pivot component is a complete deletion; use DeleteByKey",
				s.def.Name)
		}
		return s.apply([]nodeDelta{{p: topo.planOf(node), op: deltaDelete, ot: tuple}})
	})
}

// PartialUpdate replaces one component tuple at node nodeID of the
// instance identified by pivotKey.
func (u *Updater) PartialUpdate(pivotKey reldb.Tuple, nodeID string, oldTuple, newTuple reldb.Tuple) (*Result, error) {
	return u.run(func(s *session) error {
		node, err := s.partialNode(nodeID)
		if err != nil {
			return err
		}
		if !s.tr.AllowReplacement {
			return reject("vupdate: %s: replacement is not allowed", s.def.Name)
		}
		pivotTuple, err := s.pivotTuple(pivotKey)
		if err != nil {
			return err
		}
		topo := s.tr.Topology()
		p := topo.planOf(node)
		schema := p.schema
		if err := schema.CheckTuple(newTuple); err != nil {
			return fmt.Errorf("vupdate: %s: component %s: %w", s.def.Name, nodeID, err)
		}
		ot, nt := reldb.RowOf(oldTuple), reldb.RowOf(newTuple)
		connected, err := s.connectedToInstance(pivotTuple, node, ot)
		if err != nil {
			return err
		}
		if !connected {
			return rejectAs(ReasonNoInstance, "vupdate: %s: %s tuple %s does not belong to instance %s",
				s.def.Name, nodeID, schema.KeyOf(oldTuple), pivotKey)
		}
		if err := s.apply([]nodeDelta{{p: p, op: deltaPair, ot: ot, nt: nt}}); err != nil {
			return err
		}
		if err := s.settle(); err != nil {
			return err
		}
		// A non-pivot island key inherits the pivot's: a new key can name
		// another instance's pivot, or one that does not exist and that
		// the repair inserted. A delta that wrote nothing moved nothing.
		if p.class != ClassIsland || len(s.ops) == 0 {
			return nil
		}
		return s.requireConnected(pivotKey, pivotTuple, node, nt)
	})
}

// partialNode resolves a node ID for a partial operation.
func (s *session) partialNode(nodeID string) (*viewobject.Node, error) {
	node, ok := s.def.Node(nodeID)
	if !ok {
		return nil, fmt.Errorf("vupdate: %s has no node %s", s.def.Name, nodeID)
	}
	return node, nil
}

// pivotTuple fetches the pivot tuple of the addressed instance.
func (s *session) pivotTuple(pivotKey reldb.Tuple) (reldb.Row, error) {
	rel, err := s.relation(s.def.Pivot())
	if err != nil {
		return reldb.Row{}, err
	}
	t, ok := rel.Get(pivotKey)
	if !ok {
		return reldb.Row{}, fmt.Errorf("vupdate: %s: no instance with key %s: %w",
			s.def.Name, pivotKey, reldb.ErrNoSuchTuple)
	}
	return t, nil
}

// requireConnected rejects a partial update whose new tuple at node is
// not connected to the instance rooted at pivotTuple: the component
// would land in another instance, or in none.
func (s *session) requireConnected(pivotKey reldb.Tuple, pivotTuple reldb.Row, node *viewobject.Node, tuple reldb.Row) error {
	ok, err := s.connectedToInstance(pivotTuple, node, tuple)
	if err != nil {
		return err
	}
	if !ok {
		return rejectAs(ReasonIntegrity, "vupdate: %s: the new %s tuple %s is not connected to instance %s",
			s.def.Name, node.ID, tuple, pivotKey)
	}
	return nil
}

// connectedToInstance reports whether tuple appears at node when the
// instance rooted at pivotTuple is assembled: it traverses the
// concatenated connection path from the pivot to the node and looks for
// the tuple's key.
func (s *session) connectedToInstance(pivotTuple reldb.Row, node *viewobject.Node, tuple reldb.Row) (bool, error) {
	if node == s.def.Root() {
		rootSchema := s.def.NodeSchema(node)
		return pivotTuple.Key(rootSchema).Equal(tuple.Key(rootSchema)), nil
	}
	var full []structural.Edge
	for n := node; n != s.def.Root(); n = n.Parent() {
		full = append(append([]structural.Edge(nil), n.Path...), full...)
	}
	reached, err := viewobject.TraversePath(s.tx, pivotTuple, full)
	if err != nil {
		return false, err
	}
	schema := s.def.NodeSchema(node)
	want := tuple.EncodeKey(schema)
	for _, rt := range reached {
		if rt.EncodeKey(schema) == want {
			return true, nil
		}
	}
	return false, nil
}
