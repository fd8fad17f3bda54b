package vupdate

import (
	"fmt"
	"sort"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// ReplaceInstance translates and executes a replacement (algorithm VO-R,
// §5.3): substituting a fully specified replacing instance for an
// existing one. The three steps of the paper run in order:
//
//  1. propagation within the view object — modified key complements of
//     dependency-island nodes propagate down to their island children
//     (the new instance is cloned first; the caller's copy is untouched);
//  2. translation, in two parts: diff, a pure function of the topology
//     and the two instances, runs the two-state R/I machine over the
//     paired component trees and returns the replacement's delta — the
//     changed pairs, the new components to insert and the old island
//     components to delete, in write order; apply, the dispatch the
//     partial updates share, writes it per the translator's island and
//     outside policies. Key replacements translate to database key
//     replacements only inside the island, a key change of a referenced
//     relation becomes an insertion (§5.3 rule 2, the §6 "Engineering
//     Economic Systems" example), and user-requested key changes of
//     peninsulas or other outside relations are rejected;
//  3. validation against the structural model (settle) — foreign keys
//     of referencing peninsulas (and of out-of-object referencing
//     relations) are replaced to follow island key changes, key changes
//     propagate across ownership and subset connections leaving the
//     island, and the recursive dependency repair of §5.2 runs for every
//     tuple the translation inserted or replaced.
//
// oldInst is taken as the instance's current state. ReplaceByKey reads
// that state inside the update's own transaction instead, and every
// caller but the frozen end-to-end benchmark (benchmark/) uses it; this
// two-instance form, PreviewReplaceInstance and Cluster.ReplaceInstance
// are kept for that benchmark alone and go when it changes.
func (u *Updater) ReplaceInstance(oldInst, newInst *viewobject.Instance) (*Result, error) {
	if err := u.checkInstance(oldInst); err != nil {
		return nil, err
	}
	if err := u.checkInstance(newInst); err != nil {
		return nil, err
	}
	return u.run(func(s *session) error {
		return s.replaceInstance(oldInst, newInst)
	})
}

// ReplaceByKey is ReplaceInstance of the instance whose object key is
// key: the instance is assembled inside the update's write transaction,
// as DeleteByKey does, so the translation replaces exactly what the
// commit overwrites — a write that committed before this one began is
// part of the old side.
func (u *Updater) ReplaceByKey(key reldb.Tuple, newInst *viewobject.Instance) (*Result, error) {
	if err := u.checkInstance(newInst); err != nil {
		return nil, err
	}
	return u.run(func(s *session) error {
		oldInst, err := s.instanceAt(key)
		if err != nil {
			return err
		}
		return s.replaceInstance(oldInst, newInst)
	})
}

// replaceInstance runs the three VO-R steps inside the session.
func (s *session) replaceInstance(oldInst, newInst *viewobject.Instance) error {
	if !s.tr.AllowReplacement {
		return reject("vupdate: %s: replacement of tuples in an object instance is not allowed", s.def.Name)
	}
	topo := s.tr.Topology()
	newInst = newInst.Clone()
	// Step 1: propagation within the view object, then local validation
	// of the propagated replacing instance.
	if err := s.step(obs.StepPropagate, func() error {
		return propagateIslandKeys(s.def, topo.root, newInst.Root())
	}); err != nil {
		return err
	}
	if err := s.step(obs.StepLocalValidate, func() error {
		return validateConnections(s.def, topo.root, newInst.Root())
	}); err != nil {
		return err
	}
	// Step 2: translation — the diff, then the applier.
	if err := s.step(obs.StepTranslate, func() error {
		return s.apply(diff(topo, oldInst, newInst))
	}); err != nil {
		return err
	}
	// Step 3: validation against the structural model.
	return s.step(obs.StepGlobalValidate, s.settle)
}

// apply writes a delta in order: it is the one dispatch of the §5
// per-node cases, for VO-R and the partial updates alike. An insertion
// takes VO-CI's cases, a deletion VO-CD's cascade, and a pair the
// R-cases (the diff leaves R-1 pairs out; a partial update's pair may
// be one).
func (s *session) apply(delta []nodeDelta) error {
	for _, d := range delta {
		p := d.p
		var err error
		switch {
		case d.op == deltaInsert:
			err = s.insertComponent(p, d.nt)
		case d.op == deltaDelete:
			err = s.deleteCascade(p.node.Relation, d.ot, map[string]bool{})
		case projectedEqual(d.ot, d.nt, p.proj):
			// CASE R-1: the projections match exactly.
		case projectedEqual(d.ot, d.nt, p.key):
			// CASE R-2: the projections differ but the keys match.
			err = s.replaceSameKey(p, d.ot.Key(p.schema), d.nt)
		// CASE R-3: the projections differ and the keys differ.
		case p.class == ClassPivot || p.class == ClassIsland:
			err = s.replaceIslandKey(p, d.ot, d.nt)
		case p.class == ClassReferenced:
			// §5.3 rule 2: a permitted key replacement of a referenced
			// relation leads to an insertion, not a replacement.
			err = s.insertComponent(p, d.nt)
		case p.class == ClassPeninsula:
			err = s.peninsulaKeyChange(p, d.ot, d.nt)
		default:
			err = rejectAs(ReasonAmbiguousKey, "vupdate: %s: changes to the key of %s tuples are precluded (outside relation)",
				s.def.Name, p.node.ID)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// settle is step 3 after an applied delta: island key changes propagate
// across the structural model, then the dependency repair runs for
// every tuple the translation inserted or replaced.
func (s *session) settle() error {
	if err := s.propagateKeyChanges(); err != nil {
		return err
	}
	return s.repair(s.touched)
}

// propagateIslandKeys rewrites, throughout the dependency island of the
// (new) instance, the key attributes each child inherits from its parent
// (the complement A_j stays as given; the inherited part follows the
// parent — §5.3 "a change to A_j has to be propagated down to R_j's
// children in the dependency island"). Only single-connection island
// paths carry inherited attributes. Peninsula-style children (reached
// through a single inverse reference — they reference the parent) carry
// a system-maintained foreign key that must follow the parent's key;
// both are rewritten from the (new) parent tuple. p is the plan of in's
// node.
func propagateIslandKeys(def *viewobject.Definition, p *nodePlan, in *viewobject.InstNode) error {
	for _, cp := range p.kids {
		kids := in.ChildList(cp.node.ID)
		if cp.follows {
			for i := 0; i < kids.Len(); i++ {
				// Only a child whose inherited values differ is rewritten.
				// Identical, not Equal: Int 1 inherited from a Float 1.0,
				// or -0 from 0, takes the parent's value too.
				ci := kids.At(i)
				if inherits(in, ci, cp.src, cp.tgt) {
					continue
				}
				nt := ci.Row().Tuple()
				for k, j := range cp.tgt {
					nt[j] = in.Value(cp.src[k])
				}
				if err := ci.SetTuple(def, nt); err != nil {
					return err
				}
			}
		}
		for i := 0; i < kids.Len(); i++ {
			if err := propagateIslandKeys(def, cp, kids.At(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// inherits reports whether the child already holds, at every tgtIdx,
// the value identical to the parent's at the matching srcIdx.
func inherits(parent, child *viewobject.InstNode, srcIdx, tgtIdx []int) bool {
	for k, j := range tgtIdx {
		if !child.Value(j).Identical(parent.Value(srcIdx[k])) {
			return false
		}
	}
	return true
}

// keyChange is one key replacement: the tuple before it and the tuple
// after it. Propagation reads only their key attributes, where every
// connection a key change travels attaches (Definitions 2.2-2.4).
type keyChange struct {
	before, after reldb.Row
}

// recordKeyChange records an island key replacement of p's node for
// step 3 and for later peninsula pairs.
func (s *session) recordKeyChange(p *nodePlan, before, after reldb.Row) {
	if s.keyMap == nil {
		s.keyMap = make(map[string]map[string]keyChange)
	}
	m := s.keyMap[p.node.Relation]
	if m == nil {
		m = make(map[string]keyChange)
		s.keyMap[p.node.Relation] = m
	}
	m[before.EncodeKey(p.schema)] = keyChange{before, after}
}

// replaceSameKey merges the new projected attributes into the database
// tuple carrying the (unchanged) key.
func (s *session) replaceSameKey(p *nodePlan, key reldb.Tuple, nt reldb.Row) error {
	node := p.node
	if err := s.mayModify(p); err != nil {
		return err
	}
	rel, err := s.relation(node.Relation)
	if err != nil {
		return err
	}
	existing, ok := rel.Get(key)
	if !ok {
		return fmt.Errorf("vupdate: %s: %s tuple %s no longer exists: %w",
			s.def.Name, node.ID, key, reldb.ErrNoSuchTuple)
	}
	if projectedEqual(existing, nt, p.proj) {
		return nil
	}
	merged := mergeProjection(p, existing, nt)
	if err := s.replace(node.Relation, key, merged); err != nil {
		return err
	}
	s.touch(node.Relation, reldb.RowOf(merged))
	return nil
}

// replaceIslandKey performs CASE R-3 inside the dependency island: a
// literal database key replacement, gated by the translator's island
// policy. When a tuple with the new key already exists, the old tuple is
// deleted and the existing tuple absorbs the new values — but only when
// the DBA allowed the merge (the paper's third island dialog question).
func (s *session) replaceIslandKey(p *nodePlan, ot, nt reldb.Row) error {
	node, schema := p.node, p.schema
	policy := s.tr.Island[node.ID]
	if !policy.AllowKeyModification {
		return reject("vupdate: %s: modifying the key of %s tuples during replacements is not allowed",
			s.def.Name, node.ID)
	}
	if !policy.AllowDBKeyReplace {
		return reject("vupdate: %s: replacing the key of %s database tuples is not allowed",
			s.def.Name, node.ID)
	}
	rel, err := s.relation(node.Relation)
	if err != nil {
		return err
	}
	if err := schema.CheckRow(nt); err != nil {
		return fmt.Errorf("vupdate: %s: component %s: %w", s.def.Name, node.ID, err)
	}
	oldKey, newKey := ot.Key(schema), nt.Key(schema)
	existingOld, ok := rel.Get(oldKey)
	if !ok {
		return fmt.Errorf("vupdate: %s: %s tuple %s no longer exists: %w",
			s.def.Name, node.ID, oldKey, reldb.ErrNoSuchTuple)
	}
	var merged reldb.Tuple
	if existingNew, clash := rel.Get(newKey); clash {
		// A tuple with the new key already exists: delete the old tuple
		// and replace the existing one (simpler than delete+insert, as
		// the paper notes), if allowed.
		if !policy.AllowMergeWithExisting {
			return rejectAs(ReasonConflict, "vupdate: %s: replacing %s key %s would require deleting the old tuple and adopting the existing tuple with key %s, which is not allowed",
				s.def.Name, node.ID, oldKey, newKey)
		}
		if err := s.delete(node.Relation, oldKey); err != nil {
			return err
		}
		merged = mergeProjection(p, existingNew, nt)
		if !projectedEqual(existingNew, nt, p.proj) {
			if err := s.replace(node.Relation, newKey, merged); err != nil {
				return err
			}
		}
	} else {
		merged = mergeProjection(p, existingOld, nt)
		if err := s.replace(node.Relation, oldKey, merged); err != nil {
			return err
		}
	}
	s.recordKeyChange(p, ot, nt)
	s.touch(node.Relation, reldb.RowOf(merged))
	return nil
}

// peninsulaKeyChange validates a key difference on a referencing
// peninsula: the only permitted difference is the system's own
// foreign-key propagation from an island key change (applied in step 3);
// any further key change is inherently ambiguous and rejected (§5.3).
// Non-key projected differences are applied as a normal replacement.
func (s *session) peninsulaKeyChange(p *nodePlan, ot, nt reldb.Row) error {
	node, schema := p.node, p.schema
	expected := s.applyKeyMapToRefs(node.Relation, ot)
	if !schema.KeyOf(expected).Equal(nt.Key(schema)) {
		return rejectAs(ReasonAmbiguousKey, "vupdate: %s: replacements on keys of referencing peninsula %s are prohibited",
			s.def.Name, node.ID)
	}
	// Non-key attribute changes apply to the database tuple now (it still
	// carries the old foreign key; step 3 rewrites it).
	merged := ot.Tuple()
	changed := false
	for _, j := range p.proj {
		if schema.IsKeyAttr(j) {
			continue
		}
		if !merged[j].Equal(nt.At(j)) {
			merged[j] = nt.At(j)
			changed = true
		}
	}
	if !changed {
		return nil
	}
	if err := s.mayModify(p); err != nil {
		return err
	}
	if err := s.replace(node.Relation, ot.Key(schema), merged); err != nil {
		return err
	}
	s.touch(node.Relation, reldb.RowOf(merged))
	return nil
}

// applyKeyMapToRefs rewrites the referencing attributes of a peninsula
// tuple according to the island key changes recorded so far.
func (s *session) applyKeyMapToRefs(relName string, t reldb.Row) reldb.Tuple {
	out := t.Tuple()
	for _, c := range s.g.Outgoing(relName) {
		if c.Type != structural.Reference {
			continue
		}
		changes := s.keyMap[c.To]
		if len(changes) == 0 {
			continue
		}
		// The referenced tuple's key, read through the connection.
		toRel, err := s.relation(c.To)
		if err != nil {
			continue
		}
		ref := make(reldb.Tuple, toRel.Schema().Arity())
		if s.carry(structural.Edge{Conn: c, Forward: true}, reldb.RowOf(out), ref) != nil {
			continue
		}
		if ch, ok := changes[toRel.Schema().EncodeKeyOf(ref)]; ok {
			_ = s.carry(structural.Edge{Conn: c, Forward: false}, ch.after, out)
		}
	}
	return out
}

// propagateKeyChanges is step 3's structural propagation: for every
// island key replacement, foreign keys of referencing tuples are replaced
// to the new key, and the change cascades across ownership and subset
// connections to tuples still carrying the old key (relations attached to
// the island from outside the object).
func (s *session) propagateKeyChanges() error {
	rels := make([]string, 0, len(s.keyMap))
	for rel := range s.keyMap {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, relName := range rels {
		changes := s.keyMap[relName]
		encs := make([]string, 0, len(changes))
		for enc := range changes {
			encs = append(encs, enc)
		}
		sort.Strings(encs)
		for _, enc := range encs {
			ch := changes[enc]
			if err := s.propagateOneKeyChange(relName, ch); err != nil {
				return err
			}
		}
	}
	return nil
}

// propagateOneKeyChange follows one key change of relName across the
// connections leaving its key: referencing tuples take the new key as
// their foreign key, and owned and subset tuples take it as their key,
// recursively, as deleteCascade follows a deletion.
func (s *session) propagateOneKeyChange(relName string, ch keyChange) error {
	// Incoming references: rewrite foreign keys old → new.
	for _, c := range s.g.Incoming(relName) {
		if c.Type != structural.Reference {
			continue
		}
		e := structural.Edge{Conn: c, Forward: false}
		refs, err := structural.ConnectedVia(s.tx, e, []reldb.Row{ch.before}, nil)
		if err != nil {
			return err
		}
		if len(refs[0]) == 0 {
			continue
		}
		if err := s.checkFKRewriteAllowed(c.From); err != nil {
			return err
		}
		fromRel, err := s.relation(c.From)
		if err != nil {
			return err
		}
		for _, rt := range refs[0] {
			nt := rt.Tuple()
			if err := s.carry(e, ch.after, nt); err != nil {
				return err
			}
			if err := s.replace(c.From, rt.Key(fromRel.Schema()), nt); err != nil {
				return err
			}
			s.touch(c.From, reldb.RowOf(nt))
		}
	}
	// Outgoing ownership and subset connections: tuples still connected
	// to the old key follow it (out-of-object dependents; in-object
	// island children were already replaced by the state machine).
	for _, c := range s.g.Outgoing(relName) {
		if c.Type != structural.Ownership && c.Type != structural.Subset {
			continue
		}
		e := structural.Edge{Conn: c, Forward: true}
		deps, err := structural.ConnectedVia(s.tx, e, []reldb.Row{ch.before}, nil)
		if err != nil {
			return err
		}
		if len(deps[0]) == 0 {
			continue
		}
		toRel, err := s.relation(c.To)
		if err != nil {
			return err
		}
		toSchema := toRel.Schema()
		for _, dt := range deps[0] {
			nt := dt.Tuple()
			if err := s.carry(e, ch.after, nt); err != nil {
				return err
			}
			oldDepKey := dt.Key(toSchema)
			if err := s.replace(c.To, oldDepKey, nt); err != nil {
				return err
			}
			after := reldb.RowOf(nt)
			s.touch(c.To, after)
			if !oldDepKey.Equal(toSchema.KeyOf(nt)) {
				// The dependent's own key changed: recurse.
				if err := s.propagateOneKeyChange(c.To, keyChange{dt, after}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkFKRewriteAllowed gates foreign-key propagation on relations that
// are peninsula nodes of the object by their outside policy; relations
// outside the object are system-maintained and always allowed.
func (s *session) checkFKRewriteAllowed(relName string) error {
	if p := s.tr.topo.firstPeninsula[relName]; p != nil && s.mayModify(p) != nil {
		return reject("vupdate: %s: key propagation must modify %s, which the translator does not allow",
			s.def.Name, relName)
	}
	return nil
}
