package vupdate

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

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
//  2. translation — the two-state R/I machine walks the paired component
//     trees depth-first, emitting replace, insert, and delete operations
//     per the translator's island and outside policies; key replacements
//     translate to database key replacements only inside the island, a
//     key change of a referenced relation becomes an insertion (§5.3
//     rule 2, the §6 "Engineering Economic Systems" example), and
//     user-requested key changes of peninsulas or other outside relations
//     are rejected;
//  3. validation against the structural model — foreign keys of
//     referencing peninsulas (and of out-of-object referencing relations)
//     are replaced to follow island key changes, key changes propagate
//     across ownership and subset connections leaving the island, and the
//     recursive dependency repair of §5.2 runs for every tuple the
//     translation inserted or replaced.
//
// oldInst is taken as the instance's current state. ReplaceByKey reads
// that state inside the update's own transaction instead.
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
	// Step 2: translation (state machine).
	rc := &replaceCtx{s: s, topo: topo}
	if err := s.step(obs.StepTranslate, func() error {
		return rc.walkPair(topo.root, oldInst.Root(), newInst.Root(), stateR)
	}); err != nil {
		return err
	}
	// Step 3: validation against the structural model.
	return s.step(obs.StepGlobalValidate, func() error {
		if err := rc.propagateKeyChanges(); err != nil {
			return err
		}
		return s.repair(s.touched)
	})
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
				nt := ci.Tuple()
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

// sameValues reports whether two components hold equal values at every
// index of idx: the in-place form of projectedEqual (and, over the key
// indices, of comparing KeyOf tuples).
func sameValues(a, b *viewobject.InstNode, idx []int) bool {
	for _, j := range idx {
		if !a.Value(j).Equal(b.Value(j)) {
			return false
		}
	}
	return true
}

// keyOf builds the key tuple of a component, for handing to reldb.
func keyOf(in *viewobject.InstNode, p *nodePlan) reldb.Tuple {
	key := make(reldb.Tuple, len(p.key))
	for i, j := range p.key {
		key[i] = in.Value(j)
	}
	return key
}

// appendValues appends the key encoding of a component's values at idx.
func appendValues(dst []byte, in *viewobject.InstNode, idx []int) []byte {
	for _, j := range idx {
		dst = reldb.AppendKey(dst, in.Value(j))
	}
	return dst
}

// machine states of algorithm VO-R.
type voState uint8

const (
	stateR voState = iota // replacing: aligned with existing data
	stateI                // inserting: the subtree is new data
)

// keyChange is one key replacement: the tuple before it and the tuple
// after it. Propagation reads only their key attributes, where every
// connection a key change travels attaches (Definitions 2.2-2.4).
type keyChange struct {
	before, after reldb.Tuple
}

type replaceCtx struct {
	s    *session
	topo *Topology
	// keyMap records island key replacements: relation → encoded old key
	// → change. Used for peninsula foreign-key propagation and for the
	// outward ownership/subset propagation of step 3. Nil until the
	// first key replacement.
	keyMap map[string]map[string]keyChange
	// keyA and keyB are pairKids' encoding buffers, reused across the
	// walk: each call is done with them before the walk descends.
	keyA, keyB []byte
}

func (rc *replaceCtx) recordKeyChange(p *nodePlan, before, after reldb.Tuple) {
	if rc.keyMap == nil {
		rc.keyMap = make(map[string]map[string]keyChange)
	}
	m := rc.keyMap[p.node.Relation]
	if m == nil {
		m = make(map[string]keyChange)
		rc.keyMap[p.node.Relation] = m
	}
	m[p.schema.EncodeKeyOf(before)] = keyChange{before, after}
}

// walkPair processes one paired component (old, new) of p's node and
// recurses into the paired children. Both components are read in
// place; a tuple is copied only where the walk writes it.
func (rc *replaceCtx) walkPair(p *nodePlan, oldIn, newIn *viewobject.InstNode, state voState) error {
	// CASE I-1: in state I with matching keys, go to state R staying
	// with this tuple.
	if state == stateI && sameValues(oldIn, newIn, p.key) {
		state = stateR
	}
	var err error
	switch {
	case state == stateR || p.class == ClassPeninsula:
		// Peninsula components take the R-cases in either state: their
		// foreign keys are system-maintained (step 3), their other key
		// attributes are frozen, and non-key changes replace.
		err = rc.handleR(p, oldIn, newIn)
	default:
		// Cases I-2, I-3 and I-4 (I-1 switched to state R above; the
		// keys are known to differ) are VO-CI's cases 2, 1 and 3. Only
		// a node outside the island gets here: an island node's parent
		// is the pivot or an island node, which walks in state R, so
		// the island node does too.
		_, err = rc.s.insertComponent(p, newIn.Tuple())
	}
	if err != nil {
		return err
	}
	return rc.walkChildren(p, oldIn, newIn, state)
}

// walkChildren pairs the two components' children per child node and
// recurses; unpaired new children become insertions, unpaired old
// children inside the island become deletions.
func (rc *replaceCtx) walkChildren(p *nodePlan, oldIn, newIn *viewobject.InstNode, state voState) error {
	for _, cp := range p.kids {
		// Moving to the next relation down: state I outside the island,
		// state R inside (from state R); state I stays I.
		childState := stateI
		if state == stateR && cp.island {
			childState = stateR
		}
		id := cp.node.ID
		pairs, unpairedOld, unpairedNew := rc.pairKids(cp, oldIn.ChildList(id), newIn.ChildList(id))
		for _, pr := range pairs {
			if err := rc.walkPair(cp, pr[0], pr[1], childState); err != nil {
				return err
			}
		}
		for _, n := range unpairedNew {
			if err := rc.insertSubtree(cp, n); err != nil {
				return err
			}
		}
		for _, o := range unpairedOld {
			if cp.island {
				if err := rc.s.deleteCascade(cp.node.Relation, o.Tuple(), map[string]bool{}); err != nil {
					return err
				}
			}
			// Components outside the island are not owned by the object:
			// dropping them from the instance does not delete base data.
		}
	}
	return nil
}

// pairKids aligns the old and new components of p's node (a child of
// the pair being walked). Each component's pairing key is p.pairing's
// values: the key complement for an island child linked by one
// connection, so a parent key change still pairs the corresponding
// children; the full key otherwise. Lists of equal length whose keys
// match at every index pair positionally; otherwise pairByKey pairs
// them. Pairs are sorted, stably, by the new tuple's encoding.
func (rc *replaceCtx) pairKids(p *nodePlan, oldKids, newKids viewobject.ChildList) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	if n := newKids.Len(); n == oldKids.Len() && rc.positional(p, oldKids, newKids) {
		if n == 0 {
			return nil, nil, nil
		}
		// Every new component's key equals the old one's at its index:
		// the k-th new component with a key takes the k-th old one with
		// it, which is the one at its own index.
		pairs = make([][2]*viewobject.InstNode, n)
		for i := range pairs {
			pairs[i] = [2]*viewobject.InstNode{oldKids.At(i), newKids.At(i)}
		}
	} else {
		pairs, unpairedOld, unpairedNew = pairByKey(p, oldKids, newKids)
	}
	if !rc.inOrder(p, pairs) {
		sortPairs(p, pairs)
	}
	return pairs, unpairedOld, unpairedNew
}

// positional reports whether old and new component i hold the same
// pairing key for every i (the lists have equal length).
func (rc *replaceCtx) positional(p *nodePlan, oldKids, newKids viewobject.ChildList) bool {
	for i := 0; i < oldKids.Len(); i++ {
		rc.keyA = appendValues(rc.keyA[:0], oldKids.At(i), p.pairing)
		rc.keyB = appendValues(rc.keyB[:0], newKids.At(i), p.pairing)
		if !bytes.Equal(rc.keyA, rc.keyB) {
			return false
		}
	}
	return true
}

// inOrder reports whether pairs are already sorted by the encoding of
// each new tuple, which is the common case; it costs one encoding per
// pair, in two reused buffers.
func (rc *replaceCtx) inOrder(p *nodePlan, pairs [][2]*viewobject.InstNode) bool {
	if len(pairs) < 2 {
		return true
	}
	prev, cur := appendValues(rc.keyA[:0], pairs[0][1], p.all), rc.keyB[:0]
	ok := true
	for i := 1; i < len(pairs) && ok; i++ {
		cur = appendValues(cur[:0], pairs[i][1], p.all)
		ok = bytes.Compare(prev, cur) <= 0
		prev, cur = cur, prev
	}
	rc.keyA, rc.keyB = prev, cur
	return ok
}

// pairByKey is the general pairing: a new component pairs with the
// first unpaired old component holding its key; the leftovers pair
// positionally, the old ones grouped by the order in which each key
// first appears in the old list (these are the key-change pairs).
func pairByKey(p *nodePlan, oldKids, newKids viewobject.ChildList) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	var buf []byte
	keyOf := func(in *viewobject.InstNode) string {
		buf = appendValues(buf[:0], in, p.pairing)
		return string(buf)
	}
	oldByKey := make(map[string][]*viewobject.InstNode)
	var oldOrder []string
	for i := 0; i < oldKids.Len(); i++ {
		o := oldKids.At(i)
		k := keyOf(o)
		if _, seen := oldByKey[k]; !seen {
			oldOrder = append(oldOrder, k)
		}
		oldByKey[k] = append(oldByKey[k], o)
	}
	var leftoverNew []*viewobject.InstNode
	for j := 0; j < newKids.Len(); j++ {
		n := newKids.At(j)
		k := keyOf(n)
		if olds := oldByKey[k]; len(olds) > 0 {
			pairs = append(pairs, [2]*viewobject.InstNode{olds[0], n})
			oldByKey[k] = olds[1:]
		} else {
			leftoverNew = append(leftoverNew, n)
		}
	}
	var leftoverOld []*viewobject.InstNode
	for _, k := range oldOrder {
		leftoverOld = append(leftoverOld, oldByKey[k]...)
	}
	m := min(len(leftoverOld), len(leftoverNew))
	for i := 0; i < m; i++ {
		pairs = append(pairs, [2]*viewobject.InstNode{leftoverOld[i], leftoverNew[i]})
	}
	return pairs, leftoverOld[m:], leftoverNew[m:]
}

// sortPairs sorts pairs, stably, by the encoding of each new tuple
// (p's attributes in schema order).
func sortPairs(p *nodePlan, pairs [][2]*viewobject.InstNode) {
	type keyedPair struct {
		key  string
		pair [2]*viewobject.InstNode
	}
	var buf []byte
	keyed := make([]keyedPair, len(pairs))
	for i, pr := range pairs {
		buf = appendValues(buf[:0], pr[1], p.all)
		keyed[i] = keyedPair{string(buf), pr}
	}
	slices.SortStableFunc(keyed, func(a, b keyedPair) int { return strings.Compare(a.key, b.key) })
	for i := range keyed {
		pairs[i] = keyed[i].pair
	}
}

// handleR implements the three R-cases for one component pair of p's
// node.
func (rc *replaceCtx) handleR(p *nodePlan, oldIn, newIn *viewobject.InstNode) error {
	if sameValues(oldIn, newIn, p.proj) {
		return nil // CASE R-1: the projections match exactly.
	}
	if sameValues(oldIn, newIn, p.key) {
		// CASE R-2: the projections differ but the keys match.
		return rc.replaceSameKey(p, keyOf(oldIn, p), newIn.Tuple())
	}
	// CASE R-3: the projections differ and the keys differ.
	switch p.class {
	case ClassPivot, ClassIsland:
		return rc.replaceIslandKey(p, oldIn.Tuple(), newIn.Tuple())
	case ClassReferenced:
		// §5.3 rule 2: a permitted key replacement of a referenced
		// relation leads to an insertion, not a replacement.
		_, err := rc.s.insertComponent(p, newIn.Tuple())
		return err
	case ClassPeninsula:
		return rc.peninsulaKeyChange(p, oldIn.Tuple(), newIn.Tuple())
	default:
		return rejectAs(ReasonAmbiguousKey, "vupdate: %s: changes to the key of %s tuples are precluded (outside relation)",
			rc.s.def.Name, p.node.ID)
	}
}

// replaceSameKey merges the new projected attributes into the database
// tuple carrying the (unchanged) key.
func (rc *replaceCtx) replaceSameKey(p *nodePlan, key reldb.Tuple, nt reldb.Tuple) error {
	node := p.node
	if err := rc.s.mayModify(p); err != nil {
		return err
	}
	rel, err := rc.s.relation(node.Relation)
	if err != nil {
		return err
	}
	existing, ok := rel.Get(key)
	if !ok {
		return fmt.Errorf("vupdate: %s: %s tuple %s no longer exists: %w",
			rc.s.def.Name, node.ID, key, reldb.ErrNoSuchTuple)
	}
	merged := mergeProjection(p, existing, nt)
	if merged.Equal(existing) {
		return nil
	}
	if err := rc.s.replace(node.Relation, key, merged); err != nil {
		return err
	}
	rc.s.touch(node.Relation, merged)
	return nil
}

// replaceIslandKey performs CASE R-3 inside the dependency island: a
// literal database key replacement, gated by the translator's island
// policy. When a tuple with the new key already exists, the old tuple is
// deleted and the existing tuple absorbs the new values — but only when
// the DBA allowed the merge (the paper's third island dialog question).
func (rc *replaceCtx) replaceIslandKey(p *nodePlan, ot, nt reldb.Tuple) error {
	node, schema := p.node, p.schema
	policy := rc.s.tr.Island[node.ID]
	if !policy.AllowKeyModification {
		return reject("vupdate: %s: modifying the key of %s tuples during replacements is not allowed",
			rc.s.def.Name, node.ID)
	}
	if !policy.AllowDBKeyReplace {
		return reject("vupdate: %s: replacing the key of %s database tuples is not allowed",
			rc.s.def.Name, node.ID)
	}
	rel, err := rc.s.relation(node.Relation)
	if err != nil {
		return err
	}
	if err := schema.CheckTuple(nt); err != nil {
		return fmt.Errorf("vupdate: %s: component %s: %w", rc.s.def.Name, node.ID, err)
	}
	oldKey, newKey := schema.KeyOf(ot), schema.KeyOf(nt)
	existingOld, ok := rel.Get(oldKey)
	if !ok {
		return fmt.Errorf("vupdate: %s: %s tuple %s no longer exists: %w",
			rc.s.def.Name, node.ID, oldKey, reldb.ErrNoSuchTuple)
	}
	var merged reldb.Tuple
	if existingNew, clash := rel.Get(newKey); clash {
		// A tuple with the new key already exists: delete the old tuple
		// and replace the existing one (simpler than delete+insert, as
		// the paper notes), if allowed.
		if !policy.AllowMergeWithExisting {
			return rejectAs(ReasonConflict, "vupdate: %s: replacing %s key %s would require deleting the old tuple and adopting the existing tuple with key %s, which is not allowed",
				rc.s.def.Name, node.ID, oldKey, newKey)
		}
		if err := rc.s.delete(node.Relation, oldKey); err != nil {
			return err
		}
		merged = mergeProjection(p, existingNew, nt)
		if !merged.Equal(existingNew) {
			if err := rc.s.replace(node.Relation, newKey, merged); err != nil {
				return err
			}
		}
	} else {
		merged = mergeProjection(p, existingOld, nt)
		if err := rc.s.replace(node.Relation, oldKey, merged); err != nil {
			return err
		}
	}
	rc.recordKeyChange(p, ot, nt)
	rc.s.touch(node.Relation, merged)
	return nil
}

// peninsulaKeyChange validates a key difference on a referencing
// peninsula: the only permitted difference is the system's own
// foreign-key propagation from an island key change (applied in step 3);
// any further key change is inherently ambiguous and rejected (§5.3).
// Non-key projected differences are applied as a normal replacement.
func (rc *replaceCtx) peninsulaKeyChange(p *nodePlan, ot, nt reldb.Tuple) error {
	node, schema := p.node, p.schema
	expected := rc.applyKeyMapToRefs(node.Relation, ot)
	if !schema.KeyOf(expected).Equal(schema.KeyOf(nt)) {
		return rejectAs(ReasonAmbiguousKey, "vupdate: %s: replacements on keys of referencing peninsula %s are prohibited",
			rc.s.def.Name, node.ID)
	}
	// Non-key attribute changes apply to the database tuple now (it still
	// carries the old foreign key; step 3 rewrites it).
	merged := ot.Clone()
	changed := false
	for _, j := range p.proj {
		if schema.IsKeyAttr(j) {
			continue
		}
		if !merged[j].Equal(nt[j]) {
			merged[j] = nt[j]
			changed = true
		}
	}
	if !changed {
		return nil
	}
	if err := rc.s.mayModify(p); err != nil {
		return err
	}
	if err := rc.s.replace(node.Relation, schema.KeyOf(ot), merged); err != nil {
		return err
	}
	rc.s.touch(node.Relation, merged)
	return nil
}

// applyKeyMapToRefs rewrites the referencing attributes of a peninsula
// tuple according to the island key changes recorded so far.
func (rc *replaceCtx) applyKeyMapToRefs(relName string, t reldb.Tuple) reldb.Tuple {
	out := t.Clone()
	for _, c := range rc.s.g.Outgoing(relName) {
		if c.Type != structural.Reference {
			continue
		}
		changes := rc.keyMap[c.To]
		if len(changes) == 0 {
			continue
		}
		// The referenced tuple's key, read through the connection.
		toRel, err := rc.s.relation(c.To)
		if err != nil {
			continue
		}
		ref := make(reldb.Tuple, toRel.Schema().Arity())
		if rc.s.carry(structural.Edge{Conn: c, Forward: true}, out, ref) != nil {
			continue
		}
		if ch, ok := changes[toRel.Schema().EncodeKeyOf(ref)]; ok {
			_ = rc.s.carry(structural.Edge{Conn: c, Forward: false}, ch.after, out)
		}
	}
	return out
}

// insertSubtree inserts a new component of p's node and its descendants
// using the VO-CI cases (an unpaired new component is new data by
// definition).
func (rc *replaceCtx) insertSubtree(p *nodePlan, in *viewobject.InstNode) error {
	if _, err := rc.s.insertComponent(p, in.Tuple()); err != nil {
		return err
	}
	for _, cp := range p.kids {
		kids := in.ChildList(cp.node.ID)
		for i := 0; i < kids.Len(); i++ {
			if err := rc.insertSubtree(cp, kids.At(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// propagateKeyChanges is step 3's structural propagation: for every
// island key replacement, foreign keys of referencing tuples are replaced
// to the new key, and the change cascades across ownership and subset
// connections to tuples still carrying the old key (relations attached to
// the island from outside the object).
func (rc *replaceCtx) propagateKeyChanges() error {
	rels := make([]string, 0, len(rc.keyMap))
	for rel := range rc.keyMap {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, relName := range rels {
		changes := rc.keyMap[relName]
		encs := make([]string, 0, len(changes))
		for enc := range changes {
			encs = append(encs, enc)
		}
		sort.Strings(encs)
		for _, enc := range encs {
			ch := changes[enc]
			if err := rc.propagateOneKeyChange(relName, ch); err != nil {
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
func (rc *replaceCtx) propagateOneKeyChange(relName string, ch keyChange) error {
	s := rc.s
	// Incoming references: rewrite foreign keys old → new.
	for _, c := range s.g.Incoming(relName) {
		if c.Type != structural.Reference {
			continue
		}
		e := structural.Edge{Conn: c, Forward: false}
		refs, err := structural.ConnectedVia(s.tx, e, ch.before)
		if err != nil {
			return err
		}
		if len(refs) == 0 {
			continue
		}
		if err := rc.checkFKRewriteAllowed(c.From); err != nil {
			return err
		}
		fromRel, err := s.relation(c.From)
		if err != nil {
			return err
		}
		for _, rt := range refs {
			nt := rt.Clone()
			if err := s.carry(e, ch.after, nt); err != nil {
				return err
			}
			if err := s.replace(c.From, fromRel.Schema().KeyOf(rt), nt); err != nil {
				return err
			}
			s.touch(c.From, nt)
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
		deps, err := structural.ConnectedVia(s.tx, e, ch.before)
		if err != nil {
			return err
		}
		if len(deps) == 0 {
			continue
		}
		toRel, err := s.relation(c.To)
		if err != nil {
			return err
		}
		toSchema := toRel.Schema()
		for _, dt := range deps {
			nt := dt.Clone()
			if err := s.carry(e, ch.after, nt); err != nil {
				return err
			}
			oldDepKey := toSchema.KeyOf(dt)
			if err := s.replace(c.To, oldDepKey, nt); err != nil {
				return err
			}
			s.touch(c.To, nt)
			if !oldDepKey.Equal(toSchema.KeyOf(nt)) {
				// The dependent's own key changed: recurse.
				if err := rc.propagateOneKeyChange(c.To, keyChange{dt, nt}); err != nil {
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
func (rc *replaceCtx) checkFKRewriteAllowed(relName string) error {
	if p := rc.topo.firstPeninsula[relName]; p != nil && rc.s.mayModify(p) != nil {
		return reject("vupdate: %s: key propagation must modify %s, which the translator does not allow",
			rc.s.def.Name, relName)
	}
	return nil
}
