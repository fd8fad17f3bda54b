package vupdate

import (
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
		return propagateIslandKeys(s.def, topo, newInst.Root())
	}); err != nil {
		return err
	}
	if err := s.step(obs.StepLocalValidate, func() error {
		return validateConnections(s.def, newInst.Root())
	}); err != nil {
		return err
	}
	// Step 2: translation (state machine).
	rc := &replaceCtx{
		s:      s,
		topo:   topo,
		keyMap: make(map[string]map[string]keyChange),
	}
	if err := s.step(obs.StepTranslate, func() error {
		return rc.walkPair(oldInst.Root(), newInst.Root(), stateR)
	}); err != nil {
		return err
	}
	// Step 3: validation against the structural model.
	return s.step(obs.StepGlobalValidate, func() error {
		if err := rc.propagateKeyChanges(); err != nil {
			return err
		}
		seen := make(map[string]bool)
		for _, rt := range rc.touched {
			if err := s.ensureDependencies(rt.rel, rt.tuple, seen); err != nil {
				return err
			}
		}
		return nil
	})
}

// propagateIslandKeys rewrites, throughout the dependency island of the
// (new) instance, the key attributes each child inherits from its parent
// (the complement A_j stays as given; the inherited part follows the
// parent — §5.3 "a change to A_j has to be propagated down to R_j's
// children in the dependency island"). Only single-connection island
// paths carry inherited attributes.
func propagateIslandKeys(def *viewobject.Definition, topo *Topology, in *viewobject.InstNode) error {
	node := in.Node()
	for _, child := range node.Children {
		// Island children inherit key attributes from the parent;
		// peninsula-style children (reached through a single inverse
		// reference — they reference the parent) carry a system-maintained
		// foreign key that must follow the parent's key. Both are
		// rewritten from the (new) parent tuple.
		follows := topo.InIsland(child.ID) ||
			(len(child.Path) == 1 && !child.Path[0].Forward &&
				child.Path[0].Conn.Type == structural.Reference)
		if follows && len(child.Path) == 1 {
			e := child.Path[0]
			parentSchema := def.NodeSchema(node)
			childSchema := def.NodeSchema(child)
			srcIdx, err := parentSchema.Indices(e.SourceAttrs())
			if err != nil {
				return err
			}
			tgtIdx, err := childSchema.Indices(e.TargetAttrs())
			if err != nil {
				return err
			}
			kids := in.ChildList(child.ID)
			for i := 0; i < kids.Len(); i++ {
				// Only a child whose inherited values differ is rewritten.
				// Identical, not Equal: Int 1 inherited from a Float 1.0,
				// or -0 from 0, takes the parent's value too.
				ci := kids.At(i)
				if inherits(in, ci, srcIdx, tgtIdx) {
					continue
				}
				nt := ci.Tuple()
				for k, j := range tgtIdx {
					nt[j] = in.Value(srcIdx[k])
				}
				if err := ci.SetTuple(def, nt); err != nil {
					return err
				}
			}
		}
		for _, ci := range in.Children(child.ID) {
			if err := propagateIslandKeys(def, topo, ci); err != nil {
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

// machine states of algorithm VO-R.
type voState uint8

const (
	stateR voState = iota // replacing: aligned with existing data
	stateI                // inserting: the subtree is new data
)

type keyChange struct {
	oldKey reldb.Tuple
	newKey reldb.Tuple
}

type replaceCtx struct {
	s    *session
	topo *Topology
	// keyMap records island key replacements: relation → encoded old key
	// → change. Used for peninsula foreign-key propagation and for the
	// outward ownership/subset propagation of step 3.
	keyMap  map[string]map[string]keyChange
	touched []relTuple
}

func (rc *replaceCtx) recordKeyChange(rel string, oldKey, newKey reldb.Tuple) {
	m := rc.keyMap[rel]
	if m == nil {
		m = make(map[string]keyChange)
		rc.keyMap[rel] = m
	}
	m[reldb.EncodeValues(oldKey...)] = keyChange{oldKey: oldKey.Clone(), newKey: newKey.Clone()}
}

// walkPair processes one paired component (old, new) and recurses into
// the paired children.
func (rc *replaceCtx) walkPair(oldIn, newIn *viewobject.InstNode, state voState) error {
	node := newIn.Node()
	schema := rc.s.schemaOf(node)
	ot, nt := oldIn.Tuple(), newIn.Tuple()
	oldKey, newKey := schema.KeyOf(ot), schema.KeyOf(nt)

	// CASE I-1: in state I with matching keys, go to state R staying
	// with this tuple.
	if state == stateI && oldKey.Equal(newKey) {
		state = stateR
	}
	var err error
	switch {
	case rc.topo.Class[node.ID] == ClassPeninsula:
		// Peninsula components are handled uniformly in either state:
		// their foreign keys are system-maintained (step 3), their other
		// key attributes are frozen, and non-key changes replace.
		err = rc.handlePeninsula(node, schema, ot, nt)
	case state == stateR:
		err = rc.handleR(node, schema, ot, nt)
	default:
		err = rc.handleI(node, schema, ot, nt)
	}
	if err != nil {
		return err
	}
	return rc.walkChildren(oldIn, newIn, state)
}

// walkChildren pairs the two components' children per child node and
// recurses; unpaired new children become insertions, unpaired old
// children inside the island become deletions.
func (rc *replaceCtx) walkChildren(oldIn, newIn *viewobject.InstNode, state voState) error {
	node := newIn.Node()
	for _, child := range node.Children {
		// Moving to the next relation down: state I outside the island,
		// state R inside (from state R); state I stays I.
		childState := stateI
		if state == stateR && rc.topo.InIsland(child.ID) {
			childState = stateR
		}
		oldKids := oldIn.Children(child.ID)
		newKids := newIn.Children(child.ID)
		pairs, unpairedOld, unpairedNew := rc.pairKids(child, oldKids, newKids)
		for _, p := range pairs {
			if err := rc.walkPair(p[0], p[1], childState); err != nil {
				return err
			}
		}
		for _, n := range unpairedNew {
			if err := rc.insertSubtree(n); err != nil {
				return err
			}
		}
		for _, o := range unpairedOld {
			if rc.topo.InIsland(child.ID) {
				if err := rc.s.deleteCascade(child.Relation, o.Tuple(), map[string]bool{}); err != nil {
					return err
				}
			}
			// Components outside the island are not owned by the object:
			// dropping them from the instance does not delete base data.
		}
	}
	return nil
}

// pairKids aligns old and new child components. Island children linked by
// a single connection pair on their key complement (the part of the key
// not inherited from the parent), so a parent key change still pairs the
// corresponding children; everything else pairs on the full key, with
// leftovers paired positionally.
func (rc *replaceCtx) pairKids(child *viewobject.Node, oldKids, newKids []*viewobject.InstNode) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	schema := rc.s.schemaOf(child)
	extractor := schema.Key()
	if rc.topo.InIsland(child.ID) && len(child.Path) == 1 {
		inherited := make(map[int]bool)
		if idx, err := schema.Indices(child.Path[0].TargetAttrs()); err == nil {
			for _, j := range idx {
				inherited[j] = true
			}
		}
		var complement []int
		for _, k := range schema.Key() {
			if !inherited[k] {
				complement = append(complement, k)
			}
		}
		if len(complement) > 0 {
			extractor = complement
		}
	}
	// Each kid's pairing key, and each pair's sort key (its new tuple's
	// encoding), is computed once, from the component's values in place.
	var buf []byte
	keyOf := func(in *viewobject.InstNode, idx []int) string {
		buf = buf[:0]
		for _, j := range idx {
			buf = reldb.AppendKey(buf, in.Value(j))
		}
		return string(buf)
	}
	oldByKey := make(map[string][]*viewobject.InstNode)
	var oldOrder []string
	for _, o := range oldKids {
		k := keyOf(o, extractor)
		if _, seen := oldByKey[k]; !seen {
			oldOrder = append(oldOrder, k)
		}
		oldByKey[k] = append(oldByKey[k], o)
	}
	var leftoverNew []*viewobject.InstNode
	for _, n := range newKids {
		k := keyOf(n, extractor)
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
	// Positional pairing of leftovers: these are the key-change pairs.
	m := len(leftoverOld)
	if len(leftoverNew) < m {
		m = len(leftoverNew)
	}
	for i := 0; i < m; i++ {
		pairs = append(pairs, [2]*viewobject.InstNode{leftoverOld[i], leftoverNew[i]})
	}
	unpairedOld = leftoverOld[m:]
	unpairedNew = leftoverNew[m:]
	if len(pairs) > 1 {
		all := make([]int, schema.Arity())
		for i := range all {
			all[i] = i
		}
		type keyedPair struct {
			key  string
			pair [2]*viewobject.InstNode
		}
		keyed := make([]keyedPair, len(pairs))
		for i, p := range pairs {
			keyed[i] = keyedPair{keyOf(p[1], all), p}
		}
		slices.SortStableFunc(keyed, func(a, b keyedPair) int { return strings.Compare(a.key, b.key) })
		for i := range keyed {
			pairs[i] = keyed[i].pair
		}
	}
	return pairs, unpairedOld, unpairedNew
}

// handleR implements the three R-cases for one tuple pair.
func (rc *replaceCtx) handleR(node *viewobject.Node, schema *reldb.Schema, ot, nt reldb.Tuple) error {
	projIdx, err := schema.Indices(node.Attrs)
	if err != nil {
		return err
	}
	if projectedEqual(ot, nt, projIdx) {
		return nil // CASE R-1: the projections match exactly.
	}
	oldKey, newKey := schema.KeyOf(ot), schema.KeyOf(nt)
	if oldKey.Equal(newKey) {
		// CASE R-2: the projections differ but the keys match.
		return rc.replaceSameKey(node, schema, oldKey, nt, projIdx)
	}
	// CASE R-3: the projections differ and the keys differ.
	switch rc.topo.Class[node.ID] {
	case ClassPivot, ClassIsland:
		return rc.replaceIslandKey(node, schema, ot, nt, projIdx)
	case ClassReferenced:
		// §5.3 rule 2: a permitted key replacement of a referenced
		// relation leads to an insertion, not a replacement.
		return rc.insertOrMendOutside(node, schema, nt, projIdx)
	case ClassPeninsula:
		return rc.peninsulaKeyChange(node, schema, ot, nt, projIdx)
	default:
		return rejectAs(ReasonAmbiguousKey, "vupdate: %s: changes to the key of %s tuples are precluded (outside relation)",
			rc.s.def.Name, node.ID)
	}
}

// handleI implements cases I-2, I-3, and I-4 (I-1 switches to state R in
// walkPair before reaching here; keys are known to differ).
func (rc *replaceCtx) handleI(node *viewobject.Node, schema *reldb.Schema, _, nt reldb.Tuple) error {
	return rc.insertOrMendOutside(node, schema, nt, nil)
}

// insertOrMendOutside inserts nt if its key is free (I-2), does nothing
// if an identical tuple exists (I-3), and replaces the existing tuple's
// projected attributes when values conflict (I-4).
func (rc *replaceCtx) insertOrMendOutside(node *viewobject.Node, schema *reldb.Schema, nt reldb.Tuple, projIdx []int) error {
	if projIdx == nil {
		var err error
		projIdx, err = schema.Indices(node.Attrs)
		if err != nil {
			return err
		}
	}
	rel, err := rc.s.relation(node.Relation)
	if err != nil {
		return err
	}
	if err := schema.CheckTuple(nt); err != nil {
		return fmt.Errorf("vupdate: %s: component %s: %w", rc.s.def.Name, node.ID, err)
	}
	key := schema.KeyOf(nt)
	existing, exists := rel.Get(key)
	p := rc.s.tr.outsidePolicy(node.ID)
	switch {
	case !exists:
		// CASE I-2: insert.
		if !p.Modifiable || !p.AllowInsert {
			return reject("vupdate: %s: the application is not allowed to insert tuples in %s",
				rc.s.def.Name, node.Relation)
		}
		if err := rc.s.insert(node.Relation, nt); err != nil {
			return err
		}
		rc.touched = append(rc.touched, relTuple{node.Relation, nt})
		return nil
	case projectedEqual(nt, existing, projIdx):
		// CASE I-3: already present.
		return nil
	default:
		// CASE I-4: conflicting values.
		if !p.Modifiable || !p.AllowModifyExisting {
			return reject("vupdate: %s: the application is not allowed to modify tuples of %s",
				rc.s.def.Name, node.Relation)
		}
		merged := existing.Clone()
		for _, j := range projIdx {
			merged[j] = nt[j]
		}
		if err := rc.s.replace(node.Relation, key, merged); err != nil {
			return err
		}
		rc.touched = append(rc.touched, relTuple{node.Relation, merged})
		return nil
	}
}

// replaceSameKey merges the new projected attributes into the database
// tuple carrying the (unchanged) key.
func (rc *replaceCtx) replaceSameKey(node *viewobject.Node, schema *reldb.Schema, key reldb.Tuple, nt reldb.Tuple, projIdx []int) error {
	if !rc.topo.InIsland(node.ID) {
		p := rc.s.tr.outsidePolicy(node.ID)
		if !p.Modifiable || !p.AllowModifyExisting {
			return reject("vupdate: %s: the application is not allowed to modify tuples of %s",
				rc.s.def.Name, node.Relation)
		}
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
	merged := existing.Clone()
	for _, j := range projIdx {
		merged[j] = nt[j]
	}
	if merged.Equal(existing) {
		return nil
	}
	if err := rc.s.replace(node.Relation, key, merged); err != nil {
		return err
	}
	rc.touched = append(rc.touched, relTuple{node.Relation, merged})
	return nil
}

// replaceIslandKey performs CASE R-3 inside the dependency island: a
// literal database key replacement, gated by the translator's island
// policy. When a tuple with the new key already exists, the old tuple is
// deleted and the existing tuple absorbs the new values — but only when
// the DBA allowed the merge (the paper's third island dialog question).
func (rc *replaceCtx) replaceIslandKey(node *viewobject.Node, schema *reldb.Schema, ot, nt reldb.Tuple, projIdx []int) error {
	policy := rc.s.tr.islandPolicy(node.ID)
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
	merged := existingOld.Clone()
	for _, j := range projIdx {
		merged[j] = nt[j]
	}
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
		mergedExisting := existingNew.Clone()
		for _, j := range projIdx {
			mergedExisting[j] = nt[j]
		}
		if !mergedExisting.Equal(existingNew) {
			if err := rc.s.replace(node.Relation, newKey, mergedExisting); err != nil {
				return err
			}
		}
		rc.recordKeyChange(node.Relation, oldKey, newKey)
		rc.touched = append(rc.touched, relTuple{node.Relation, mergedExisting})
		return nil
	}
	if err := rc.s.replace(node.Relation, oldKey, merged); err != nil {
		return err
	}
	rc.recordKeyChange(node.Relation, oldKey, newKey)
	rc.touched = append(rc.touched, relTuple{node.Relation, merged})
	return nil
}

// handlePeninsula processes one peninsula component pair: identical
// projections are a no-op, an unchanged key with differing values is a
// plain replacement, and a key difference goes through the propagation
// check below.
func (rc *replaceCtx) handlePeninsula(node *viewobject.Node, schema *reldb.Schema, ot, nt reldb.Tuple) error {
	projIdx, err := schema.Indices(node.Attrs)
	if err != nil {
		return err
	}
	if projectedEqual(ot, nt, projIdx) {
		return nil
	}
	oldKey, newKey := schema.KeyOf(ot), schema.KeyOf(nt)
	if oldKey.Equal(newKey) {
		return rc.replaceSameKey(node, schema, oldKey, nt, projIdx)
	}
	return rc.peninsulaKeyChange(node, schema, ot, nt, projIdx)
}

// peninsulaKeyChange validates a key difference on a referencing
// peninsula: the only permitted difference is the system's own
// foreign-key propagation from an island key change (applied in step 3);
// any further key change is inherently ambiguous and rejected (§5.3).
// Non-key projected differences are applied as a normal replacement.
func (rc *replaceCtx) peninsulaKeyChange(node *viewobject.Node, schema *reldb.Schema, ot, nt reldb.Tuple, projIdx []int) error {
	expected := rc.applyKeyMapToRefs(node.Relation, ot)
	if !schema.KeyOf(expected).Equal(schema.KeyOf(nt)) {
		return rejectAs(ReasonAmbiguousKey, "vupdate: %s: replacements on keys of referencing peninsula %s are prohibited",
			rc.s.def.Name, node.ID)
	}
	// Non-key attribute changes apply to the database tuple now (it still
	// carries the old foreign key; step 3 rewrites it).
	merged := ot.Clone()
	changed := false
	for _, j := range projIdx {
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
	p := rc.s.tr.outsidePolicy(node.ID)
	if !p.Modifiable || !p.AllowModifyExisting {
		return reject("vupdate: %s: the application is not allowed to modify tuples of %s",
			rc.s.def.Name, node.Relation)
	}
	if err := rc.s.replace(node.Relation, schema.KeyOf(ot), merged); err != nil {
		return err
	}
	rc.touched = append(rc.touched, relTuple{node.Relation, merged})
	return nil
}

// applyKeyMapToRefs rewrites the referencing attributes of a peninsula
// tuple according to the island key changes recorded so far.
func (rc *replaceCtx) applyKeyMapToRefs(relName string, t reldb.Tuple) reldb.Tuple {
	out := t.Clone()
	rel, err := rc.s.relation(relName)
	if err != nil {
		return out
	}
	schema := rel.Schema()
	for _, c := range rc.s.g.Outgoing(relName) {
		if c.Type != structural.Reference {
			continue
		}
		changes := rc.keyMap[c.To]
		if len(changes) == 0 {
			continue
		}
		idx, err := schema.Indices(c.FromAttrs)
		if err != nil {
			continue
		}
		fk := out.Project(idx)
		if ch, ok := changes[reldb.EncodeValues(fk...)]; ok {
			for i, j := range idx {
				out[j] = ch.newKey[i]
			}
		}
	}
	return out
}

// insertSubtree inserts a new component and its descendants using the
// VO-CI cases (an unpaired new component is new data by definition).
func (rc *replaceCtx) insertSubtree(in *viewobject.InstNode) error {
	t, err := rc.s.insertComponent(rc.topo, in.Node(), in.Tuple())
	if err != nil {
		return err
	}
	if t != nil {
		rc.touched = append(rc.touched, relTuple{in.Node().Relation, t})
	}
	for _, child := range in.Node().Children {
		for _, ci := range in.Children(child.ID) {
			if err := rc.insertSubtree(ci); err != nil {
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

func (rc *replaceCtx) propagateOneKeyChange(relName string, ch keyChange) error {
	rel, err := rc.s.relation(relName)
	if err != nil {
		return err
	}
	schema := rel.Schema()
	keyIdx := schema.Key()
	keyAttrs := make([]string, len(keyIdx))
	for i, j := range keyIdx {
		keyAttrs[i] = schema.Attr(j).Name
	}
	// Incoming references: rewrite foreign keys old → new.
	for _, c := range rc.s.g.Incoming(relName) {
		if c.Type != structural.Reference {
			continue
		}
		fromRel, err := rc.s.relation(c.From)
		if err != nil {
			return err
		}
		fromSchema := fromRel.Schema()
		fkIdx, err := fromSchema.Indices(c.FromAttrs)
		if err != nil {
			return err
		}
		// Referenced attributes are the key (Definition 2.3): project the
		// old key values into the reference's attribute order.
		refVals, err := projectKeyVals(schema, c.ToAttrs, ch.oldKey, keyAttrs)
		if err != nil {
			return err
		}
		newVals, err := projectKeyVals(schema, c.ToAttrs, ch.newKey, keyAttrs)
		if err != nil {
			return err
		}
		refs, err := fromRel.MatchEqual(c.FromAttrs, refVals)
		if err != nil {
			return err
		}
		if len(refs) > 0 {
			if err := rc.checkFKRewriteAllowed(c.From); err != nil {
				return err
			}
		}
		for _, rt := range refs {
			nt := rt.Clone()
			for i, j := range fkIdx {
				nt[j] = newVals[i]
			}
			if err := rc.s.replace(c.From, fromSchema.KeyOf(rt), nt); err != nil {
				return err
			}
			rc.touched = append(rc.touched, relTuple{c.From, nt})
		}
	}
	// Outgoing ownership and subset connections: tuples still connected
	// to the old key follow it (out-of-object dependents; in-object
	// island children were already replaced by the state machine).
	for _, c := range rc.s.g.Outgoing(relName) {
		if c.Type != structural.Ownership && c.Type != structural.Subset {
			continue
		}
		toRel, err := rc.s.relation(c.To)
		if err != nil {
			return err
		}
		toSchema := toRel.Schema()
		tgtIdx, err := toSchema.Indices(c.ToAttrs)
		if err != nil {
			return err
		}
		oldVals, err := projectKeyVals(schema, c.FromAttrs, ch.oldKey, keyAttrs)
		if err != nil {
			return err
		}
		newVals, err := projectKeyVals(schema, c.FromAttrs, ch.newKey, keyAttrs)
		if err != nil {
			return err
		}
		deps, err := toRel.MatchEqual(c.ToAttrs, oldVals)
		if err != nil {
			return err
		}
		for _, dt := range deps {
			nt := dt.Clone()
			for i, j := range tgtIdx {
				nt[j] = newVals[i]
			}
			oldDepKey := toSchema.KeyOf(dt)
			newDepKey := toSchema.KeyOf(nt)
			if err := rc.s.replace(c.To, oldDepKey, nt); err != nil {
				return err
			}
			rc.touched = append(rc.touched, relTuple{c.To, nt})
			if !oldDepKey.Equal(newDepKey) {
				// The dependent's own key changed: recurse.
				if err := rc.propagateOneKeyChange(c.To, keyChange{oldKey: oldDepKey, newKey: newDepKey}); err != nil {
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
	for _, id := range rc.topo.Peninsulas() {
		n, _ := rc.s.def.Node(id)
		if n.Relation != relName {
			continue
		}
		p := rc.s.tr.outsidePolicy(id)
		if !p.Modifiable || !p.AllowModifyExisting {
			return reject("vupdate: %s: key propagation must modify %s, which the translator does not allow",
				rc.s.def.Name, relName)
		}
		return nil
	}
	return nil
}

// projectKeyVals maps key values (in canonical key order, labeled by
// keyAttrs) into the order of the connection attribute list attrs.
func projectKeyVals(schema *reldb.Schema, attrs []string, key reldb.Tuple, keyAttrs []string) (reldb.Tuple, error) {
	out := make(reldb.Tuple, len(attrs))
	for i, a := range attrs {
		found := false
		for k, ka := range keyAttrs {
			if ka == a {
				out[i] = key[k]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("vupdate: connection attribute %s of %s is not a key attribute",
				a, schema.Name())
		}
	}
	return out, nil
}
