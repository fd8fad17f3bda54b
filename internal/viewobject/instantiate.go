package viewobject

import (
	"fmt"
	"time"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// Query is a declarative request over a view object (the paper's query
// model, §3). It combines a selection on the pivot relation, existential
// predicates on component nodes, and cardinality conditions on component
// sets — enough to express Figure 4's "graduate courses with less than 5
// students having enrolled":
//
//	Query{
//	    PivotPred:  reldb.Eq("Level", reldb.String("graduate")),
//	    CountConds: []CountCond{{NodeID: "STUDENT", Op: reldb.OpLt, N: 5}},
//	}
type Query struct {
	// PivotPred filters pivot tuples; nil selects all. It is evaluated
	// against the pivot relation's full schema.
	PivotPred reldb.Expr
	// NodePreds keep an instance only if, for each entry, at least one
	// component at the node satisfies the predicate.
	NodePreds []NodePred
	// CountConds keep an instance only if, for each entry, the number of
	// components at the node compares as requested.
	CountConds []CountCond
}

// NodePred is an existential predicate on a component node.
type NodePred struct {
	NodeID string
	Pred   reldb.Expr
}

// CountCond compares the number of components at a node with a constant.
type CountCond struct {
	NodeID string
	Op     reldb.CmpOp
	N      int
}

// Instantiate composes the query with the object's structure, executes it
// against the database reachable through res, and assembles the matching
// hierarchical instances (Figure 4). Results are in pivot-key order.
// Assembly runs on the caller's goroutine.
func Instantiate(res structural.Resolver, def *Definition, q Query) ([]*Instance, error) {
	return InstantiateOp(res, def, q, obs.Op{})
}

// InstantiateOp is Instantiate under a causal trace context: the
// instantiation becomes a child span of parent when parent is active
// (e.g. a materializer rebuild inside a traced serve) and a root span
// of its own when the flight recorder is on but parent is not. A failed
// instantiation finishes its span too (detail err=…): the failures are
// the traces one wants.
func InstantiateOp(res structural.Resolver, def *Definition, q Query, parent obs.Op) ([]*Instance, error) {
	start := time.Now()
	op := obs.Default.OpUnder(parent, "viewobject.instantiate")
	out, err := instantiate(res, def, q)
	if err != nil {
		if op.Active() {
			op.Finish(fmt.Sprintf("object=%s err=%v", def.Name, err))
		}
		return nil, err
	}
	obs.Default.InstCallsByObject.At(def.obsSlot).Inc()
	obs.Default.InstantiateNsByObject.At(def.obsSlot).Observe(time.Since(start).Nanoseconds())
	if op.Active() {
		op.Finish(fmt.Sprintf("object=%s instances=%d", def.Name, len(out)))
	}
	return out, nil
}

// instantiate selects the pivots, assembles their instances and keeps
// those satisfying the query's node predicates and count conditions.
func instantiate(res structural.Resolver, def *Definition, q Query) ([]*Instance, error) {
	pivotRel, err := res.Relation(def.Pivot())
	if err != nil {
		return nil, err
	}
	pivots, scanned, err := pivotSelect(pivotRel, q.PivotPred)
	if err != nil {
		return nil, fmt.Errorf("viewobject: %s: pivot selection: %w", def.Name, err)
	}
	// Counted only on success: an errored selection did not complete.
	obs.Default.InstTuplesByObject.At(def.obsSlot).Add(scanned)
	instances, err := assembleBatch(res, def, pivots)
	if err != nil {
		return nil, err
	}
	var out []*Instance
	for _, inst := range instances {
		keep, err := inst.matches(q)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, inst)
		}
	}
	return out, nil
}

// pivotSelect picks the pivot tuples satisfying pred, in primary-key
// order, and reports how many stored tuples the selection visited.
// Relation.SelectStats plans the predicate — a probe or range walk
// charges the tuples it visits, a scan the whole relation. The naive
// reference assembler the differential tests keep shares this
// selection, so its pivot set (and scan accounting) is identical by
// construction.
func pivotSelect(pivotRel *reldb.Relation, pred reldb.Expr) ([]reldb.Row, int64, error) {
	var st reldb.MatchStats
	pivots, err := pivotRel.SelectStats(pred, &st)
	return pivots, int64(st.Scanned), err
}

// assembleBatch runs the batched level-at-a-time assembly over a slice
// of pivot rows: create every root first, then fill the whole forest
// level-at-a-time so all pivots' children at the same definition node
// come from one batched fetch. The pivots, like every row the traversal
// fetches below them, come straight from a relation and are adopted,
// not re-checked (see adoptNode).
func assembleBatch(res structural.Resolver, def *Definition, pivots []reldb.Row) ([]*Instance, error) {
	if len(pivots) == 0 {
		return nil, nil
	}
	instances := make([]*Instance, len(pivots))
	roots := make([]*InstNode, len(pivots))
	for i, pt := range pivots {
		roots[i] = adoptNode(def.root, pt)
		instances[i] = &Instance{def: def, root: roots[i]}
	}
	obs.Default.InstNodesByObject.At(def.obsSlot).Add(int64(len(roots))) // the root components
	if err := fillLevel(res, def, roots); err != nil {
		return nil, err
	}
	return instances, nil
}

// InstantiateByKey assembles the single instance whose object key equals
// key, or reports ok=false if the pivot tuple does not exist.
func InstantiateByKey(res structural.Resolver, def *Definition, key reldb.Tuple) (*Instance, bool, error) {
	return InstantiateByKeyOp(res, def, key, obs.Op{})
}

// InstantiateByKeyOp is InstantiateByKey under a causal trace context
// (see InstantiateOp).
func InstantiateByKeyOp(res structural.Resolver, def *Definition, key reldb.Tuple, parent obs.Op) (*Instance, bool, error) {
	start := time.Now()
	op := obs.Default.OpUnder(parent, "viewobject.instantiate_by_key")
	inst, err := instantiateByKey(res, def, key)
	if err != nil || inst == nil {
		if op.Active() {
			outcome := "absent"
			if err != nil {
				outcome = "err=" + err.Error()
			}
			op.Finish(fmt.Sprintf("object=%s key=%s %s", def.Name, key, outcome))
		}
		return nil, false, err
	}
	obs.Default.InstCallsByObject.At(def.obsSlot).Inc()
	obs.Default.InstantiateNsByObject.At(def.obsSlot).Observe(time.Since(start).Nanoseconds())
	if op.Active() {
		op.Finish(fmt.Sprintf("object=%s key=%s", def.Name, key))
	}
	return inst, true, nil
}

// instantiateByKey assembles the instance at key, or returns nil when
// the pivot tuple does not exist.
func instantiateByKey(res structural.Resolver, def *Definition, key reldb.Tuple) (*Instance, error) {
	pivotRel, err := res.Relation(def.Pivot())
	if err != nil {
		return nil, err
	}
	pt, ok := pivotRel.Get(key)
	obs.Default.InstTuplesByObject.At(def.obsSlot).Inc() // the keyed pivot lookup
	if !ok {
		return nil, nil
	}
	instances, err := assembleBatch(res, def, []reldb.Row{pt})
	if err != nil {
		return nil, err
	}
	return instances[0], nil
}

// fillLevel assembles the components below parents level-at-a-time. All
// parents sit at the same definition node; for each child node, the
// connecting paths of every parent are crossed together (one batched
// lookup per path edge for the whole level) and the results distributed
// back, preserving the per-parent key ordering and dedup semantics of the
// naive path. The freshly built level then recurses as one batch.
func fillLevel(res structural.Resolver, def *Definition, parents []*InstNode) error {
	if len(parents) == 0 {
		return nil
	}
	for _, child := range parents[0].node.Children {
		level, err := fillChildSegment(res, def, parents, child)
		if err != nil {
			return err
		}
		obs.Default.LevelFanOut.Observe(int64(len(level)))
		if err := fillLevel(res, def, level); err != nil {
			return err
		}
	}
	return nil
}

// fillChildSegment builds every parent's children at one definition
// node: one batched traversal for the whole level, results attached in
// per-parent key order. The level's components are built in three
// allocations: a slab of nodes; a slice of pointers to them, which is
// the next level's parent set and out of which each parent's child list
// is carved; and the child-list headers of the parents that had none.
// Every carved slice is full-capacity, so a later AddChild reallocates
// it and never writes into a neighbour's.
func fillChildSegment(res structural.Resolver, def *Definition, parents []*InstNode, child *Node) ([]*InstNode, error) {
	var st reldb.MatchStats
	perParent, err := traverseLevel(res, parents, child, &st)
	if err != nil {
		return nil, fmt.Errorf("viewobject: %s: node %s: %w", def.Name, child.ID, err)
	}
	obs.Default.InstTuplesByObject.At(def.obsSlot).Add(int64(st.Scanned))
	total, headless := 0, 0
	for i, tuples := range perParent {
		total += len(tuples)
		if len(tuples) > 0 && parents[i].children == nil {
			headless++
		}
	}
	if total == 0 {
		return nil, nil
	}
	pos, width := parents[0].childPos(child.ID), len(parents[0].node.Children)
	slab := make([]InstNode, total)
	level := make([]*InstNode, total)
	headers := make([][]*InstNode, headless*width)
	k := 0
	for i, p := range parents {
		lo := k
		for _, t := range perParent[i] {
			slab[k] = InstNode{node: child, row: t}
			level[k] = &slab[k]
			k++
		}
		if k == lo {
			continue
		}
		if p.children == nil {
			p.children, headers = headers[:width:width], headers[width:]
		}
		p.children[pos] = level[lo:k:k]
	}
	obs.Default.InstNodesByObject.At(def.obsSlot).Add(int64(total))
	return level, nil
}

// traverseLevel follows child's connection path for many source nodes
// at once. The result is aligned with parents: out[i] holds the distinct
// rows parents[i] reaches at the far end, in the same order the naive
// TraversePath would produce (per-step key order, first-seen dedup).
// Each edge costs one batched lookup for the whole level. The result
// slices may be shared between parents with equal connecting values
// (see structural.ConnectedViaBatchStats); callers only read them.
func traverseLevel(res structural.Resolver, parents []*InstNode, child *Node, st *reldb.MatchStats) ([][]reldb.Row, error) {
	path := child.Path
	// First edge: each parent's frontier is its own row, so the batch
	// is the parents' rows and its results align with parents as they
	// stand — one probe of one relation cannot return a key twice, so
	// there is nothing to deduplicate either.
	flat := make([]reldb.Row, len(parents))
	for i, p := range parents {
		flat[i] = p.row
	}
	frontiers, err := structural.ConnectedViaBatchStats(res, path[0], child.pathSrc[0], child.pathTgt[0], flat, st)
	if err != nil {
		return nil, err
	}
	obs.Default.BatchedLookups.Inc()
	if len(path) == 1 {
		return frontiers, nil
	}
	offs := make([]int, len(parents)+1)
	// One dedupe set and one key buffer serve every parent of every edge.
	seen := make(map[string]bool)
	for step, e := range path[1:] {
		// Flatten the per-parent frontiers, remembering each parent's
		// segment so results can be distributed back.
		flat = flat[:0]
		for i, fr := range frontiers {
			offs[i] = len(flat)
			flat = append(flat, fr...)
		}
		offs[len(parents)] = len(flat)
		if len(flat) == 0 {
			break
		}
		results, err := structural.ConnectedViaBatchStats(res, e, child.pathSrc[step+1], child.pathTgt[step+1], flat, st)
		if err != nil {
			return nil, err
		}
		obs.Default.BatchedLookups.Inc()
		tgtRel, err := res.Relation(e.Target())
		if err != nil {
			return nil, err
		}
		// A stored row's key is a prefix of its string: deduplicating by
		// it encodes and allocates nothing.
		tgtSchema := tgtRel.Schema()
		for i := range parents {
			if offs[i+1]-offs[i] == 1 {
				// A single-tuple frontier is again one probe.
				frontiers[i] = results[offs[i]]
				continue
			}
			clear(seen)
			var next []reldb.Row
			for _, matches := range results[offs[i]:offs[i+1]] {
				for _, mt := range matches {
					ek := mt.EncodeKey(tgtSchema)
					if seen[ek] {
						continue
					}
					seen[ek] = true
					next = append(next, mt)
				}
			}
			frontiers[i] = next
		}
	}
	return frontiers, nil
}

// TraversePath follows a connection path starting from one source row
// and returns the distinct rows reached at the far end, in key order at
// each step. Intermediate relations contribute join steps only; their
// rows are not returned.
func TraversePath(res structural.Resolver, start reldb.Row, path []structural.Edge) ([]reldb.Row, error) {
	return traversePath(res, start, path, nil)
}

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
			matches, err := structural.ConnectedViaStats(res, e, ft, st)
			if err != nil {
				return nil, err
			}
			for _, mt := range matches {
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

// matches evaluates the query's node predicates and count conditions
// against an assembled instance.
func (i *Instance) matches(q Query) (bool, error) {
	for _, np := range q.NodePreds {
		node, ok := i.def.Node(np.NodeID)
		if !ok {
			return false, fmt.Errorf("viewobject: %s: query references unknown node %s", i.def.Name, np.NodeID)
		}
		schema := i.def.schemaOf(node)
		sat := false
		for _, in := range i.NodesAt(np.NodeID) {
			ok, err := reldb.EvalBool(np.Pred, schema, in.row)
			if err != nil {
				return false, fmt.Errorf("viewobject: %s: node predicate on %s: %w", i.def.Name, np.NodeID, err)
			}
			if ok {
				sat = true
				break
			}
		}
		if !sat {
			return false, nil
		}
	}
	for _, cc := range q.CountConds {
		if _, ok := i.def.Node(cc.NodeID); !ok {
			return false, fmt.Errorf("viewobject: %s: query counts unknown node %s", i.def.Name, cc.NodeID)
		}
		n := i.Count(cc.NodeID)
		cmp := reldb.Cmp{Op: cc.Op, L: reldb.Const{V: reldb.Int(int64(n))}, R: reldb.Const{V: reldb.Int(int64(cc.N))}}
		ok, err := reldb.EvalBool(cmp, nil, reldb.Row{})
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
