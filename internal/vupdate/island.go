// Package vupdate implements the paper's core contribution (§5): translating
// update operations on view-object instances into valid operations on the
// underlying relational database.
//
// A view-object update runs in four logical steps:
//
//  1. local validation against the view-object definition and the
//     translator's authorizations;
//  2. propagation within the view object (key-complement propagation down
//     the dependency island);
//  3. translation into a set of database update operations (algorithms
//     VO-CD, VO-CI, and VO-R);
//  4. global validation against the structural model (cascades outside the
//     object, foreign-key maintenance, dependency repair).
//
// Every operation executes inside one transaction: if any step is rejected,
// the whole view-object update rolls back (§5.1).
//
// The semantics that disambiguate translations are captured in a Translator
// chosen once, at view-object definition time, through a DBA dialog
// (§6; see dialog.go). Once chosen, the translator deterministically
// handles every runtime update request.
package vupdate

import (
	"fmt"
	"slices"
	"sort"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// NodeClass classifies a view-object node for update translation.
type NodeClass uint8

// Node classes.
const (
	// ClassPivot is the pivot node (also part of the dependency island).
	ClassPivot NodeClass = iota
	// ClassIsland marks non-pivot members of the dependency island
	// (Definition 5.1): reachable from the pivot through forward
	// ownership and subset connections only.
	ClassIsland
	// ClassPeninsula marks referencing peninsulas (Definition 5.2):
	// relations of the object directly connected to an island relation by
	// a reference connection.
	ClassPeninsula
	// ClassReferenced marks relations that an island relation references
	// (§5.3 rule 2: key replacements there become insertions).
	ClassReferenced
	// ClassOutside marks every other node.
	ClassOutside
)

// String implements fmt.Stringer.
func (c NodeClass) String() string {
	switch c {
	case ClassPivot:
		return "pivot"
	case ClassIsland:
		return "island"
	case ClassPeninsula:
		return "peninsula"
	case ClassReferenced:
		return "referenced"
	case ClassOutside:
		return "outside"
	default:
		return "unknown"
	}
}

// Topology is the update-relevant classification of a view object's nodes.
type Topology struct {
	Def *viewobject.Definition
	// Class maps node ID to its class.
	Class map[string]NodeClass

	// root is the translation plan of the pivot node; plans holds every
	// node's plan in definition preorder.
	root  *nodePlan
	plans []*nodePlan
	// firstNode maps a relation to its first node in preorder, whose
	// policy gates a repair insertion into it; firstPeninsula maps a
	// relation to its first peninsula node by ID, whose policy gates a
	// deletion or a key propagation that rewrites its tuples.
	firstNode, firstPeninsula map[string]*nodePlan
}

// nodePlan is what the translation algorithms need of one definition
// node, resolved once when the topology is analyzed: the translator is
// fixed at definition time (§6), so no request re-derives an index set
// or a class. The translator's policy maps (Island, Outside, Peninsula)
// are exported and mutable, so they stay run-time reads.
type nodePlan struct {
	node   *viewobject.Node
	schema *reldb.Schema
	class  NodeClass
	island bool
	proj   []int // the projected attributes
	key    []int // the key attributes
	all    []int // every attribute: a pair's sort key encodes these
	// pairing is what VO-R pairs this node's old and new components on:
	// the key complement (the key part not inherited from the parent)
	// for an island child linked by one connection, the full key
	// otherwise.
	pairing []int
	// src and tgt are the parent edge's attributes, in the parent's
	// schema and in this node's; set only for a single-connection path.
	src, tgt []int
	// follows says step 1 rewrites tgt from the parent's src values: an
	// island child inherits its parent's key, and a child referencing
	// its parent carries a system-maintained foreign key.
	follows bool
	kids    []*nodePlan // per position in node.Children
}

// planNode resolves the plan of n (whose parent's plan is parent) and
// of every node below it, appending them to t.plans in preorder.
func (t *Topology) planNode(n *viewobject.Node, parent *nodePlan) *nodePlan {
	schema := t.Def.NodeSchema(n)
	p := &nodePlan{
		node:   n,
		schema: schema,
		class:  t.Class[n.ID],
		island: t.InIsland(n.ID),
		proj:   mustIndices(schema, n.Attrs),
		key:    schema.Key(),
		all:    make([]int, schema.Arity()),
	}
	for i := range p.all {
		p.all[i] = i
	}
	p.pairing = p.key
	if len(n.Path) == 1 {
		e := n.Path[0]
		p.src = mustIndices(parent.schema, e.SourceAttrs())
		p.tgt = mustIndices(schema, e.TargetAttrs())
		p.follows = p.island || (!e.Forward && e.Conn.Type == structural.Reference)
		if p.island {
			var complement []int
			for _, k := range p.key {
				if !slices.Contains(p.tgt, k) {
					complement = append(complement, k)
				}
			}
			if len(complement) > 0 {
				p.pairing = complement
			}
		}
	}
	t.plans = append(t.plans, p)
	for _, c := range n.Children {
		p.kids = append(p.kids, t.planNode(c, p))
	}
	return p
}

// mustIndices resolves attribute names a validated definition holds:
// its projections and the attributes of the connections it crosses.
func mustIndices(schema *reldb.Schema, names []string) []int {
	idx, err := schema.Indices(names)
	if err != nil {
		panic(fmt.Sprintf("vupdate: %v", err)) // definitions are validated against the database
	}
	return idx
}

// planOf returns the plan of a node of the definition.
func (t *Topology) planOf(n *viewobject.Node) *nodePlan {
	for _, p := range t.plans {
		if p.node == n {
			return p
		}
	}
	panic(fmt.Sprintf("vupdate: node %s is not in %s", n.ID, t.Def.Name))
}

// Analyze computes the dependency island, the referencing peninsulas, and
// the remaining node classes of a view object.
func Analyze(def *viewobject.Definition) *Topology {
	t := &Topology{Def: def, Class: make(map[string]NodeClass)}

	// Dependency island (Definition 5.1): maximal subtree rooted at the
	// pivot whose paths consist exclusively of forward ownership and
	// subset connections.
	var mark func(n *viewobject.Node, inIsland bool)
	mark = func(n *viewobject.Node, inIsland bool) {
		if n == def.Root() {
			t.Class[n.ID] = ClassPivot
		} else if inIsland {
			t.Class[n.ID] = ClassIsland
		}
		for _, c := range n.Children {
			childIn := inIsland && islandPath(c.Path)
			if !childIn {
				// Classified in the second pass.
				mark(c, false)
				continue
			}
			mark(c, true)
		}
	}
	mark(def.Root(), true)

	// Island relations (by base relation name) for peninsula detection.
	islandRels := make(map[string]bool)
	for id, cl := range t.Class {
		if cl == ClassPivot || cl == ClassIsland {
			n, _ := def.Node(id)
			islandRels[n.Relation] = true
		}
	}

	g := def.Graph()
	for _, n := range def.Nodes() {
		if _, done := t.Class[n.ID]; done {
			continue
		}
		t.Class[n.ID] = classifyOutside(g, n.Relation, islandRels)
	}
	t.root = t.planNode(def.Root(), nil)
	t.firstNode = make(map[string]*nodePlan)
	for _, p := range t.plans {
		if t.firstNode[p.node.Relation] == nil {
			t.firstNode[p.node.Relation] = p
		}
	}
	t.firstPeninsula = make(map[string]*nodePlan)
	for _, id := range t.Peninsulas() {
		n, _ := def.Node(id)
		if t.firstPeninsula[n.Relation] == nil {
			t.firstPeninsula[n.Relation] = t.planOf(n)
		}
	}
	return t
}

// islandPath reports whether every step of a connection path is a forward
// ownership or forward subset connection.
func islandPath(path []structural.Edge) bool {
	for _, e := range path {
		if !e.Forward {
			return false
		}
		if e.Conn.Type != structural.Ownership && e.Conn.Type != structural.Subset {
			return false
		}
	}
	return len(path) > 0
}

// classifyOutside decides between peninsula, referenced, and outside for a
// non-island relation.
func classifyOutside(g *structural.Graph, rel string, islandRels map[string]bool) NodeClass {
	// Peninsula: rel --> islandRel (Definition 5.2).
	for _, c := range g.Outgoing(rel) {
		if c.Type == structural.Reference && islandRels[c.To] {
			return ClassPeninsula
		}
	}
	// Referenced: islandRel --> rel.
	for _, c := range g.Incoming(rel) {
		if c.Type == structural.Reference && islandRels[c.From] {
			return ClassReferenced
		}
	}
	return ClassOutside
}

// Island returns the node IDs of the dependency island (pivot included),
// sorted.
func (t *Topology) Island() []string {
	return t.idsOf(func(c NodeClass) bool { return c == ClassPivot || c == ClassIsland })
}

// Peninsulas returns the node IDs of the referencing peninsulas, sorted.
func (t *Topology) Peninsulas() []string {
	return t.idsOf(func(c NodeClass) bool { return c == ClassPeninsula })
}

// NonIsland returns the node IDs outside the dependency island, sorted.
func (t *Topology) NonIsland() []string {
	return t.idsOf(func(c NodeClass) bool { return c != ClassPivot && c != ClassIsland })
}

// InIsland reports whether the node is part of the dependency island.
func (t *Topology) InIsland(nodeID string) bool {
	c, ok := t.Class[nodeID]
	return ok && (c == ClassPivot || c == ClassIsland)
}

func (t *Topology) idsOf(keep func(NodeClass) bool) []string {
	var ids []string
	for id, c := range t.Class {
		if keep(c) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
