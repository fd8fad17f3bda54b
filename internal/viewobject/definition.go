// Package viewobject implements the paper's view-object model (§3):
// object-based views over a relational database equipped with a structural
// schema. A view object ω is a set of projections over base relations,
// arranged into a tree rooted at a pivot relation whose key becomes the
// object key (Definitions 3.1-3.2).
//
// The package covers the full definition pipeline of Figure 2 —
//
//	subgraph extraction (information metric)  →  Figure 2(a)
//	tree expansion with circuit breaking      →  Figure 2(b)
//	pruning into a configuration              →  Figure 2(c)
//
// — plus instantiation (Figure 4): composing an object query with the
// object's structure, executing it against the database, and assembling
// the resulting relational tuples into hierarchical instances.
package viewobject

import (
	"errors"
	"fmt"
	"strings"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// Node is one projection in a view object's tree: an occurrence of a base
// relation together with the projected attributes and the connection path
// linking it to its parent node. Because pruning may exclude intermediate
// relations, Path can span several connections (Figure 3's COURSES→STUDENT
// edge is a two-connection path through GRADES).
type Node struct {
	// ID uniquely names this node within the definition. It equals the
	// relation name when the relation occurs once, and "REL#k" for
	// further copies.
	ID string
	// Relation is the underlying base relation d(π).
	Relation string
	// Attrs are the projected attribute names, in schema order.
	Attrs []string
	// Path is the connection path from the parent node's relation to this
	// relation. It is nil for the root (pivot) node and has length ≥ 1
	// otherwise.
	Path []structural.Edge
	// Children are the sub-nodes, in definition order.
	Children []*Node

	parent *Node
	// pathSrc[i] and pathTgt[i] are the indices of Path[i]'s source
	// attributes in its source relation's schema and of its target
	// attributes in its target's, resolved when the definition is built.
	pathSrc, pathTgt [][]int
}

// Parent returns the parent node (nil at the root).
func (n *Node) Parent() *Node { return n.parent }

// Definition is a validated view object ω: a tree of projections rooted at
// the pivot relation (Definition 3.2). Definitions are immutable once
// built; instances are produced by Instantiate.
type Definition struct {
	// Name labels the object (ω, ω′, ...).
	Name  string
	graph *structural.Graph
	root  *Node
	byID  map[string]*Node
	// schemas caches each node's base schema so that code running inside
	// a transaction (which holds the database lock) never needs to go
	// through Database.Relation again.
	schemas map[string]*reldb.Schema
	// obsSlot is the object name's slot in obs.Default.Objects, interned
	// at definition time so per-object metric increments (instantiation,
	// §5 pipeline steps) are slot-indexed and allocation-free.
	obsSlot int
}

// MetricSlot returns the object's slot in the obs.Default.Objects label
// dimension — the index every per-object metric family (CounterVec /
// HistogramVec over "object") is addressed with.
func (d *Definition) MetricSlot() int { return d.obsSlot }

// Graph returns the structural schema the object is defined over.
func (d *Definition) Graph() *structural.Graph { return d.graph }

// Root returns the pivot node.
func (d *Definition) Root() *Node { return d.root }

// Pivot returns the pivot relation's name.
func (d *Definition) Pivot() string { return d.root.Relation }

// Node returns the node with the given ID.
func (d *Definition) Node(id string) (*Node, bool) {
	n, ok := d.byID[id]
	return n, ok
}

// Nodes returns every node in preorder (root first).
func (d *Definition) Nodes() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d.root)
	return out
}

// Complexity returns the number of projections in the object
// (Definition 3.1).
func (d *Definition) Complexity() int { return len(d.Nodes()) }

// Key returns the object key: the key attributes of the pivot relation
// (Definition 3.2).
func (d *Definition) Key() []string {
	return d.schemaOf(d.root).KeyNames()
}

// ErrFieldCollision is wrapped by NewDefinition's error for a node one
// of whose projected attributes has the name of one of its child nodes'
// IDs. An instance document (serve.InstanceDoc) keys a component's
// attributes and its child lists in one object, so the two would be one
// field: the attribute would vanish from the document and come back
// null from a client that returned the document unchanged.
var ErrFieldCollision = errors.New("attribute and child node share a document field name")

// NewDefinition validates and assembles a definition from a hand-built
// node tree. Most callers construct definitions through Tree.Configure
// (the Figure 2 pipeline); this constructor serves tests and programmatic
// object construction. Validation enforces:
//
//   - the pivot projection includes every key attribute of the pivot
//     relation (Definition 3.2);
//   - no node other than the root is defined on the pivot relation;
//   - every node's attributes exist in its relation;
//   - every non-root node's path is nonempty, connects its parent's
//     relation to its own, and uses connections of the structural schema;
//   - node IDs are unique;
//   - no node projects an attribute named like one of its children's IDs
//     (ErrFieldCollision).
func NewDefinition(name string, g *structural.Graph, root *Node) (*Definition, error) {
	if root == nil {
		return nil, fmt.Errorf("viewobject: %s: nil root", name)
	}
	if len(root.Path) != 0 {
		return nil, fmt.Errorf("viewobject: %s: root must have an empty path", name)
	}
	d := &Definition{
		Name: name, graph: g, root: root,
		byID:    make(map[string]*Node),
		schemas: make(map[string]*reldb.Schema),
		obsSlot: obs.Default.Objects.Intern(name),
	}
	db := g.Database()

	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n != root && n.Relation == root.Relation {
			return fmt.Errorf("viewobject: %s: node %s is defined on the pivot relation %s (Definition 3.2 forbids this)",
				name, n.ID, root.Relation)
		}
		if n.ID == "" {
			n.ID = n.Relation
		}
		if _, dup := d.byID[n.ID]; dup {
			return fmt.Errorf("viewobject: %s: duplicate node ID %s", name, n.ID)
		}
		d.byID[n.ID] = n
		rel, err := db.Relation(n.Relation)
		if err != nil {
			return fmt.Errorf("viewobject: %s: node %s: %w", name, n.ID, err)
		}
		schema := rel.Schema()
		d.schemas[n.ID] = schema
		if len(n.Attrs) == 0 {
			n.Attrs = schema.AttrNames()
		}
		if _, err := schema.Indices(n.Attrs); err != nil {
			return fmt.Errorf("viewobject: %s: node %s: %w", name, n.ID, err)
		}
		if n != root {
			if len(n.Path) == 0 {
				return fmt.Errorf("viewobject: %s: node %s has no connection path", name, n.ID)
			}
			cur := n.parent.Relation
			n.pathSrc, n.pathTgt = make([][]int, len(n.Path)), make([][]int, len(n.Path))
			for i, e := range n.Path {
				if e.Conn == nil {
					return fmt.Errorf("viewobject: %s: node %s path step %d has no connection", name, n.ID, i)
				}
				if found, ok := g.Connection(e.Conn.Name); !ok || found != e.Conn {
					return fmt.Errorf("viewobject: %s: node %s path step %d uses connection %q not in the structural schema",
						name, n.ID, i, e.Conn.Name)
				}
				if e.Source() != cur {
					return fmt.Errorf("viewobject: %s: node %s path step %d starts at %s, want %s",
						name, n.ID, i, e.Source(), cur)
				}
				src, err := db.Relation(cur)
				if err != nil {
					return fmt.Errorf("viewobject: %s: node %s: %w", name, n.ID, err)
				}
				if n.pathSrc[i], err = src.Schema().Indices(e.SourceAttrs()); err != nil {
					return fmt.Errorf("viewobject: %s: node %s path step %d: %w", name, n.ID, i, err)
				}
				cur = e.Target()
				tgt, err := db.Relation(cur)
				if err != nil {
					return fmt.Errorf("viewobject: %s: node %s: %w", name, n.ID, err)
				}
				if n.pathTgt[i], err = tgt.Schema().Indices(e.TargetAttrs()); err != nil {
					return fmt.Errorf("viewobject: %s: node %s path step %d: %w", name, n.ID, i, err)
				}
			}
			if cur != n.Relation {
				return fmt.Errorf("viewobject: %s: node %s path ends at %s, want %s",
					name, n.ID, cur, n.Relation)
			}
		}
		for _, c := range n.Children {
			c.parent = n
			if err := walk(c); err != nil {
				return err
			}
			// c.ID is settled now (walk defaults it to the relation name).
			for _, a := range n.Attrs {
				if a == c.ID {
					return fmt.Errorf("viewobject: %s: node %s: projected attribute %s and child node %s (on %s): %w",
						name, n.ID, a, c.ID, c.Relation, ErrFieldCollision)
				}
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}

	// Definition 3.2: the pivot projection must include the whole key.
	pivotSchema := db.MustRelation(root.Relation).Schema()
	for _, kn := range pivotSchema.KeyNames() {
		found := false
		for _, a := range root.Attrs {
			if a == kn {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("viewobject: %s: pivot projection must include key attribute %s of %s",
				name, kn, root.Relation)
		}
	}
	return d, nil
}

// MustDefinition is NewDefinition that panics on error (fixtures).
func MustDefinition(name string, g *structural.Graph, root *Node) *Definition {
	d, err := NewDefinition(name, g, root)
	if err != nil {
		panic(err)
	}
	return d
}

// schemaOf returns the base schema of a node's relation, from the cache
// built at definition time (safe inside transactions).
func (d *Definition) schemaOf(n *Node) *reldb.Schema {
	return d.schemas[n.ID]
}

// NodeSchema returns the base schema of a node's relation. The schema is
// cached at definition time, so the call is safe inside a transaction
// that holds the database lock.
func (d *Definition) NodeSchema(n *Node) *reldb.Schema { return d.schemaOf(n) }

// Render produces the deterministic text form of the definition used by
// the figure generator: one line per node showing depth, connection path,
// and projected attributes, e.g.
//
//	COURSES (CourseID, Title, DeptName, Units, Level)
//	├─ --> DEPARTMENT (DeptName, Building)
//	└─ --* GRADES (CourseID, PID, Grade)
//	   └─ inv(--*) STUDENT (PID, Degree)
func (d *Definition) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "view object %s (pivot %s, key %s, complexity %d)\n",
		d.Name, d.Pivot(), strings.Join(d.Key(), ","), d.Complexity())
	var walk func(n *Node, prefix string, last bool)
	walk = func(n *Node, prefix string, last bool) {
		if n == d.root {
			fmt.Fprintf(&b, "%s (%s)\n", n.ID, strings.Join(n.Attrs, ", "))
		} else {
			branch := "├─ "
			if last {
				branch = "└─ "
			}
			fmt.Fprintf(&b, "%s%s%s %s (%s)\n", prefix, branch, pathLabel(n.Path), n.ID, strings.Join(n.Attrs, ", "))
		}
		childPrefix := prefix
		if n != d.root {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1)
		}
	}
	walk(d.root, "", true)
	return b.String()
}

// pathLabel renders a connection path compactly: one symbol per edge.
func pathLabel(path []structural.Edge) string {
	parts := make([]string, len(path))
	for i, e := range path {
		sym := e.Conn.Type.Symbol()
		if !e.Forward {
			sym = "inv(" + sym + ")"
		}
		parts[i] = sym
	}
	return strings.Join(parts, "·")
}
