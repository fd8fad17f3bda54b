package viewobject

import (
	"fmt"
	"sort"
	"strings"

	"penguin/internal/reldb"
)

// Instance is one hierarchical instance of a view object: the pivot tuple
// plus, per child node, the set of connected sub-instances. Instances are
// fully unnormalized entities with atomic-, tuple-, and set-valued
// attributes (§3).
//
// Internally every InstNode carries the full-width tuple of its base
// relation (connecting attributes are needed to assemble and to translate
// updates even when projected out); Projected exposes only the node's
// projection. Hand-built instances (update requests) may leave
// non-projected attributes null — the translation algorithms treat that as
// the paper's "extension with values for the attributes projected out".
//
// A component's tuple slice is never written in place: every mutator
// (SetTuple, and SetAttr through it) installs a freshly allocated slice.
// Clone shares tuples between the copy and the original on the strength
// of that. Assembly from storage adopts the copies a relation hands out
// (adoptNode, fillChildSegment) instead of copying them again.
type Instance struct {
	def  *Definition
	root *InstNode
}

// InstNode is one component tuple of an instance.
type InstNode struct {
	node  *Node
	tuple reldb.Tuple
	// children holds the sub-instances per child node, indexed by the
	// child's position in node.Children; nil until the first child is
	// attached, so a leaf component (most of any instance) carries none.
	children [][]*InstNode
}

// NewInstance creates an instance of def with the given pivot tuple
// (full-width, matching the pivot relation's schema).
func NewInstance(def *Definition, pivotTuple reldb.Tuple) (*Instance, error) {
	root, err := newInstNode(def, def.root, pivotTuple)
	if err != nil {
		return nil, err
	}
	return &Instance{def: def, root: root}, nil
}

// MustNewInstance is NewInstance that panics on error (fixtures).
func MustNewInstance(def *Definition, pivotTuple reldb.Tuple) *Instance {
	i, err := NewInstance(def, pivotTuple)
	if err != nil {
		panic(err)
	}
	return i
}

func newInstNode(def *Definition, n *Node, tuple reldb.Tuple) (*InstNode, error) {
	schema := def.schemaOf(n)
	if err := schema.CheckTuple(tuple); err != nil {
		return nil, fmt.Errorf("viewobject: instance node %s: %w", n.ID, err)
	}
	return &InstNode{node: n, tuple: tuple.Clone()}, nil
}

// adoptNode wraps a pivot tuple a relation just handed out. Unlike
// newInstNode it neither checks the tuple (it was checked when it was
// stored) nor copies it (reldb copies at its boundary); NewInstance,
// AddChild and SetTuple keep doing both, because their tuples come from
// clients. The components below a pivot are adopted the same way, a
// level at a time (fillChildSegment).
func adoptNode(n *Node, tuple reldb.Tuple) *InstNode {
	return &InstNode{node: n, tuple: tuple}
}

// childPos returns the position of the child node childID among the
// node's children, or -1.
func (n *InstNode) childPos(childID string) int {
	for i, c := range n.node.Children {
		if c.ID == childID {
			return i
		}
	}
	return -1
}

// kids returns the sub-instances at child position pos.
func (n *InstNode) kids(pos int) []*InstNode {
	if pos < 0 || n.children == nil {
		return nil
	}
	return n.children[pos]
}

// Definition returns the object this instance belongs to.
func (i *Instance) Definition() *Definition { return i.def }

// Root returns the pivot component.
func (i *Instance) Root() *InstNode { return i.root }

// Key returns the object key of the instance: the pivot tuple's key
// values (Definition 3.2).
func (i *Instance) Key() reldb.Tuple {
	return i.def.schemaOf(i.def.root).KeyOf(i.root.tuple)
}

// EncodedKey returns the object key in the order-preserving key
// encoding (Schema.EncodeKeyOf of the pivot tuple): comparing two
// instances' encoded keys compares their keys.
func (i *Instance) EncodedKey() string {
	return i.def.schemaOf(i.def.root).EncodeKeyOf(i.root.tuple)
}

// Node returns the definition node this component instantiates.
func (n *InstNode) Node() *Node { return n.node }

// Tuple returns a copy of the component's full-width tuple.
func (n *InstNode) Tuple() reldb.Tuple { return n.tuple.Clone() }

// Value returns the i-th value of the component's full-width tuple, in
// the base schema's attribute order: the read that does not copy the
// tuple (values are immutable, so nothing internal can leak).
func (n *InstNode) Value(i int) reldb.Value { return n.tuple[i] }

// Children returns the sub-instances under the given child node ID, in
// insertion order.
func (n *InstNode) Children(childID string) []*InstNode {
	return append([]*InstNode(nil), n.kids(n.childPos(childID))...)
}

// ChildList returns a read-only view of the sub-instances under the
// given child node ID, in insertion order: Children without the copy.
func (n *InstNode) ChildList(childID string) ChildList {
	return ChildList{kids: n.kids(n.childPos(childID))}
}

// ChildList is a read-only view of one child node's sub-instances. It
// exposes length and element access only, so the slice behind it cannot
// be reordered or grown by a reader.
type ChildList struct{ kids []*InstNode }

// Len returns the number of sub-instances.
func (l ChildList) Len() int { return len(l.kids) }

// At returns the i-th sub-instance.
func (l ChildList) At(i int) *InstNode { return l.kids[i] }

// AddChild attaches a sub-instance for the named child node and returns
// it. The child ID must be one of the node's children in the definition;
// the tuple must be full-width for the child's relation.
func (n *InstNode) AddChild(def *Definition, childID string, tuple reldb.Tuple) (*InstNode, error) {
	pos := n.childPos(childID)
	if pos < 0 {
		var have []string
		for _, c := range n.node.Children {
			have = append(have, c.ID)
		}
		return nil, fmt.Errorf("viewobject: node %s has no child %s (have %s)",
			n.node.ID, childID, strings.Join(have, ", "))
	}
	cn, err := newInstNode(def, n.node.Children[pos], tuple)
	if err != nil {
		return nil, err
	}
	if n.children == nil {
		n.children = make([][]*InstNode, len(n.node.Children))
	}
	n.children[pos] = append(n.children[pos], cn)
	return cn, nil
}

// MustAddChild is AddChild that panics on error (fixtures).
func (n *InstNode) MustAddChild(def *Definition, childID string, tuple reldb.Tuple) *InstNode {
	cn, err := n.AddChild(def, childID, tuple)
	if err != nil {
		panic(err)
	}
	return cn
}

// Projected returns the component tuple restricted to the node's
// projection, in the projection's attribute order.
func (n *InstNode) Projected(def *Definition) reldb.Tuple {
	schema := def.schemaOf(n.node)
	idx, err := schema.Indices(n.node.Attrs)
	if err != nil {
		panic(err) // definition validated at construction
	}
	return n.tuple.Project(idx)
}

// NodesAt returns every component instance at the given definition node
// ID, across the whole instance, in document order.
func (i *Instance) NodesAt(nodeID string) []*InstNode {
	var out []*InstNode
	var walk func(n *InstNode)
	walk = func(n *InstNode) {
		if n.node.ID == nodeID {
			out = append(out, n)
		}
		for _, kids := range n.children {
			for _, c := range kids {
				walk(c)
			}
		}
	}
	walk(i.root)
	return out
}

// Count returns the number of component instances at the given node ID.
func (i *Instance) Count(nodeID string) int { return len(i.NodesAt(nodeID)) }

// Clone deep-copies the instance; mutating the copy leaves the original
// untouched. Update requests typically clone the current instance and
// edit the copy.
func (i *Instance) Clone() *Instance {
	return &Instance{def: i.def, root: i.root.clone()}
}

func (n *InstNode) clone() *InstNode {
	// The tuple slice is shared, not copied: values are immutable and
	// every mutation path (SetTuple, and SetAttr through With) installs
	// a freshly allocated slice instead of writing elements in place, so
	// the original and the clone can never observe each other's edits.
	c := &InstNode{node: n.node, tuple: n.tuple}
	if n.children != nil {
		c.children = make([][]*InstNode, len(n.children))
		for pos, kids := range n.children {
			if len(kids) == 0 {
				continue
			}
			ck := make([]*InstNode, len(kids))
			for j, k := range kids {
				ck[j] = k.clone()
			}
			c.children[pos] = ck
		}
	}
	return c
}

// SetTuple replaces the component's tuple (validated against the base
// schema). Used to build replacement requests.
func (n *InstNode) SetTuple(def *Definition, tuple reldb.Tuple) error {
	schema := def.schemaOf(n.node)
	if err := schema.CheckTuple(tuple); err != nil {
		return fmt.Errorf("viewobject: node %s: %w", n.node.ID, err)
	}
	n.tuple = tuple.Clone()
	return nil
}

// SetAttr overwrites one attribute of the component's tuple by name.
func (n *InstNode) SetAttr(def *Definition, attr string, v reldb.Value) error {
	schema := def.schemaOf(n.node)
	idx, ok := schema.AttrIndex(attr)
	if !ok {
		return fmt.Errorf("viewobject: node %s: relation %s has no attribute %s",
			n.node.ID, n.node.Relation, attr)
	}
	nt := n.tuple.With(idx, v)
	return n.SetTuple(def, nt)
}

// Get returns an attribute of the component tuple by name.
func (n *InstNode) Get(def *Definition, attr string) (reldb.Value, bool) {
	schema := def.schemaOf(n.node)
	idx, ok := schema.AttrIndex(attr)
	if !ok {
		return reldb.Null(), false
	}
	return n.tuple[idx], true
}

// Render produces the deterministic text form of the instance used to
// regenerate Figure 4: the pivot tuple followed by nested components,
// projected per the definition.
func (i *Instance) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instance of %s, key %s\n", i.def.Name, i.Key())
	var walk func(n *InstNode, prefix string, last bool, isRoot bool)
	walk = func(n *InstNode, prefix string, last bool, isRoot bool) {
		line := fmt.Sprintf("%s: %s", n.node.ID, n.Projected(i.def))
		if isRoot {
			b.WriteString(line + "\n")
		} else {
			branch := "├─ "
			if last {
				branch = "└─ "
			}
			b.WriteString(prefix + branch + line + "\n")
		}
		childPrefix := prefix
		if !isRoot {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		// Flatten children in definition order, with a stable sort of
		// instances by tuple encoding for determinism.
		lastPos := lastChildPos(n)
		for pos := range n.children {
			kids := append([]*InstNode(nil), n.children[pos]...)
			sort.SliceStable(kids, func(a, b int) bool {
				return kids[a].tuple.Encode() < kids[b].tuple.Encode()
			})
			for j, c := range kids {
				walk(c, childPrefix, j == len(kids)-1 && pos == lastPos, false)
			}
		}
	}
	walk(i.root, "", true, true)
	return b.String()
}

// lastChildPos returns the position of the last child node that
// actually has instances (-1 for none), so tree glyphs close correctly.
func lastChildPos(n *InstNode) int {
	last := -1
	for pos, kids := range n.children {
		if len(kids) > 0 {
			last = pos
		}
	}
	return last
}
