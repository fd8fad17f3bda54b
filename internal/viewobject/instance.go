package viewobject

import (
	"fmt"
	"slices"
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
// A component holds its tuple as a read-only reldb.Row. An assembled
// instance holds the stored rows themselves, as the relations hand them
// out (adoptNode, fillChildSegment); a client's tuple enters as a copy
// (NewInstance, AddChild, BuildInstance, SetTuple, and SetAttr through
// it). Nothing can write a Row, so Clone shares rows between the copy
// and the original, and an edit installs a new one.
type Instance struct {
	def  *Definition
	root *InstNode
}

// InstNode is one component tuple of an instance.
type InstNode struct {
	node *Node
	row  reldb.Row
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
	if err := checkComponent(def, n, tuple); err != nil {
		return nil, err
	}
	return &InstNode{node: n, row: reldb.RowOf(tuple)}, nil
}

// checkComponent checks a client's tuple for a component of node n.
func checkComponent(def *Definition, n *Node, tuple reldb.Tuple) error {
	if err := def.schemaOf(n).CheckTuple(tuple); err != nil {
		return fmt.Errorf("viewobject: instance node %s: %w", n.ID, err)
	}
	return nil
}

// BuildInstance builds an instance of def from its n components, given
// in preorder: component(i) returns the i-th one's definition node, the
// position of its parent component (-1 for the pivot, which comes
// first; a parent precedes its children, and siblings come in order)
// and its full-width tuple. Every tuple is checked as NewInstance and
// AddChild check it, and the first failure in preorder is the error.
// The instance is built in one allocation per kind: the components in
// one slab, every value copied into one backing array (reldb.CopyRows),
// the child lists carved from one pointer array — each a full-capacity
// slice, so a later AddChild reallocates instead of writing into a
// neighbour. The caller's tuples are not retained.
func BuildInstance(def *Definition, n int, component func(i int) (node *Node, parent int, tuple reldb.Tuple)) (*Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("viewobject: %s: an instance needs its pivot component", def.Name)
	}
	slab := make([]InstNode, n)
	// Pass 1 checks every component and sizes the arrays: list[i] is the
	// child-list header component i goes into, base[p] one past the first
	// header of component p's lists (0 while it has no child), count[h]
	// the length of list h.
	scratch := make([]int, 2*n, 3*n)
	list, base, count := scratch[:n], scratch[n:], scratch[2*n:]
	tuples := make([]reldb.Tuple, n)
	for i := range slab {
		node, parent, tuple := component(i)
		if i == 0 {
			if node != def.root || parent != -1 {
				return nil, fmt.Errorf("viewobject: %s: the first component must be the pivot", def.Name)
			}
		} else {
			if parent < 0 || parent >= i {
				return nil, fmt.Errorf("viewobject: %s: component %d: parent %d does not precede it", def.Name, i, parent)
			}
			p := &slab[parent]
			pos := slices.Index(p.node.Children, node)
			if pos < 0 {
				return nil, noChild(p.node, node.ID)
			}
			if base[parent] == 0 {
				base[parent] = len(count) + 1
				for range p.node.Children {
					count = append(count, 0)
				}
			}
			list[i] = base[parent] - 1 + pos
			count[list[i]]++
		}
		if err := checkComponent(def, node, tuple); err != nil {
			return nil, err
		}
		slab[i].node, tuples[i] = node, tuple
	}
	// Pass 2 copies the tuples and links every component into its list.
	rows := reldb.CopyRows(tuples)
	ptrs := make([]*InstNode, n-1)
	heads := make([][]*InstNode, len(count))
	off := 0
	for h, c := range count {
		heads[h] = ptrs[off : off : off+c]
		off += c
	}
	for i := range slab {
		in := &slab[i]
		in.row = rows[i]
		if b := base[i]; b > 0 {
			w := len(in.node.Children)
			in.children = heads[b-1 : b-1+w : b-1+w]
		}
		if i > 0 {
			heads[list[i]] = append(heads[list[i]], in)
		}
	}
	return &Instance{def: def, root: &slab[0]}, nil
}

// adoptNode wraps a pivot row a relation just handed out. Unlike
// newInstNode it neither checks the row (it was checked when it was
// stored) nor copies it (a Row is read-only); NewInstance, AddChild and
// SetTuple keep doing both, because their tuples come from clients. The
// components below a pivot are adopted the same way, a level at a time
// (fillChildSegment).
func adoptNode(n *Node, row reldb.Row) *InstNode {
	return &InstNode{node: n, row: row}
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
	return i.root.row.Key(i.def.schemaOf(i.def.root))
}

// EncodedKey returns the object key in the order-preserving key
// encoding (Schema.EncodeKeyOf of the pivot tuple): comparing two
// instances' encoded keys compares their keys.
func (i *Instance) EncodedKey() string {
	return i.root.row.EncodeKey(i.def.schemaOf(i.def.root))
}

// Node returns the definition node this component instantiates.
func (n *InstNode) Node() *Node { return n.node }

// Row returns the component's full-width row, read-only: for an
// assembled instance, the stored row itself.
func (n *InstNode) Row() reldb.Row { return n.row }

// Value returns the i-th value of the component's full-width row, in
// the base schema's attribute order.
func (n *InstNode) Value(i int) reldb.Value { return n.row.At(i) }

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
		return nil, noChild(n.node, childID)
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

// noChild is the error for a component under n whose node is not one
// of n's children.
func noChild(n *Node, childID string) error {
	var have []string
	for _, c := range n.Children {
		have = append(have, c.ID)
	}
	return fmt.Errorf("viewobject: node %s has no child %s (have %s)",
		n.ID, childID, strings.Join(have, ", "))
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
	return n.row.Project(idx)
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
// edit the copy. The copy's components are built in one slab, their
// child lists carved out of one pointer array. Rows are shared, not
// copied: a Row is read-only, and every edit (SetTuple, and SetAttr
// through it) installs a new one, so the original and the clone can
// never observe each other's edits.
func (i *Instance) Clone() *Instance {
	nodes, lists := i.root.size()
	c := slabCloner{
		slab:  make([]InstNode, nodes),
		ptrs:  make([]*InstNode, nodes-1),
		heads: make([][]*InstNode, lists),
	}
	return &Instance{def: i.def, root: c.copy(i.root)}
}

// cloneAll clones every instance of src, as Clone does, into one slab of
// components, one pointer array, one array of child-list headers and one
// array of instances: a cache hit over many instances allocates as one
// clone does. It returns nil for no instances.
func cloneAll(src []*Instance) []*Instance {
	if len(src) == 0 {
		return nil
	}
	nodes, lists := 0, 0
	for _, inst := range src {
		n, l := inst.root.size()
		nodes, lists = nodes+n, lists+l
	}
	c := slabCloner{
		slab:  make([]InstNode, nodes),
		ptrs:  make([]*InstNode, nodes-len(src)),
		heads: make([][]*InstNode, lists),
	}
	insts := make([]Instance, len(src))
	out := make([]*Instance, len(src))
	for i, inst := range src {
		insts[i] = Instance{def: inst.def, root: c.copy(inst.root)}
		out[i] = &insts[i]
	}
	return out
}

// size counts the components of the subtree at n and the child-list
// headers they carry.
func (n *InstNode) size() (nodes, lists int) {
	nodes, lists = 1, len(n.children)
	for _, kids := range n.children {
		for _, k := range kids {
			kn, kl := k.size()
			nodes += kn
			lists += kl
		}
	}
	return nodes, lists
}

// slabCloner hands out the remaining slab, pointer and header space of
// a Clone.
type slabCloner struct {
	slab  []InstNode
	ptrs  []*InstNode
	heads [][]*InstNode
}

func (c *slabCloner) copy(src *InstNode) *InstNode {
	dst := &c.slab[0]
	c.slab = c.slab[1:]
	dst.node, dst.row = src.node, src.row
	if src.children == nil {
		return dst
	}
	w := len(src.children)
	dst.children, c.heads = c.heads[:w:w], c.heads[w:]
	for pos, kids := range src.children {
		if len(kids) == 0 {
			continue
		}
		// Full capacity: a later AddChild reallocates the list instead of
		// writing into a neighbour's.
		list := c.ptrs[:len(kids):len(kids)]
		c.ptrs = c.ptrs[len(kids):]
		for j, k := range kids {
			list[j] = c.copy(k)
		}
		dst.children[pos] = list
	}
	return dst
}

// SetTuple replaces the component's tuple (validated against the base
// schema). Used to build replacement requests.
func (n *InstNode) SetTuple(def *Definition, tuple reldb.Tuple) error {
	schema := def.schemaOf(n.node)
	if err := schema.CheckTuple(tuple); err != nil {
		return fmt.Errorf("viewobject: node %s: %w", n.node.ID, err)
	}
	n.row = reldb.RowOf(tuple)
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
	nt := n.row.Tuple()
	nt[idx] = v
	return n.SetTuple(def, nt)
}

// Get returns an attribute of the component tuple by name.
func (n *InstNode) Get(def *Definition, attr string) (reldb.Value, bool) {
	schema := def.schemaOf(n.node)
	idx, ok := schema.AttrIndex(attr)
	if !ok {
		return reldb.Null(), false
	}
	return n.row.At(idx), true
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
				return kids[a].row.Encode() < kids[b].row.Encode()
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
