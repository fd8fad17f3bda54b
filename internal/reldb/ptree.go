package reldb

import (
	"slices"
	"sort"
	"strings"

	"penguin/internal/obs"
)

// ptree is the one storage structure of a relation: a path-copying B+tree
// from encoded key to stored tuple. A relation's rows live in one
// (EncodeKey(pk) → tuple) and each secondary index in another
// (EncodeValues(indexed attrs…)+pk encoding → the same shared tuple), so
// key order, bucket order and range order all come from the structure.
//
// Versions share structure. Copying a ptree value copies a root pointer;
// a version that wants to write owns a treeOwner token and copies a node
// the first time it touches it (stamping the copy with its token), after
// which it mutates that node in place. A node whose token no live version
// holds is immutable for good — that is what freezing a version means
// (Relation.freeze drops the token; nothing in the tree is written).
type ptree struct {
	root *treeNode
	n    int
}

// treeFanout is the most entries (leaf) or children (branch) a node
// holds; a node that drops below treeMinFill is refilled from a sibling.
// Chosen once by measurement on the 2-vCPU reference host (100k rows of
// 9-byte keys plus one index, random point Get against a one-row replace
// commit): 16 copies 7.3 KB per commit but adds a level, Get 1.0-1.3 us;
// 32 copies 10.4 KB, Get 0.71-0.80 us; 64 copies 14.9 KB for the same Get.
const (
	treeFanout  = 32
	treeMinFill = treeFanout / 4
)

// treeOwner is the identity of one writable version; non-zero size so
// distinct tokens have distinct addresses.
type treeOwner struct{ _ byte }

// treeNode is a leaf (kids == nil: keys[i] → vals[i]) or a branch
// (len(kids) == len(keys)+1; every key under kids[i] is < keys[i], every
// key under kids[i+1] is >= keys[i]).
type treeNode struct {
	owner *treeOwner
	keys  []string
	vals  []Tuple
	kids  []*treeNode
}

func (n *treeNode) size() int {
	if n.kids != nil {
		return len(n.kids)
	}
	return len(n.keys)
}

// search returns the position of the first key >= key and whether it
// equals key.
func (n *treeNode) search(key string) (int, bool) {
	i := sort.SearchStrings(n.keys, key)
	return i, i < len(n.keys) && n.keys[i] == key
}

// childFor returns the index of the child whose subtree covers key.
func (n *treeNode) childFor(key string) int {
	i, eq := n.search(key)
	if eq {
		i++
	}
	return i
}

// newNode allocates a node with room for n entries.
func newNode(o *treeOwner, leaf bool, n int) *treeNode {
	c := &treeNode{owner: o, keys: make([]string, 0, n)}
	if leaf {
		c.vals = make([]Tuple, 0, n)
	} else {
		c.kids = make([]*treeNode, 0, n)
	}
	return c
}

// editable returns n if o already owns it, else a copy o owns, sized for
// the one insert that usually follows: a commit touches a node once, and
// what it copies is what it allocates.
func (n *treeNode) editable(o *treeOwner) *treeNode {
	if n.owner == o {
		return n
	}
	obs.Default.TreeNodeCopies.Inc()
	c := newNode(o, n.kids == nil, len(n.keys)+2)
	c.keys = append(c.keys, n.keys...)
	c.vals = append(c.vals, n.vals...)
	c.kids = append(c.kids, n.kids...)
	return c
}

func (t *ptree) get(key string) (Tuple, bool) {
	n := t.root
	if n == nil {
		return nil, false
	}
	for n.kids != nil {
		n = n.kids[n.childFor(key)]
	}
	if i, ok := n.search(key); ok {
		return n.vals[i], true
	}
	return nil, false
}

// put stores v under key, inserting or overwriting.
func (t *ptree) put(o *treeOwner, key string, v Tuple) {
	if t.root == nil {
		t.root = newNode(o, true, 1)
	}
	t.root = t.root.editable(o)
	added, sep, right := t.root.put(o, key, v)
	if added {
		t.n++
	}
	if right != nil {
		left := t.root
		t.root = newNode(o, false, 2)
		t.root.keys = append(t.root.keys, sep)
		t.root.kids = append(t.root.kids, left, right)
	}
}

// put inserts into the subtree under n, which o owns. When n overflows it
// splits and returns the separator and the new right sibling.
func (n *treeNode) put(o *treeOwner, key string, v Tuple) (added bool, sep string, right *treeNode) {
	if n.kids == nil {
		i, found := n.search(key)
		if found {
			n.vals[i] = v
			return false, "", nil
		}
		n.keys = slices.Insert(n.keys, i, key)
		n.vals = slices.Insert(n.vals, i, v)
		if len(n.keys) > treeFanout {
			sep, right = n.split(o, i == treeFanout)
		}
		return true, sep, right
	}
	i := n.childFor(key)
	c := n.kids[i].editable(o)
	n.kids[i] = c
	added, sep, right = c.put(o, key, v)
	if right == nil {
		return added, "", nil
	}
	n.keys = slices.Insert(n.keys, i, sep)
	n.kids = slices.Insert(n.kids, i+1, right)
	if len(n.kids) > treeFanout {
		sep, right = n.split(o, i+1 == treeFanout)
		return added, sep, right
	}
	return added, "", nil
}

// split moves the upper part of an overfull node into a new right
// sibling. Normally that is half; when the overflow came from an insert
// past the last key (atEnd) the left node stays full and the right one
// starts with a single entry, so an ascending bulk load leaves full nodes
// behind it instead of half-empty ones.
func (n *treeNode) split(o *treeOwner, atEnd bool) (sep string, right *treeNode) {
	m := n.size() / 2
	if atEnd {
		m = treeFanout
	}
	// The new sibling gets room for a full node (and the entry past full
	// that put holds for a moment): a split means entries are arriving,
	// and a bulk load should not regrow every node it fills.
	right = newNode(o, n.kids == nil, treeFanout+1)
	right.keys = append(right.keys, n.keys[m:]...)
	if n.kids == nil {
		right.vals = append(right.vals, n.vals[m:]...)
		n.keys = slices.Delete(n.keys, m, len(n.keys))
		n.vals = slices.Delete(n.vals, m, len(n.vals))
		return right.keys[0], right
	}
	sep = n.keys[m-1]
	right.kids = append(right.kids, n.kids[m:]...)
	n.keys = slices.Delete(n.keys, m-1, len(n.keys))
	n.kids = slices.Delete(n.kids, m, len(n.kids))
	return sep, right
}

// delete removes key and reports whether it was present.
func (t *ptree) delete(o *treeOwner, key string) bool {
	if t.root == nil {
		return false
	}
	t.root = t.root.editable(o)
	if !t.root.delete(o, key) {
		return false
	}
	t.n--
	for t.root.kids != nil && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
	}
	return true
}

// delete removes key from the subtree under n, which o owns, refilling
// the child it came from when that runs low.
func (n *treeNode) delete(o *treeOwner, key string) bool {
	if n.kids == nil {
		i, found := n.search(key)
		if found {
			n.keys = slices.Delete(n.keys, i, i+1)
			n.vals = slices.Delete(n.vals, i, i+1)
		}
		return found
	}
	i := n.childFor(key)
	c := n.kids[i].editable(o)
	n.kids[i] = c
	if !c.delete(o, key) {
		return false
	}
	if c.size() >= treeMinFill || len(n.kids) == 1 {
		return true
	}
	// Pour the low child and a neighbour into one node; if that overflows,
	// split it back evenly.
	if i > 0 {
		i--
	}
	left, rest := n.kids[i].editable(o), n.kids[i+1]
	n.kids[i] = left
	if left.kids != nil {
		left.keys = append(append(left.keys, n.keys[i]), rest.keys...)
		left.kids = append(left.kids, rest.kids...)
	} else {
		left.keys = append(left.keys, rest.keys...)
		left.vals = append(left.vals, rest.vals...)
	}
	if left.size() > treeFanout {
		n.keys[i], n.kids[i+1] = left.split(o, false)
		return true
	}
	n.keys = slices.Delete(n.keys, i, i+1)
	n.kids = slices.Delete(n.kids, i+1, i+2)
	return true
}

// ascend calls fn for every entry with key >= from, in key order, until
// fn returns false. It walks the root it was handed: a version that
// shares these nodes and later writes copies them first.
func (t *ptree) ascend(from string, fn func(key string, v Tuple) bool) {
	if t.root != nil {
		t.root.ascend(from, fn)
	}
}

func (n *treeNode) ascend(from string, fn func(string, Tuple) bool) bool {
	if n.kids == nil {
		i, _ := n.search(from)
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	for i := n.childFor(from); i < len(n.kids); i++ {
		if !n.kids[i].ascend(from, fn) {
			return false
		}
		from = ""
	}
	return true
}

// unsharedLeaves returns, in key order, the leaves of a and of b that the
// two trees do not share, and how many nodes it read to find them. It
// walks both trees down a level at a time — the taller one alone until the
// two stand level — and on every level drops the nodes both sides reach: a
// node's height never changes, so a shared node is met on one level on
// both sides, and everything under it is shared too.
func unsharedLeaves(a, b *ptree) (la, lb []*treeNode, read int) {
	la, ha := a.rootLevel()
	lb, hb := b.rootLevel()
	for {
		if ha == hb {
			la, lb = dropShared(la, lb)
			if ha == 0 || len(la)+len(lb) == 0 {
				return la, lb, read
			}
		}
		downA, downB := ha >= hb, hb >= ha
		if downA {
			read += len(la)
			la, ha = children(la), ha-1
		}
		if downB {
			read += len(lb)
			lb, hb = children(lb), hb-1
		}
	}
}

// rootLevel returns the tree's top level (its root, if any) and height.
func (t *ptree) rootLevel() ([]*treeNode, int) {
	if t.root == nil {
		return nil, 0
	}
	h := 0
	for n := t.root; n.kids != nil; n = n.kids[0] {
		h++
	}
	return []*treeNode{t.root}, h
}

// children returns the level below a level of branches, in key order.
func children(level []*treeNode) []*treeNode {
	out := make([]*treeNode, 0, len(level)*treeFanout)
	for _, n := range level {
		out = append(out, n.kids...)
	}
	return out
}

// dropShared removes from two levels the nodes both hold.
func dropShared(a, b []*treeNode) ([]*treeNode, []*treeNode) {
	seen := make(map[*treeNode]int, len(a)+len(b))
	for _, n := range a {
		seen[n]++
	}
	for _, n := range b {
		seen[n]++
	}
	shared := func(n *treeNode) bool { return seen[n] == 2 }
	return slices.DeleteFunc(a, shared), slices.DeleteFunc(b, shared)
}

// entries lists the keys and values of leaves, in order.
func entries(leaves []*treeNode) (keys []string, vals []Tuple) {
	for _, l := range leaves {
		keys, vals = append(keys, l.keys...), append(vals, l.vals...)
	}
	return keys, vals
}

// appendPrefixed appends to dst copies of the tuples whose keys start
// with prefix, in key order: one seek, then a walk of that run. A batch
// of probes appends into one slice, so the walk takes no callback and
// allocates nothing but the copies and dst's growth.
func (t *ptree) appendPrefixed(dst []Tuple, prefix string) []Tuple {
	if t.root != nil {
		dst, _ = t.root.appendPrefixed(dst, prefix)
	}
	return dst
}

// appendPrefixed is the walk under n; it reports false once it has met
// a key past the run, so the caller stops too. Every key under a later
// child sorts after prefix, so searching prefix there starts at its
// first entry, as ascend does.
func (n *treeNode) appendPrefixed(dst []Tuple, prefix string) ([]Tuple, bool) {
	if n.kids == nil {
		i, _ := n.search(prefix)
		for ; i < len(n.keys); i++ {
			if !strings.HasPrefix(n.keys[i], prefix) {
				return dst, false
			}
			dst = append(dst, n.vals[i].Clone())
		}
		return dst, true
	}
	for i := n.childFor(prefix); i < len(n.kids); i++ {
		var more bool
		if dst, more = n.kids[i].appendPrefixed(dst, prefix); !more {
			return dst, false
		}
	}
	return dst, true
}
