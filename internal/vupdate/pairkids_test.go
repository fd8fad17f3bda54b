package vupdate_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
	"penguin/internal/workload"
)

// referencePairKids is VO-R's child pairing as a map of pairing keys
// to old components, kept verbatim as the contract: island children
// linked by one connection pair on their key complement, everything
// else on the full key; a new component takes the first unpaired old
// component with its key; the leftovers pair positionally, the old
// ones grouped by the order in which each key first appears in the old
// list; pairs are sorted, stably, by the new tuple's encoding.
func referencePairKids(tr *Translator, child *viewobject.Node, oldKids, newKids []*viewobject.InstNode) (
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) {

	schema := tr.Definition().NodeSchema(child)
	extractor := schema.Key()
	if tr.Topology().InIsland(child.ID) && len(child.Path) == 1 {
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

// pairingCase is one definition whose root's child nodes are paired.
type pairingCase struct {
	name  string
	tr    *Translator
	pivot reldb.Tuple
}

func pairingCases(t *testing.T) []pairingCase {
	t.Helper()
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Peninsulas: 1, Roots: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	return []pairingCase{
		{"tree", PermissiveTranslator(w.Def), reldb.Tuple{reldb.Int(0), reldb.String("root0")}},
		{"omega", PermissiveTranslator(om), reldb.Tuple{
			reldb.String("CS345"), reldb.String("Databases"), reldb.String("Computer Science"),
			reldb.Int(3), reldb.String("graduate")}},
	}
}

// pairingValue draws a value for attribute j of schema from a pool of
// three (plus null where allowed), so lists are dense with duplicate
// keys and equal-but-differently-ordered tuples.
func pairingValue(rng *rand.Rand, schema *reldb.Schema, j int) reldb.Value {
	a := schema.Attr(j)
	if a.Nullable && !schema.IsKeyAttr(j) && rng.Intn(5) == 0 {
		return reldb.Null()
	}
	n := rng.Intn(3)
	switch a.Type {
	case reldb.KindInt:
		return reldb.Int(int64(n))
	case reldb.KindFloat:
		return reldb.Float(float64(n) / 2)
	case reldb.KindBool:
		return reldb.Bool(n == 0)
	default:
		return reldb.String(string(rune('a' + n)))
	}
}

func pairingTuple(rng *rand.Rand, schema *reldb.Schema) reldb.Tuple {
	t := make(reldb.Tuple, schema.Arity())
	for j := range t {
		t[j] = pairingValue(rng, schema, j)
	}
	return t
}

// pairingLists draws an old child list and a new one derived from it:
// reordered, re-keyed, shortened, lengthened, or drawn afresh.
func pairingLists(rng *rand.Rand, schema *reldb.Schema) (old, new []reldb.Tuple) {
	size := func() int {
		if rng.Intn(8) == 0 {
			return rng.Intn(40) // long lists: runs of many equal keys
		}
		return rng.Intn(6)
	}
	for i := size(); i > 0; i-- {
		old = append(old, pairingTuple(rng, schema))
	}
	switch rng.Intn(6) {
	case 0: // drawn afresh, unequal lengths likely
		for i := size(); i > 0; i-- {
			new = append(new, pairingTuple(rng, schema))
		}
		return old, new
	case 1: // unchanged
		return old, append([]reldb.Tuple(nil), old...)
	}
	new = append([]reldb.Tuple(nil), old...)
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(new), func(a, b int) { new[a], new[b] = new[b], new[a] })
	}
	for i := range new {
		if rng.Intn(3) == 0 {
			nt := new[i].Clone()
			j := rng.Intn(len(nt))
			nt[j] = pairingValue(rng, schema, j)
			new[i] = nt
		}
	}
	if len(new) > 0 && rng.Intn(3) == 0 {
		i := rng.Intn(len(new))
		new = append(new[:i:i], new[i+1:]...)
	}
	if rng.Intn(3) == 0 {
		new = append(new, pairingTuple(rng, schema))
	}
	return old, new
}

// pairingParents builds an old and a new parent component carrying the
// given child tuples under child.
func pairingParents(t *testing.T, pc pairingCase, child *viewobject.Node, old, new []reldb.Tuple) (*viewobject.InstNode, *viewobject.InstNode) {
	t.Helper()
	def := pc.tr.Definition()
	build := func(tuples []reldb.Tuple) *viewobject.InstNode {
		inst, err := viewobject.NewInstance(def, pc.pivot)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range tuples {
			if _, err := inst.Root().AddChild(def, child.ID, tu); err != nil {
				t.Fatal(err)
			}
		}
		return inst.Root()
	}
	return build(old), build(new)
}

// samePairing compares two pairing triples component by component
// (identity, order included); nil and empty lists are the same.
func samePairing(p1 [][2]*viewobject.InstNode, o1, n1 []*viewobject.InstNode,
	p2 [][2]*viewobject.InstNode, o2, n2 []*viewobject.InstNode) bool {
	return slices.Equal(p1, p2) && slices.Equal(o1, o2) && slices.Equal(n1, n2)
}

// describePairing renders a triple by child positions in the old and
// new lists, for failure messages.
func describePairing(oldP, newP *viewobject.InstNode, child *viewobject.Node,
	pairs [][2]*viewobject.InstNode, unpairedOld, unpairedNew []*viewobject.InstNode) string {
	pos := func(parent, in *viewobject.InstNode) int {
		return slices.Index(parent.Children(child.ID), in)
	}
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "(o%d,n%d) ", pos(oldP, p[0]), pos(newP, p[1]))
	}
	b.WriteString("| old")
	for _, o := range unpairedOld {
		fmt.Fprintf(&b, " o%d", pos(oldP, o))
	}
	b.WriteString(" | new")
	for _, n := range unpairedNew {
		fmt.Fprintf(&b, " n%d", pos(newP, n))
	}
	return b.String()
}

// TestPairKidsMatchesReference holds VO-R's child pairing to the
// map-based reference on random child lists under every root child node
// of the benchmark tree (island children paired on their key
// complement, a peninsula on its full key) and of ω (GRADES on its
// complement, DEPARTMENT and CURRICULUM on their full keys): duplicate
// keys, key changes, reorders and unequal lengths.
func TestPairKidsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, pc := range pairingCases(t) {
		def := pc.tr.Definition()
		for _, child := range def.Root().Children {
			schema := def.NodeSchema(child)
			for iter := 0; iter < 400; iter++ {
				old, new := pairingLists(rng, schema)
				oldP, newP := pairingParents(t, pc, child, old, new)
				wp, wo, wn := referencePairKids(pc.tr, child, oldP.Children(child.ID), newP.Children(child.ID))
				gp, gon, gnn := PairKids(pc.tr, child, oldP, newP)
				if !samePairing(gp, gon, gnn, wp, wo, wn) {
					t.Fatalf("%s/%s: old %v new %v:\n got  %s\n want %s", pc.name, child.ID, old, new,
						describePairing(oldP, newP, child, gp, gon, gnn),
						describePairing(oldP, newP, child, wp, wo, wn))
				}
			}
		}
	}
}

// TestPairKidsLeftoversGroupByFirstAppearance pins the case a
// common-prefix strip gets wrong: old pairing keys [a, b, a] and new
// [a, c]. The first a pairs by key; the leftover old components group
// by each key's first appearance (a, then b), so c pairs with the
// second a and b is unpaired.
func TestPairKidsLeftoversGroupByFirstAppearance(t *testing.T) {
	pc := pairingCases(t)[0]
	def := pc.tr.Definition()
	child := def.Root().Children[0] // N0_0: key (K0, K1), paired on K1
	kid := func(k1 int64, v string) reldb.Tuple {
		return reldb.Tuple{reldb.Int(0), reldb.Int(k1), reldb.String(v)}
	}
	old := []reldb.Tuple{kid(1, "a"), kid(2, "b"), kid(1, "a2")}
	new := []reldb.Tuple{kid(1, "a"), kid(3, "c")}
	oldP, newP := pairingParents(t, pc, child, old, new)
	o, n := oldP.Children(child.ID), newP.Children(child.ID)
	wantPairs := [][2]*viewobject.InstNode{{o[0], n[0]}, {o[2], n[1]}}
	wantOld := []*viewobject.InstNode{o[1]}
	for name, pair := range map[string]func(*Translator, *viewobject.Node, *viewobject.InstNode, *viewobject.InstNode) (
		[][2]*viewobject.InstNode, []*viewobject.InstNode, []*viewobject.InstNode){
		"reference": func(tr *Translator, c *viewobject.Node, op, np *viewobject.InstNode) (
			[][2]*viewobject.InstNode, []*viewobject.InstNode, []*viewobject.InstNode) {
			return referencePairKids(tr, c, op.Children(c.ID), np.Children(c.ID))
		},
		"translator": PairKids,
	} {
		gp, gon, gnn := pair(pc.tr, child, oldP, newP)
		if !samePairing(gp, gon, gnn, wantPairs, wantOld, nil) {
			t.Errorf("%s: got %s, want (o0,n0) (o2,n1) | old o1 | new", name,
				describePairing(oldP, newP, child, gp, gon, gnn))
		}
	}
}
