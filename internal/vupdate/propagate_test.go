package vupdate

import (
	"math"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// TestPropagateIslandKeysMatchesParentExactly: step 1 of VO-R leaves
// every island child holding the very values its parent's key has, not
// merely equal ones. A child's Int 0 or Float -0 under a parent's Float
// 0 compares equal but is rewritten all the same, as an unconditional
// rewrite would; only an identical child is left as it is.
func TestPropagateIslandKeysMatchesParentExactly(t *testing.T) {
	db := reldb.NewDatabase()
	db.MustCreateRelation(reldb.MustSchema("P", []reldb.Attribute{
		{Name: "k", Type: reldb.KindFloat},
	}, []string{"k"}))
	db.MustCreateRelation(reldb.MustSchema("C", []reldb.Attribute{
		{Name: "k", Type: reldb.KindFloat},
		{Name: "c", Type: reldb.KindInt},
	}, []string{"k", "c"}))
	g := structural.NewGraph(db)
	conn := &structural.Connection{Name: "P>C", Type: structural.Ownership, From: "P", To: "C",
		FromAttrs: []string{"k"}, ToAttrs: []string{"k"}}
	if err := g.AddConnection(conn); err != nil {
		t.Fatal(err)
	}
	def, err := viewobject.NewDefinition("pc", g, &viewobject.Node{Relation: "P", Children: []*viewobject.Node{
		{Relation: "C", Path: []structural.Edge{{Conn: conn, Forward: true}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	parentKey := reldb.Float(0)
	inst := viewobject.MustNewInstance(def, reldb.Tuple{parentKey})
	for i, k := range []reldb.Value{reldb.Float(0), reldb.Float(math.Copysign(0, -1)), reldb.Int(0), reldb.Float(5)} {
		inst.Root().MustAddChild(def, "C", reldb.Tuple{k, reldb.Int(int64(i))})
	}
	if err := propagateIslandKeys(def, Analyze(def).root, inst.Root()); err != nil {
		t.Fatal(err)
	}
	for _, c := range inst.Root().Children("C") {
		if k := c.Value(0); !k.Identical(parentKey) {
			f, _ := k.AsFloat()
			t.Errorf("child %s holds k = %s (kind %s, sign bit %v), want the parent's %s",
				c.Value(1), k, k.Kind(), math.Signbit(f), parentKey)
		}
	}
}
