package vupdate_test

import (
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
	"penguin/internal/workload"
)

// diffFixture is a database, a definition over it and its permissive
// translator.
type diffFixture struct {
	name string
	db   *reldb.Database
	tr   *Translator
}

// diffFixtures returns ω over the seeded university and the benchmark
// tree the translation goldens run on.
func diffFixtures(t *testing.T) []diffFixture {
	t.Helper()
	db, g := university.MustNewSeeded()
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Peninsulas: 1, Roots: 6})
	if err != nil {
		t.Fatal(err)
	}
	return []diffFixture{
		{"omega", db, PermissiveTranslator(university.MustOmega(g))},
		{"tree", w.DB, PermissiveTranslator(w.Def)},
	}
}

func (f diffFixture) instances(t *testing.T) []*viewobject.Instance {
	t.Helper()
	insts, err := viewobject.Instantiate(f.db, f.tr.Definition(), viewobject.Query{})
	if err != nil || len(insts) == 0 {
		t.Fatalf("%s: instantiate: %d instances, %v", f.name, len(insts), err)
	}
	return insts
}

func mustDiff(t *testing.T, tr *Translator, oldInst, newInst *viewobject.Instance) []NodeDelta {
	t.Helper()
	d, err := Diff(tr, oldInst, newInst)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// editedValue returns a value of attribute j's type that no fixture
// holds, or false for a type the tests do not edit.
func editedValue(schema *reldb.Schema, j int) (reldb.Value, bool) {
	switch schema.Attr(j).Type {
	case reldb.KindString:
		return reldb.String("edited"), true
	case reldb.KindInt:
		return reldb.Int(987654), true
	}
	return reldb.Value{}, false
}

// An instance replaced by itself has an empty delta: every pair is
// CASE R-1.
func TestDiffOfCloneIsEmpty(t *testing.T) {
	for _, f := range diffFixtures(t) {
		for _, inst := range f.instances(t) {
			if d := mustDiff(t, f.tr, inst, inst.Clone()); len(d) != 0 {
				t.Fatalf("%s %s: diff against its clone = %v", f.name, inst.Key(), d)
			}
		}
	}
}

// Editing one non-key attribute of one leaf component yields exactly
// one pair delta: that component, before and after.
func TestDiffOneLeafEditIsOnePair(t *testing.T) {
	for _, f := range diffFixtures(t) {
		def := f.tr.Definition()
		edits := 0
		for _, inst := range f.instances(t) {
			for _, n := range def.Nodes() {
				comps := inst.NodesAt(n.ID)
				if len(n.Children) > 0 || len(comps) == 0 {
					continue
				}
				schema := def.NodeSchema(n)
				proj, _ := schema.Indices(n.Attrs)
				for _, j := range proj {
					v, ok := editedValue(schema, j)
					if schema.IsKeyAttr(j) || !ok {
						continue
					}
					repl := inst.Clone()
					leaf := repl.NodesAt(n.ID)[len(comps)-1]
					if err := leaf.SetAttr(def, schema.Attr(j).Name, v); err != nil {
						t.Fatal(err)
					}
					d := mustDiff(t, f.tr, inst, repl)
					before := comps[len(comps)-1].Row().Tuple()
					if len(d) != 1 || d[0].Node != n.ID || d[0].Op != "pair" ||
						!d[0].Old.Equal(before) || !d[0].New.Equal(leaf.Row().Tuple()) {
						t.Fatalf("%s %s: editing %s.%s gives %v", f.name, inst.Key(), n.ID, schema.Attr(j).Name, d)
					}
					edits++
					break
				}
			}
		}
		if edits == 0 {
			t.Fatalf("%s: no leaf has a non-key attribute to edit", f.name)
		}
	}
}

// Editing the pivot's key pairs the pivot first; step 1 moves the
// island children's inherited keys, whose pairs follow.
func TestDiffPivotKeyEditPairsPivotFirst(t *testing.T) {
	for _, f := range diffFixtures(t) {
		def := f.tr.Definition()
		schema := def.NodeSchema(def.Root())
		j := schema.Key()[0]
		v, ok := editedValue(schema, j)
		if !ok {
			t.Fatalf("%s: pivot key attribute %s is not editable", f.name, schema.Attr(j).Name)
		}
		for _, inst := range f.instances(t) {
			repl := inst.Clone()
			if err := repl.Root().SetAttr(def, schema.Attr(j).Name, v); err != nil {
				t.Fatal(err)
			}
			d := mustDiff(t, f.tr, inst, repl)
			if len(d) == 0 || d[0].Node != def.Root().ID || d[0].Op != "pair" ||
				!d[0].Old.Equal(inst.Root().Row().Tuple()) || !d[0].New.Equal(repl.Root().Row().Tuple()) {
				t.Fatalf("%s %s: pivot key edit gives %v", f.name, inst.Key(), d)
			}
			for _, nd := range d[1:] {
				if nd.Node == def.Root().ID {
					t.Fatalf("%s %s: pivot paired twice: %v", f.name, inst.Key(), d)
				}
			}
		}
	}
}

// Dropping components deletes only what the object owns: an old
// component with no new partner is deleted inside the dependency
// island and left alone outside it.
func TestDiffDeletesOnlyIslandLeftovers(t *testing.T) {
	for _, f := range diffFixtures(t) {
		def, topo := f.tr.Definition(), f.tr.Topology()
		var dropOutside func(c *comp)
		dropOutside = func(c *comp) {
			for pos, child := range c.node.Children {
				if !topo.InIsland(child.ID) {
					c.kids[pos] = nil
				}
				for _, k := range c.kids[pos] {
					dropOutside(k)
				}
			}
		}
		islandKids := 0
		for _, inst := range f.instances(t) {
			c := compOf(inst.Root())
			dropOutside(c)
			repl, err := c.instance(def)
			if err != nil {
				t.Fatal(err)
			}
			if d := mustDiff(t, f.tr, inst, repl); len(d) != 0 {
				t.Fatalf("%s %s: dropping the components outside the island gives %v", f.name, inst.Key(), d)
			}
			// Drop the pivot's last island child instead: one deletion,
			// and nothing for the components below it.
			c = compOf(inst.Root())
			for pos, child := range c.node.Children {
				if kids := c.kids[pos]; topo.InIsland(child.ID) && len(kids) > 0 {
					gone := kids[len(kids)-1]
					c.kids[pos] = kids[:len(kids)-1]
					if repl, err = c.instance(def); err != nil {
						t.Fatal(err)
					}
					d := mustDiff(t, f.tr, inst, repl)
					if len(d) != 1 || d[0].Node != child.ID || d[0].Op != "delete" || !d[0].Old.Equal(gone.tuple) {
						t.Fatalf("%s %s: dropping a %s component gives %v", f.name, inst.Key(), child.ID, d)
					}
					islandKids++
					break
				}
			}
		}
		if islandKids == 0 {
			t.Fatalf("%s: no instance has an island child to drop", f.name)
		}
	}
}
