package viewobject_test

import (
	"math/rand"
	"strings"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
	. "penguin/internal/viewobject"
)

// Property: every subset of tree occurrences (root always kept) is a
// valid configuration — "once the pivot relation has been determined, we
// have the choice to either include in or exclude from ω every other
// relation in the tree" (§3). Random subsets must configure cleanly, with
// complexity = |subset| + 1 and well-formed paths.
func TestConfigureRandomSubsets(t *testing.T) {
	_, g := university.New()
	sub, err := ExtractSubgraph(g, university.Courses, DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildTree(sub)
	ids := tree.NodeIDs()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		include := map[string][]string{}
		for _, id := range ids {
			if id == tree.Root.ID {
				continue
			}
			if rng.Intn(2) == 0 {
				include[id] = nil
			}
		}
		def, err := tree.Configure("random", include)
		if err != nil {
			t.Fatalf("trial %d: configure %v: %v", trial, include, err)
		}
		if def.Complexity() != len(include)+1 {
			t.Fatalf("trial %d: complexity %d, want %d", trial, def.Complexity(), len(include)+1)
		}
		// Every non-root node has a nonempty, connected path and exists
		// in the tree it came from.
		for _, n := range def.Nodes() {
			if n == def.Root() {
				continue
			}
			if len(n.Path) == 0 {
				t.Fatalf("trial %d: node %s has no path", trial, n.ID)
			}
			cur := n.Parent().Relation
			for _, e := range n.Path {
				if e.Source() != cur {
					t.Fatalf("trial %d: path of %s broken at %s", trial, n.ID, e)
				}
				cur = e.Target()
			}
			if cur != n.Relation {
				t.Fatalf("trial %d: path of %s ends at %s", trial, n.ID, cur)
			}
		}
	}
}

// Property: instantiating any random configuration over the seeded
// database never fails and yields components actually connected to their
// parents (single-edge paths checked on values).
func TestInstantiateRandomConfigurations(t *testing.T) {
	db, g := university.MustNewSeeded()
	sub, err := ExtractSubgraph(g, university.Courses, DefaultMetric())
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildTree(sub)
	ids := tree.NodeIDs()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		include := map[string][]string{}
		for _, id := range ids {
			if id != tree.Root.ID && rng.Intn(2) == 0 {
				include[id] = nil
			}
		}
		def, err := tree.Configure("random", include)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := Instantiate(db, def, Query{})
		if err != nil {
			t.Fatalf("trial %d: instantiate: %v", trial, err)
		}
		if len(insts) != 6 {
			t.Fatalf("trial %d: %d instances, want 6", trial, len(insts))
		}
		for _, inst := range insts {
			checkConnected(t, def, inst.Root())
		}
	}
}

func checkConnected(t *testing.T, def *Definition, in *InstNode) {
	t.Helper()
	node := in.Node()
	parentTuple := in.Row()
	parentSchema := def.NodeSchema(node)
	for _, child := range node.Children {
		for _, ci := range in.Children(child.ID) {
			if len(child.Path) == 1 {
				e := child.Path[0]
				srcIdx, err := parentSchema.Indices(e.SourceAttrs())
				if err != nil {
					t.Fatal(err)
				}
				childSchema := def.NodeSchema(child)
				tgtIdx, err := childSchema.Indices(e.TargetAttrs())
				if err != nil {
					t.Fatal(err)
				}
				ct := ci.Row()
				for k := range srcIdx {
					if !parentTuple.At(srcIdx[k]).Equal(ct.At(tgtIdx[k])) {
						t.Fatalf("component %s not connected to parent %s: %v vs %v",
							child.ID, node.ID, parentTuple, ct)
					}
				}
			}
			checkConnected(t, def, ci)
		}
	}
}

// Property: the object key uniquely identifies instances — instantiating
// all and indexing by key never collides, and InstantiateByKey returns
// the same instance rendering.
func TestObjectKeyUniqueness(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	insts, err := Instantiate(db, om, Query{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, inst := range insts {
		k := inst.Key().Encode()
		if seen[k] {
			t.Fatalf("duplicate object key %v", inst.Key())
		}
		seen[k] = true
		again, ok, err := InstantiateByKey(db, om, inst.Key())
		if err != nil || !ok {
			t.Fatal(err)
		}
		if again.Render() != inst.Render() {
			t.Fatalf("by-key instance differs for %v", inst.Key())
		}
	}
}

// Property: renders are deterministic and projection-faithful — a
// narrowed projection never leaks non-projected attributes.
func TestProjectionNeverLeaks(t *testing.T) {
	db, g := university.MustNewSeeded()
	def, err := Define(g, "narrow", university.Courses, DefaultMetric(), map[string][]string{
		university.Courses: {"CourseID"},
		university.Grades:  {"CourseID", "PID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, ok, err := InstantiateByKey(db, def, reldb.Tuple{reldb.String("CS345")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	r := inst.Render()
	for _, leaked := range []string{"Database Systems", "Win91", "A-"} {
		if strings.Contains(r, leaked) {
			t.Fatalf("projection leaked %q:\n%s", leaked, r)
		}
	}
}
