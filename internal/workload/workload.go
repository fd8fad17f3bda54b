// Package workload generates synthetic schemas, data, and view objects
// for the scaling experiments (E12): ownership trees of configurable
// depth and width (the dependency island's shape), optional referencing
// peninsulas, and deterministic data with configurable fan-out. All
// identifiers are sequential so runs are reproducible.
package workload

import (
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// TreeSpec sizes a synthetic ownership-tree workload.
type TreeSpec struct {
	// Depth is the number of ownership levels below the pivot (0 = pivot
	// only).
	Depth int
	// Width is the number of owned child relations per relation.
	Width int
	// Fanout is the number of owned tuples per parent tuple.
	Fanout int
	// Roots is the number of pivot tuples.
	Roots int
	// Peninsulas adds that many relations referencing the pivot, each
	// with Fanout referencing tuples per pivot tuple.
	Peninsulas int
}

// Relations returns the number of island relations the spec generates.
func (s TreeSpec) Relations() int {
	n, level := 1, 1
	for d := 0; d < s.Depth; d++ {
		level *= s.Width
		n += level
	}
	return n
}

// Workload is a generated database, structural schema, and view object.
type Workload struct {
	DB  *reldb.Database
	G   *structural.Graph
	Def *viewobject.Definition
	// IslandRels and PeninsulaRels list the generated relation names.
	IslandRels    []string
	PeninsulaRels []string
}

// BuildTree generates the workload in one fresh in-memory database:
// relations N0 (pivot), N0_c for its children, N0_c_c for grandchildren,
// and so on; ownership connections between each parent and child;
// peninsula relations P0..Pn referencing the pivot; seeded data; and a
// view object spanning every generated relation with the pivot at the
// root. It is the single-database fixture; the stress harness runs over
// NewShardedTree / OpenShardedTree.
func BuildTree(spec TreeSpec) (*Workload, error) {
	w, err := buildTree(reldb.NewDatabase(), spec, true)
	if err != nil {
		return nil, err
	}
	if err := seedTree(w, spec); err != nil {
		return nil, err
	}
	return w, nil
}

// buildTree registers the generated schema over db: with create it also
// creates the relations (an existing one is an error wrapping
// reldb.ErrRelationExists); without it the relations are taken as
// recovered from disk and only the connection graph — and its edge
// indexes, derived state the WAL does not carry — is re-registered. No
// data is seeded either way.
func buildTree(db *reldb.Database, spec TreeSpec, create bool) (*Workload, error) {
	if spec.Width < 0 || spec.Depth < 0 || spec.Roots < 1 {
		return nil, fmt.Errorf("workload: invalid spec %+v", spec)
	}
	g := structural.NewGraph(db)
	w := &Workload{DB: db, G: g}

	// Pivot relation: key K0, payload V.
	pivotName := "N0"
	pivotAttrs := []reldb.Attribute{
		{Name: "K0", Type: reldb.KindInt},
		{Name: "V", Type: reldb.KindString, Nullable: true},
	}
	if create {
		if _, err := db.CreateRelation(reldb.MustSchema(pivotName, pivotAttrs, []string{"K0"})); err != nil {
			return nil, err
		}
	}
	w.IslandRels = append(w.IslandRels, pivotName)

	// Node definition tree for the view object.
	rootNode := &viewobject.Node{Relation: pivotName}

	type frame struct {
		name    string
		keyAttr []string // key attribute names, root-to-here
		node    *viewobject.Node
		depth   int
	}
	stack := []frame{{name: pivotName, keyAttr: []string{"K0"}, node: rootNode, depth: 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth >= spec.Depth {
			continue
		}
		for c := 0; c < spec.Width; c++ {
			childName := fmt.Sprintf("%s_%d", f.name, c)
			childKey := append(append([]string(nil), f.keyAttr...), fmt.Sprintf("K%d", f.depth+1))
			attrs := make([]reldb.Attribute, 0, len(childKey)+1)
			for _, k := range childKey {
				attrs = append(attrs, reldb.Attribute{Name: k, Type: reldb.KindInt})
			}
			attrs = append(attrs, reldb.Attribute{Name: "V", Type: reldb.KindString, Nullable: true})
			if create {
				if _, err := db.CreateRelation(reldb.MustSchema(childName, attrs, childKey)); err != nil {
					return nil, err
				}
			}
			conn := &structural.Connection{
				Name: f.name + ">" + childName, Type: structural.Ownership,
				From: f.name, To: childName,
				FromAttrs: f.keyAttr, ToAttrs: f.keyAttr,
			}
			// AddConnection registers the edge index over f.keyAttr on the
			// child, so traversal probes instead of scanning.
			if err := g.AddConnection(conn); err != nil {
				return nil, err
			}
			childNode := &viewobject.Node{
				Relation: childName,
				Path:     []structural.Edge{{Conn: conn, Forward: true}},
			}
			f.node.Children = append(f.node.Children, childNode)
			w.IslandRels = append(w.IslandRels, childName)
			stack = append(stack, frame{name: childName, keyAttr: childKey, node: childNode, depth: f.depth + 1})
		}
	}

	// Peninsulas referencing the pivot.
	for pIdx := 0; pIdx < spec.Peninsulas; pIdx++ {
		name := fmt.Sprintf("P%d", pIdx)
		if create {
			if _, err := db.CreateRelation(reldb.MustSchema(name, []reldb.Attribute{
				{Name: "PK", Type: reldb.KindInt},
				{Name: "K0", Type: reldb.KindInt},
				{Name: "V", Type: reldb.KindString, Nullable: true},
			}, []string{"PK", "K0"})); err != nil {
				return nil, err
			}
		}
		conn := &structural.Connection{
			Name: name + ">" + pivotName, Type: structural.Reference,
			From: name, To: pivotName,
			FromAttrs: []string{"K0"}, ToAttrs: []string{"K0"},
		}
		if err := g.AddConnection(conn); err != nil {
			return nil, err
		}
		rootNode.Children = append(rootNode.Children, &viewobject.Node{
			Relation: name,
			Path:     []structural.Edge{{Conn: conn, Forward: false}},
		})
		w.PeninsulaRels = append(w.PeninsulaRels, name)
	}

	def, err := viewobject.NewDefinition(fmt.Sprintf("tree-d%d-w%d", spec.Depth, spec.Width), g, rootNode)
	if err != nil {
		return nil, err
	}
	w.Def = def
	return w, nil
}

// seedTree fills the generated relations: Roots pivot tuples, Fanout
// owned tuples per parent tuple per child relation, and Fanout peninsula
// tuples per pivot tuple per peninsula.
func seedTree(w *Workload, spec TreeSpec) error {
	return w.DB.RunInTx(func(tx *reldb.Tx) error {
		return forEachSeedRow(w.Def, spec, func(_ int64, rel string, _ bool, t reldb.Tuple) error {
			return tx.Insert(rel, t)
		})
	})
}

// forEachSeedRow enumerates every row the seed generates, tagging each
// with the pivot root key it descends from and whether its relation
// belongs to the dependency island. The single-database seed inserts
// them all into one transaction; the sharded seed routes island rows to
// the root's home shard and replicates the rest.
func forEachSeedRow(def *viewobject.Definition, spec TreeSpec, emit func(root int64, rel string, island bool, t reldb.Tuple) error) error {
	// Pivot rows.
	for r := 0; r < spec.Roots; r++ {
		if err := emit(int64(r), "N0", true, reldb.Tuple{reldb.Int(int64(r)), reldb.String(fmt.Sprintf("root%d", r))}); err != nil {
			return err
		}
	}
	// Owned rows, level by level, following the definition tree. Every
	// key is root-to-here, so pk[0] is the owning pivot root.
	var fill func(n *viewobject.Node, parentKeys []reldb.Tuple) error
	fill = func(n *viewobject.Node, parentKeys []reldb.Tuple) error {
		for _, child := range n.Children {
			if len(child.Path) == 1 && child.Path[0].Conn.Type == structural.Ownership {
				var childKeys []reldb.Tuple
				for _, pk := range parentKeys {
					root, _ := pk[0].AsInt()
					for f := 0; f < spec.Fanout; f++ {
						key := append(pk.Clone(), reldb.Int(int64(f)))
						tuple := append(key.Clone(), reldb.String("v"))
						if err := emit(root, child.Relation, true, tuple); err != nil {
							return err
						}
						childKeys = append(childKeys, key)
					}
				}
				if err := fill(child, childKeys); err != nil {
					return err
				}
				continue
			}
			// Peninsula: Fanout referencing rows per pivot tuple.
			pk := 0
			for _, rootKey := range parentKeys {
				root, _ := rootKey[0].AsInt()
				for f := 0; f < spec.Fanout; f++ {
					tuple := reldb.Tuple{reldb.Int(int64(pk)), rootKey[0], reldb.String("p")}
					if err := emit(root, child.Relation, false, tuple); err != nil {
						return err
					}
					pk++
				}
			}
		}
		return nil
	}
	roots := make([]reldb.Tuple, spec.Roots)
	for r := range roots {
		roots[r] = reldb.Tuple{reldb.Int(int64(r))}
	}
	return fill(def.Root(), roots)
}
