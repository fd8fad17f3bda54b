// Package keller implements the baseline of the paper's §4: Keller's
// approach to updating relational databases through flat
// select-project-join views, with a translator chosen by a dialog at view
// definition time (Keller 1985, 1986).
//
// A relational view here is a join chain over base relations with a
// selection and a projection; each view tuple is in first normal form.
// Contrast with view objects: a view-object instance is a fully
// unnormalized entity, and the view-object update algorithms extend the
// ones in this package to whole dependency islands (§5). The experiments
// use this package to demonstrate the difference: a flat-view deletion
// removes only the root-relation tuple and leaves orphans behind that the
// view-object translation would have cleaned up.
package keller

import (
	"fmt"
	"strings"

	"penguin/internal/obs"
	"penguin/internal/reldb"
)

// Join adds one relation to a view's query graph, equi-joined to the
// relations already present. Joins[0] is the root relation and takes no
// join condition; a later join's LeftAttrs name attributes of the
// relations before it ("REL.Attr"; an unqualified name is the root's),
// its RightAttrs attributes of its Relation.
type Join = reldb.Join

// View is a select-project-join relational view definition.
type View struct {
	// Name labels the view.
	Name string
	// Joins is the query graph in join order; Joins[0] is the root
	// relation (Keller's deletion target).
	Joins []Join
	// Selection filters the joined rows; attribute references use
	// qualified names. Nil selects everything.
	Selection reldb.Expr
	// Projection lists the qualified attributes the view exposes; empty
	// keeps every joined attribute.
	Projection []string

	db *reldb.Database
	// schema and attrMaps are derived once at definition time so the
	// update translators can use them inside a transaction (which holds
	// the database lock).
	schema   *reldb.Schema
	attrMaps map[string]map[int]int
}

// NewView validates a view definition against the database.
func NewView(db *reldb.Database, name string, joins []Join, selection reldb.Expr, projection []string) (*View, error) {
	if len(joins) == 0 {
		return nil, fmt.Errorf("keller: view %s needs at least one relation", name)
	}
	if len(joins[0].LeftAttrs) != 0 || len(joins[0].RightAttrs) != 0 {
		return nil, fmt.Errorf("keller: view %s: the root relation takes no join condition", name)
	}
	v := &View{Name: name, Joins: joins, Selection: selection, Projection: projection, db: db}
	for i, j := range joins {
		if !db.HasRelation(j.Relation) {
			return nil, fmt.Errorf("keller: view %s: %s: %w", name, j.Relation, reldb.ErrNoSuchRelation)
		}
		if i > 0 && len(j.LeftAttrs) != len(j.RightAttrs) {
			return nil, fmt.Errorf("keller: view %s: join %d has mismatched attribute lists", name, i)
		}
	}
	// Derive and cache the view schema from the relation schemas, reading
	// no row: the joins, every attribute the selection names and the
	// projection are checked against it, so a bad definition is refused
	// whatever the data holds.
	schema, err := reldb.JoinSchema(db, joins[0].Relation, joins[1:])
	if err != nil {
		return nil, err
	}
	if selection != nil {
		if err := reldb.CheckExpr(selection, schema); err != nil {
			return nil, fmt.Errorf("keller: view %s: selection: %w", name, err)
		}
	}
	if len(projection) > 0 {
		if schema, err = schema.ProjectSchema(schema.Name(), projection); err != nil {
			return nil, err
		}
	}
	v.schema = schema
	v.attrMaps = make(map[string]map[int]int, len(joins))
	for _, j := range joins {
		m, err := v.relationAttrs(v.schema, j.Relation)
		if err != nil {
			return nil, err
		}
		v.attrMaps[j.Relation] = m
	}
	return v, nil
}

// Schema returns the view's derived row schema.
func (v *View) Schema() *reldb.Schema { return v.schema }

// Root returns the root relation of the query graph.
func (v *View) Root() string { return v.Joins[0].Relation }

// eval runs the view's query over relations resolved through res: the
// join chain, then the selection, then the projection.
func (v *View) eval(res reldb.Resolver) (*reldb.ResultSet, error) {
	rs, err := reldb.JoinChain(res, v.Joins[0].Relation, v.Joins[1:])
	if err == nil {
		rs, err = rs.Filter(v.Selection)
	}
	if err == nil && len(v.Projection) > 0 {
		rs, err = rs.Project(v.Projection)
	}
	return rs, err
}

// Materialize evaluates the view inside a snapshot-isolated read
// transaction: all joined relations come from one committed state.
func (v *View) Materialize() (*reldb.ResultSet, error) {
	rtx := v.db.BeginRead()
	defer rtx.Close()
	return v.MaterializeIn(rtx)
}

// MaterializeIn evaluates the view against relations resolved through res
// — a *reldb.ReadTx snapshot, a write transaction (to see its uncommitted
// state), or a bare database.
func (v *View) MaterializeIn(res reldb.Resolver) (*reldb.ResultSet, error) {
	op := obs.Default.StartOp("keller.materialize")
	rs, err := v.eval(res)
	if err != nil {
		if op.Active() {
			op.Finish(fmt.Sprintf("view=%s err=%v", v.Name, err))
		}
		return nil, err
	}
	if op.Active() {
		op.Finish(fmt.Sprintf("view=%s rows=%d", v.Name, len(rs.Rows)))
	}
	return rs, nil
}

// qualify prefixes an attribute with a relation name if not already
// qualified.
func qualify(rel, attr string) string {
	if strings.Contains(attr, ".") {
		return attr
	}
	return rel + "." + attr
}

// relationAttrs extracts, for one joined relation, the mapping from its
// base attribute index to the view row's attribute index, for attributes
// the view exposes either directly or through a join-equivalent attribute
// (an attribute equated to it by a join condition — how Keller's tuple
// construction recovers values the projection dropped from one side).
func (v *View) relationAttrs(viewSchema *reldb.Schema, rel string) (map[int]int, error) {
	baseRel, err := v.db.Relation(rel)
	if err != nil {
		return nil, err
	}
	classes := v.joinEquivalence()
	base := baseRel.Schema()
	out := make(map[int]int)
	for i := 0; i < base.Arity(); i++ {
		q := qualify(rel, base.Attr(i).Name)
		if vi, ok := viewSchema.AttrIndex(q); ok {
			out[i] = vi
			continue
		}
		for _, eq := range classes[q] {
			if vi, ok := viewSchema.AttrIndex(eq); ok {
				out[i] = vi
				break
			}
		}
	}
	return out, nil
}

// joinEquivalence computes, for each qualified attribute, the other
// qualified attributes the join conditions equate it with (transitively).
func (v *View) joinEquivalence() map[string][]string {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	for _, j := range v.Joins[1:] {
		for i := range j.LeftAttrs {
			union(qualify(v.Root(), j.LeftAttrs[i]), qualify(j.Relation, j.RightAttrs[i]))
		}
	}
	groups := make(map[string][]string)
	for x := range parent {
		groups[find(x)] = append(groups[find(x)], x)
	}
	out := make(map[string][]string)
	for _, members := range groups {
		for _, m := range members {
			for _, other := range members {
				if other != m {
					out[m] = append(out[m], other)
				}
			}
		}
	}
	return out
}

// String renders the view definition.
func (v *View) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "view %s: %s", v.Name, v.Joins[0].Relation)
	for _, j := range v.Joins[1:] {
		fmt.Fprintf(&b, " ⋈ %s", j.Relation)
	}
	if v.Selection != nil {
		fmt.Fprintf(&b, " where %s", v.Selection)
	}
	if len(v.Projection) > 0 {
		fmt.Fprintf(&b, " project (%s)", strings.Join(v.Projection, ", "))
	}
	return b.String()
}
