package reldb

import (
	"fmt"
	"strings"
)

// A query is plain calls over ResultSets, evaluated eagerly — relations
// here are small enough that a volcano iterator would buy nothing.
// JoinChain builds the one equi-join chain Keller's select-project-join
// views and RQL both run; Filter and Project derive one ResultSet from
// another. A query over one relation reads its rows through
// Relation.Select instead, which picks the predicate's access path.

// ResultSet is a materialized intermediate or final query result: a
// derived schema plus rows. A result over one relation holds its stored
// rows; a join or projection builds new ones.
type ResultSet struct {
	Schema *Schema
	Rows   []Row
}

// Len returns the number of rows.
func (rs *ResultSet) Len() int { return len(rs.Rows) }

// Filter returns the rows that satisfy pred; a nil pred keeps them all.
func (rs *ResultSet) Filter(pred Expr) (*ResultSet, error) {
	if pred == nil {
		return rs, nil
	}
	out := &ResultSet{Schema: rs.Schema}
	for _, t := range rs.Rows {
		ok, err := EvalBool(pred, rs.Schema, t)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, t)
		}
	}
	return out, nil
}

// Project keeps only the named attributes, in order. Duplicate rows are
// preserved (bag semantics).
func (rs *ResultSet) Project(names []string) (*ResultSet, error) {
	schema, err := rs.Schema.ProjectSchema(rs.Schema.Name(), names)
	if err != nil {
		return nil, err
	}
	idx, err := rs.Schema.Indices(names)
	if err != nil {
		return nil, err
	}
	out := &ResultSet{Schema: schema, Rows: make([]Row, len(rs.Rows))}
	for i, t := range rs.Rows {
		out.Rows[i] = t.project(idx)
	}
	return out, nil
}

// Resolver resolves relation names; *Database, *ReadTx and *Tx all
// satisfy it.
type Resolver interface {
	Relation(name string) (*Relation, error)
}

// Join adds one relation to a join chain, equi-joined to the rows the
// chain has accumulated before it.
type Join struct {
	// Relation is the base relation to join in.
	Relation string
	// LeftAttrs name attributes of the accumulated rows, RightAttrs
	// attributes of Relation, pairwise equal. An unqualified left
	// attribute is the root relation's, an unqualified right one
	// Relation's; "REL.Attr" names any relation of the chain.
	LeftAttrs, RightAttrs []string
	// Outer, when true, makes this a left outer join: unmatched left rows
	// survive with nulls for the right side.
	Outer bool
}

// JoinChain resolves root and every joined relation through res,
// qualifies each relation's attributes with its name ("REL.Attr"), and
// equi-joins the relations in order, each one the build side of a hash
// join. With no joins it returns the root's rows, qualified. The chain's
// key is the union of the relations' keys, and every attribute is
// nullable (outer joins pad with null).
func JoinChain(res Resolver, root string, joins []Join) (*ResultSet, error) {
	return joinChain(res, root, joins, true)
}

// JoinSchema returns the schema JoinChain(res, root, joins) answers
// under, with the same checks, reading no row.
func JoinSchema(res Resolver, root string, joins []Join) (*Schema, error) {
	rs, err := joinChain(res, root, joins, false)
	if err != nil {
		return nil, err
	}
	return rs.Schema, nil
}

// joinChain is JoinChain over every relation's rows, or over none.
func joinChain(res Resolver, root string, joins []Join, rows bool) (*ResultSet, error) {
	acc, err := qualified(res, root, rows)
	if err != nil {
		return nil, err
	}
	for _, j := range joins {
		if len(j.LeftAttrs) != len(j.RightAttrs) {
			return nil, fmt.Errorf("reldb: join %s: attribute lists differ in length: %d vs %d",
				j.Relation, len(j.LeftAttrs), len(j.RightAttrs))
		}
		rel, err := qualified(res, j.Relation, rows)
		if err != nil {
			return nil, err
		}
		left, right := make([]string, len(j.LeftAttrs)), make([]string, len(j.RightAttrs))
		for i := range left {
			left[i], right[i] = qualify(root, j.LeftAttrs[i]), qualify(j.Relation, j.RightAttrs[i])
		}
		if acc, err = join(acc, rel, left, right, j.Outer); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// qualified returns the rows of the named relation (none unless rows is
// set; reading them is charged as a scan) under a schema, named after
// it, whose attributes are qualified with that name (an attribute whose
// name already holds a dot is kept).
func qualified(res Resolver, name string, rows bool) (*ResultSet, error) {
	rel, err := res.Relation(name)
	if err != nil {
		return nil, err
	}
	s := rel.Schema()
	attrs := s.Attrs()
	var keyNames []string
	for i := range attrs {
		attrs[i].Name = qualify(name, attrs[i].Name)
		if s.IsKeyAttr(i) {
			keyNames = append(keyNames, attrs[i].Name)
		}
	}
	schema, err := NewSchema(name, attrs, keyNames)
	if err != nil {
		return nil, err
	}
	out := &ResultSet{Schema: schema}
	if rows {
		out.Rows = rel.All()
		rel.obsScan(nil, len(out.Rows))
	}
	return out, nil
}

// qualify prefixes attr with rel unless it is already qualified.
func qualify(rel, attr string) string {
	if strings.Contains(attr, ".") {
		return attr
	}
	return rel + "." + attr
}

// join equi-joins left and right on attribute lists of equal length,
// building a hash table on the right side. Its schema concatenates the
// two, every attribute nullable, keyed by the union of their keys; a
// null join value matches nothing.
func join(left, right *ResultSet, leftAttrs, rightAttrs []string, outer bool) (*ResultSet, error) {
	lidx, err := left.Schema.Indices(leftAttrs)
	if err != nil {
		return nil, err
	}
	ridx, err := right.Schema.Indices(rightAttrs)
	if err != nil {
		return nil, err
	}
	attrs := append(left.Schema.Attrs(), right.Schema.Attrs()...)
	keyNames := append(left.Schema.KeyNames(), right.Schema.KeyNames()...)
	for i := range attrs {
		attrs[i].Nullable = true
	}
	schema, err := NewSchema(left.Schema.Name()+"*"+right.Schema.Name(), attrs, keyNames)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]Row, len(right.Rows))
	for _, rt := range right.Rows {
		k := rt.Project(ridx).Encode()
		build[k] = append(build[k], rt)
	}
	out := &ResultSet{Schema: schema}
	nulls := nullRow(right.Schema.Arity())
	for _, lt := range left.Rows {
		probe := lt.Project(lidx)
		var matches []Row
		if !hasNull(probe) {
			matches = build[probe.Encode()]
		}
		if len(matches) == 0 && outer {
			out.Rows = append(out.Rows, lt.concat(nulls))
		}
		for _, rt := range matches {
			out.Rows = append(out.Rows, lt.concat(rt))
		}
	}
	return out, nil
}

func hasNull(t Tuple) bool {
	for _, v := range t {
		if v.IsNull() {
			return true
		}
	}
	return false
}
