package reldb

import "fmt"

// ResultSet is a materialized intermediate or final query result: a derived
// schema plus rows. Query plans are composed functionally; each operator
// consumes and produces ResultSets. The engine materializes eagerly —
// relations here are small enough that a volcano iterator would buy nothing,
// and eager materialization keeps the view-object assembly code simple.
type ResultSet struct {
	Schema *Schema
	Rows   []Tuple
}

// Len returns the number of rows.
func (rs *ResultSet) Len() int { return len(rs.Rows) }

// Row returns row i paired with the result schema.
func (rs *ResultSet) Row(i int) Row { return Row{Schema: rs.Schema, Tuple: rs.Rows[i]} }

// Plan is a composable query operator tree. Run executes the plan.
type Plan interface {
	Run() (*ResultSet, error)
}

// ScanPlan reads an entire relation in primary-key order.
type ScanPlan struct{ Rel *Relation }

// Run implements Plan.
func (p ScanPlan) Run() (*ResultSet, error) {
	return &ResultSet{Schema: p.Rel.Schema(), Rows: p.Rel.All()}, nil
}

// SelectPlan filters its input by a predicate.
type SelectPlan struct {
	Input Plan
	Pred  Expr
}

// Run implements Plan.
func (p SelectPlan) Run() (*ResultSet, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	if p.Pred == nil {
		return in, nil
	}
	out := &ResultSet{Schema: in.Schema}
	for _, t := range in.Rows {
		ok, err := EvalBool(p.Pred, Row{Schema: in.Schema, Tuple: t})
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, t)
		}
	}
	return out, nil
}

// ProjectPlan keeps only the named attributes, in order. Duplicate rows are
// preserved (bag semantics).
type ProjectPlan struct {
	Input Plan
	Names []string
}

// Run implements Plan.
func (p ProjectPlan) Run() (*ResultSet, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	schema, err := in.Schema.ProjectSchema(in.Schema.Name(), p.Names)
	if err != nil {
		return nil, err
	}
	idx, err := in.Schema.Indices(p.Names)
	if err != nil {
		return nil, err
	}
	out := &ResultSet{Schema: schema, Rows: make([]Tuple, len(in.Rows))}
	for i, t := range in.Rows {
		out.Rows[i] = t.Project(idx)
	}
	return out, nil
}

// JoinPlan is an equi-join on attribute lists of equal length. The output
// schema qualifies every attribute as Rel.Attr using each input schema's
// name, so downstream predicates can disambiguate.
type JoinPlan struct {
	Left, Right           Plan
	LeftAttrs, RightAttrs []string
	// Outer, when true, makes this a left outer join: unmatched left rows
	// survive with nulls for the right side.
	Outer bool
}

// Run implements Plan. The build side is the right input (hash join).
func (p JoinPlan) Run() (*ResultSet, error) {
	if len(p.LeftAttrs) != len(p.RightAttrs) {
		return nil, fmt.Errorf("reldb: join attribute lists differ in length: %d vs %d",
			len(p.LeftAttrs), len(p.RightAttrs))
	}
	left, err := p.Left.Run()
	if err != nil {
		return nil, err
	}
	right, err := p.Right.Run()
	if err != nil {
		return nil, err
	}
	schema, err := joinedSchema(left.Schema, right.Schema)
	if err != nil {
		return nil, err
	}
	lidx, err := left.Schema.Indices(p.LeftAttrs)
	if err != nil {
		return nil, err
	}
	ridx, err := right.Schema.Indices(p.RightAttrs)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]Tuple, len(right.Rows))
	for _, rt := range right.Rows {
		k := rt.Project(ridx).Encode()
		build[k] = append(build[k], rt)
	}
	out := &ResultSet{Schema: schema}
	nulls := make(Tuple, right.Schema.Arity())
	for _, lt := range left.Rows {
		probe := lt.Project(lidx)
		if hasNull(probe) {
			if p.Outer {
				out.Rows = append(out.Rows, lt.Concat(nulls))
			}
			continue
		}
		matches := build[probe.Encode()]
		if len(matches) == 0 && p.Outer {
			out.Rows = append(out.Rows, lt.Concat(nulls))
			continue
		}
		for _, rt := range matches {
			out.Rows = append(out.Rows, lt.Concat(rt))
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

// joinedSchema concatenates two schemas, qualifying each attribute with
// its source schema name. If a source attribute is already qualified
// (contains a dot), it is kept as is. The joined key is the union of the
// two keys; all joined attributes are nullable (outer joins pad with null).
func joinedSchema(l, r *Schema) (*Schema, error) {
	attrs := make([]Attribute, 0, l.Arity()+r.Arity())
	var keyNames []string
	add := func(s *Schema) {
		for i := 0; i < s.Arity(); i++ {
			a := s.Attr(i)
			name := a.Name
			if !hasDot(name) {
				name = s.Name() + "." + a.Name
			}
			attrs = append(attrs, Attribute{Name: name, Type: a.Type, Nullable: true})
			if s.IsKeyAttr(i) {
				keyNames = append(keyNames, name)
			}
		}
	}
	add(l)
	add(r)
	return NewSchema(l.Name()+"*"+r.Name(), attrs, keyNames)
}

func hasDot(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return true
		}
	}
	return false
}

// QualifyPlan renames every attribute of its input to "Prefix.Name"
// (attributes already containing a dot are kept). It lets join chains
// address attributes uniformly by qualified name.
type QualifyPlan struct {
	Input  Plan
	Prefix string
}

// Run implements Plan.
func (p QualifyPlan) Run() (*ResultSet, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	s := in.Schema
	attrs := make([]Attribute, s.Arity())
	var keyNames []string
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		if !hasDot(a.Name) {
			a.Name = p.Prefix + "." + a.Name
		}
		attrs[i] = a
		if s.IsKeyAttr(i) {
			keyNames = append(keyNames, a.Name)
		}
	}
	schema, err := NewSchema(p.Prefix, attrs, keyNames)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Schema: schema, Rows: in.Rows}, nil
}
