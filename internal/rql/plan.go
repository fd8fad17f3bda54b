package rql

import (
	"fmt"
	"sort"

	"penguin/internal/reldb"
)

// The plans below are RQL's own, stacked on reldb's Scan, Select,
// Project, Join and Qualify plans.

// sortPlan orders rows by the named attributes ascending (Desc flips all).
type sortPlan struct {
	Input reldb.Plan
	By    []string
	Desc  bool
}

// Run implements reldb.Plan.
func (p sortPlan) Run() (*reldb.ResultSet, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	idx, err := in.Schema.Indices(p.By)
	if err != nil {
		return nil, err
	}
	rows := make([]reldb.Tuple, len(in.Rows))
	copy(rows, in.Rows)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range idx {
			c, err := reldb.Compare(rows[i][k], rows[j][k])
			if err != nil || c == 0 {
				continue
			}
			if p.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return &reldb.ResultSet{Schema: in.Schema, Rows: rows}, nil
}

// distinctPlan removes duplicate rows (full-tuple equality).
type distinctPlan struct{ Input reldb.Plan }

// Run implements reldb.Plan.
func (p distinctPlan) Run() (*reldb.ResultSet, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(in.Rows))
	out := &reldb.ResultSet{Schema: in.Schema}
	for _, t := range in.Rows {
		k := t.Encode()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.Rows = append(out.Rows, t)
	}
	return out, nil
}

// limitPlan keeps at most N rows.
type limitPlan struct {
	Input reldb.Plan
	N     int
}

// Run implements reldb.Plan.
func (p limitPlan) Run() (*reldb.ResultSet, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	if len(in.Rows) > p.N {
		in = &reldb.ResultSet{Schema: in.Schema, Rows: in.Rows[:p.N]}
	}
	return in, nil
}

// aggFunc enumerates aggregate functions.
type aggFunc uint8

// Aggregate functions.
const (
	aggCount aggFunc = iota
	aggSum
	aggMin
	aggMax
	aggAvg
)

// String implements fmt.Stringer.
func (f aggFunc) String() string {
	switch f {
	case aggCount:
		return "count"
	case aggSum:
		return "sum"
	case aggMin:
		return "min"
	case aggMax:
		return "max"
	case aggAvg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// aggSpec names one aggregate column: Func over Attr (Attr empty for
// count(*)), output column As.
type aggSpec struct {
	Func aggFunc
	Attr string // empty means count(*)
	As   string
}

// aggregatePlan groups by the named attributes and computes aggregates.
// With no group-by attributes, it produces exactly one row.
type aggregatePlan struct {
	Input   reldb.Plan
	GroupBy []string
	Aggs    []aggSpec
}

// Run implements reldb.Plan.
func (p aggregatePlan) Run() (*reldb.ResultSet, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	gidx, err := in.Schema.Indices(p.GroupBy)
	if err != nil {
		return nil, err
	}
	type group struct {
		key    reldb.Tuple
		counts []int64
		sums   []float64
		mins   []reldb.Value
		maxs   []reldb.Value
		allInt []bool
	}
	newGroup := func(key reldb.Tuple) *group {
		g := &group{
			key:    key,
			counts: make([]int64, len(p.Aggs)),
			sums:   make([]float64, len(p.Aggs)),
			mins:   make([]reldb.Value, len(p.Aggs)),
			maxs:   make([]reldb.Value, len(p.Aggs)),
			allInt: make([]bool, len(p.Aggs)),
		}
		for i := range g.allInt {
			g.allInt[i] = true
		}
		return g
	}
	groups := make(map[string]*group)
	var order []string
	for _, t := range in.Rows {
		key := t.Project(gidx)
		ek := key.Encode()
		g, ok := groups[ek]
		if !ok {
			g = newGroup(key)
			groups[ek] = g
			order = append(order, ek)
		}
		for i, spec := range p.Aggs {
			if spec.Attr == "" { // count(*)
				g.counts[i]++
				continue
			}
			ai, ok := in.Schema.AttrIndex(spec.Attr)
			if !ok {
				return nil, fmt.Errorf("reldb: aggregate over unknown attribute %s", spec.Attr)
			}
			v := t[ai]
			if v.IsNull() {
				continue
			}
			g.counts[i]++
			if f, ok := v.AsFloat(); ok {
				g.sums[i] += f
				if v.Kind() != reldb.KindInt {
					g.allInt[i] = false
				}
			}
			if g.mins[i].IsNull() {
				g.mins[i] = v
				g.maxs[i] = v
			} else {
				if c, err := reldb.Compare(v, g.mins[i]); err == nil && c < 0 {
					g.mins[i] = v
				}
				if c, err := reldb.Compare(v, g.maxs[i]); err == nil && c > 0 {
					g.maxs[i] = v
				}
			}
		}
	}
	// With no groups and no group-by, emit the single empty group so that
	// count(*) over an empty input is 0, matching SQL.
	if len(groups) == 0 && len(p.GroupBy) == 0 {
		ek := reldb.Tuple{}.Encode()
		groups[ek] = newGroup(reldb.Tuple{})
		order = append(order, ek)
	}
	// Output schema: group-by attributes followed by aggregate columns.
	attrs := make([]reldb.Attribute, 0, len(gidx)+len(p.Aggs))
	for _, gi := range gidx {
		attrs = append(attrs, in.Schema.Attr(gi))
	}
	for i, spec := range p.Aggs {
		name := spec.As
		if name == "" {
			name = spec.Func.String()
			if spec.Attr != "" {
				name += "_" + spec.Attr
			}
		}
		kind := reldb.KindFloat
		if spec.Func == aggCount {
			kind = reldb.KindInt
		}
		attrs = append(attrs, reldb.Attribute{Name: name, Type: kind, Nullable: true})
		p.Aggs[i].As = name
	}
	keyNames := append([]string(nil), p.GroupBy...)
	if len(keyNames) == 0 {
		keyNames = []string{attrs[0].Name}
	}
	schema, err := reldb.NewSchema(in.Schema.Name()+"!agg", attrs, keyNames)
	if err != nil {
		return nil, err
	}
	sort.Strings(order)
	out := &reldb.ResultSet{Schema: schema}
	for _, ek := range order {
		g := groups[ek]
		row := make(reldb.Tuple, 0, len(attrs))
		row = append(row, g.key...)
		for i, spec := range p.Aggs {
			switch spec.Func {
			case aggCount:
				row = append(row, reldb.Int(g.counts[i]))
			case aggSum:
				row = append(row, numValue(g.sums[i], g.allInt[i], g.counts[i]))
			case aggAvg:
				if g.counts[i] == 0 {
					row = append(row, reldb.Null())
				} else {
					row = append(row, reldb.Float(g.sums[i]/float64(g.counts[i])))
				}
			case aggMin:
				row = append(row, g.mins[i])
			case aggMax:
				row = append(row, g.maxs[i])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func numValue(sum float64, allInt bool, count int64) reldb.Value {
	if count == 0 {
		return reldb.Null()
	}
	if allInt {
		return reldb.Int(int64(sum))
	}
	return reldb.Float(sum)
}
