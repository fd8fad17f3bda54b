package rql

import (
	"fmt"
	"sort"

	"penguin/internal/reldb"
)

// RQL's operators past the FROM/WHERE rows (which reldb.JoinChain or
// Relation.Select produce): sort, distinct, limit and aggregate, each a
// function from one ResultSet to the next.

// sortRows orders rows by the named attributes ascending (desc flips all).
func sortRows(in *reldb.ResultSet, by []string, desc bool) (*reldb.ResultSet, error) {
	idx, err := in.Schema.Indices(by)
	if err != nil {
		return nil, err
	}
	rows := make([]reldb.Row, len(in.Rows))
	copy(rows, in.Rows)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range idx {
			c, err := reldb.Compare(rows[i].At(k), rows[j].At(k))
			if err != nil || c == 0 {
				continue
			}
			if desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return &reldb.ResultSet{Schema: in.Schema, Rows: rows}, nil
}

// distinct removes duplicate rows (full-tuple equality).
func distinct(in *reldb.ResultSet) *reldb.ResultSet {
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
	return out
}

// limit keeps at most n rows.
func limit(in *reldb.ResultSet, n int) *reldb.ResultSet {
	if len(in.Rows) > n {
		return &reldb.ResultSet{Schema: in.Schema, Rows: in.Rows[:n]}
	}
	return in
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

// aggregate groups by the named attributes and computes aggs. With no
// group-by attributes, it produces exactly one row. Every attribute is
// resolved against the input schema before any row is read, so a bad
// one is refused whatever the rows are.
func aggregate(in *reldb.ResultSet, groupBy []string, aggs []aggSpec) (*reldb.ResultSet, error) {
	gidx, err := in.Schema.Indices(groupBy)
	if err != nil {
		return nil, err
	}
	// aidx[i] is the index of aggs[i]'s attribute, -1 for count(*).
	aidx := make([]int, len(aggs))
	for i, spec := range aggs {
		aidx[i] = -1
		if spec.Attr == "" {
			continue
		}
		ai, ok := in.Schema.AttrIndex(spec.Attr)
		if !ok {
			return nil, fmt.Errorf("rql: aggregate over unknown attribute %s", spec.Attr)
		}
		aidx[i] = ai
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
			counts: make([]int64, len(aggs)),
			sums:   make([]float64, len(aggs)),
			mins:   make([]reldb.Value, len(aggs)),
			maxs:   make([]reldb.Value, len(aggs)),
			allInt: make([]bool, len(aggs)),
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
		for i, ai := range aidx {
			if ai < 0 { // count(*)
				g.counts[i]++
				continue
			}
			v := t.At(ai)
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
	if len(groups) == 0 && len(groupBy) == 0 {
		ek := reldb.Tuple{}.Encode()
		groups[ek] = newGroup(reldb.Tuple{})
		order = append(order, ek)
	}
	// Output schema: group-by attributes followed by aggregate columns.
	attrs := make([]reldb.Attribute, 0, len(gidx)+len(aggs))
	for _, gi := range gidx {
		attrs = append(attrs, in.Schema.Attr(gi))
	}
	for _, spec := range aggs {
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
	}
	keyNames := append([]string(nil), groupBy...)
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
		for i, spec := range aggs {
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
		out.Rows = append(out.Rows, reldb.RowOf(row))
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
