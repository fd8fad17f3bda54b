package rql

import (
	"fmt"
	"slices"
	"strings"

	"penguin/internal/reldb"
)

// Outcome is the result of executing one statement: a result set for
// queries, an affected-row count for mutations and DDL.
type Outcome struct {
	// Rows is non-nil for SELECT statements.
	Rows *reldb.ResultSet
	// Affected counts tuples inserted, updated, or deleted.
	Affected int
	// Message describes DDL effects.
	Message string
}

// Exec parses and executes one RQL statement against db.
func Exec(db *reldb.Database, src string) (*Outcome, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Run(db, stmt)
}

// Run executes a parsed statement against db.
func Run(db *reldb.Database, stmt Stmt) (*Outcome, error) {
	switch st := stmt.(type) {
	case *CreateTableStmt:
		return runCreate(db, st)
	case *DropTableStmt:
		if err := db.DropRelation(st.Name); err != nil {
			return nil, err
		}
		return &Outcome{Message: "dropped " + st.Name}, nil
	case *InsertStmt:
		return runInsert(db, st)
	case *SelectStmt:
		return runSelect(db, st)
	case *UpdateStmt:
		return runUpdate(db, st)
	case *DeleteStmt:
		return runDelete(db, st)
	default:
		return nil, fmt.Errorf("rql: unknown statement type %T", stmt)
	}
}

func runCreate(db *reldb.Database, st *CreateTableStmt) (*Outcome, error) {
	attrs := make([]reldb.Attribute, len(st.Cols))
	for i, c := range st.Cols {
		attrs[i] = reldb.Attribute{Name: c.Name, Type: c.Type, Nullable: c.Nullable}
	}
	schema, err := reldb.NewSchema(st.Name, attrs, st.Key)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateRelation(schema); err != nil {
		return nil, err
	}
	return &Outcome{Message: "created " + st.Name}, nil
}

func runInsert(db *reldb.Database, st *InsertStmt) (*Outcome, error) {
	n := 0
	err := db.RunInTx(func(tx *reldb.Tx) error {
		rel, err := tx.Relation(st.Table)
		if err != nil {
			return err
		}
		schema := rel.Schema()
		var colIdx []int
		if len(st.Cols) > 0 {
			colIdx, err = schema.Indices(st.Cols)
			if err != nil {
				return err
			}
		}
		for _, row := range st.Rows {
			var tuple reldb.Tuple
			if colIdx == nil {
				if len(row) != schema.Arity() {
					return fmt.Errorf("rql: insert into %s: %d values, want %d",
						st.Table, len(row), schema.Arity())
				}
				tuple = make(reldb.Tuple, len(row))
				for i, e := range row {
					v, err := constEval(e)
					if err != nil {
						return err
					}
					tuple[i] = v
				}
			} else {
				if len(row) != len(colIdx) {
					return fmt.Errorf("rql: insert into %s: %d values, want %d",
						st.Table, len(row), len(colIdx))
				}
				tuple = make(reldb.Tuple, schema.Arity())
				for i, e := range row {
					v, err := constEval(e)
					if err != nil {
						return err
					}
					tuple[colIdx[i]] = v
				}
			}
			if err := tx.Insert(st.Table, tuple); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Affected: n}, nil
}

// constEval evaluates an expression with no row context (literals and
// arithmetic over them).
func constEval(e reldb.Expr) (reldb.Value, error) {
	return e.Eval(emptySchema, reldb.Row{})
}

var emptySchema = reldb.MustSchema("~empty", []reldb.Attribute{
	{Name: "~", Type: reldb.KindBool, Nullable: true},
}, []string{"~"})

// runSelect evaluates the query inside a snapshot-isolated read
// transaction: every relation it reads comes from one committed state, and
// concurrent writers are never blocked by a long-running query.
func runSelect(db *reldb.Database, st *SelectStmt) (*Outcome, error) {
	rtx := db.BeginRead()
	defer rtx.Close()
	rs, err := selectFrom(rtx, st)
	if err != nil {
		return nil, err
	}

	// Aggregates and grouping.
	hasAgg := false
	for _, item := range st.Items {
		if item.Agg != "" {
			hasAgg = true
			break
		}
	}
	if hasAgg || len(st.GroupBy) > 0 {
		var aggs []aggSpec
		for _, item := range st.Items {
			if item.Star {
				return nil, fmt.Errorf("rql: * cannot be combined with aggregates")
			}
			if item.Agg == "" {
				// Must be a group-by column.
				if name := item.Expr.String(); !slices.Contains(st.GroupBy, name) {
					return nil, fmt.Errorf("rql: column %s must appear in GROUP BY", name)
				}
				continue
			}
			spec := aggSpec{As: item.As}
			switch item.Agg {
			case "COUNT":
				spec.Func = aggCount
			case "SUM":
				spec.Func = aggSum
			case "MIN":
				spec.Func = aggMin
			case "MAX":
				spec.Func = aggMax
			case "AVG":
				spec.Func = aggAvg
			}
			if item.Expr != nil {
				spec.Attr = item.Expr.String()
			}
			aggs = append(aggs, spec)
		}
		rs, err = aggregate(rs, st.GroupBy, aggs)
	} else if !st.Items[0].Star {
		names := make([]string, len(st.Items))
		for i, item := range st.Items {
			names[i] = item.Expr.String()
		}
		rs, err = rs.Project(names)
	}
	if err != nil {
		return nil, err
	}
	if st.Distinct {
		rs = distinct(rs)
	}
	if len(st.OrderBy) > 0 {
		if rs, err = sortRows(rs, st.OrderBy, st.Desc); err != nil {
			return nil, err
		}
	}
	if st.Limit >= 0 {
		rs = limit(rs, st.Limit)
	}
	// Column aliases for plain projections.
	if !hasAgg && len(st.GroupBy) == 0 {
		rs = applyAliases(rs, st.Items)
	}
	return &Outcome{Rows: rs}, nil
}

// selectFrom returns the rows of the FROM clause that satisfy WHERE. One
// table is read through Relation.Select, so an equality on an indexed
// attribute probes and a range walks; a join chain is built by
// reldb.JoinChain and then filtered.
func selectFrom(rtx *reldb.ReadTx, st *SelectStmt) (*reldb.ResultSet, error) {
	if len(st.Joins) > 0 {
		rs, err := reldb.JoinChain(rtx, st.From, st.Joins)
		if err != nil {
			return nil, err
		}
		return rs.Filter(st.Where)
	}
	rel, err := rtx.Relation(st.From)
	if err != nil {
		return nil, err
	}
	rows, err := rel.Select(st.Where)
	if err != nil {
		return nil, err
	}
	return &reldb.ResultSet{Schema: rel.Schema(), Rows: rows}, nil
}

// applyAliases renames projected columns per AS clauses.
func applyAliases(rs *reldb.ResultSet, items []SelectItem) *reldb.ResultSet {
	renames := make(map[string]string)
	for _, item := range items {
		if item.As != "" && item.Expr != nil {
			renames[item.Expr.String()] = item.As
		}
	}
	if len(renames) == 0 {
		return rs
	}
	attrs := rs.Schema.Attrs()
	changed := false
	for i := range attrs {
		if as, ok := renames[attrs[i].Name]; ok {
			attrs[i].Name = as
			changed = true
		}
	}
	if !changed {
		return rs
	}
	keyNames := make([]string, 0)
	for _, k := range rs.Schema.Key() {
		keyNames = append(keyNames, attrs[k].Name)
	}
	schema, err := reldb.NewSchema(rs.Schema.Name(), attrs, keyNames)
	if err != nil {
		return rs
	}
	return &reldb.ResultSet{Schema: schema, Rows: rs.Rows}
}

func runUpdate(db *reldb.Database, st *UpdateStmt) (*Outcome, error) {
	n := 0
	// Match selection runs inside the transaction, so the rows updated are
	// exactly the rows that matched — no window for a concurrent writer
	// between read and write.
	err := db.RunInTx(func(tx *reldb.Tx) error {
		rel, err := tx.Relation(st.Table)
		if err != nil {
			return err
		}
		schema := rel.Schema()
		setIdx := make(map[int]reldb.Expr, len(st.Set))
		for col, e := range st.Set {
			i, ok := schema.AttrIndex(col)
			if !ok {
				return fmt.Errorf("rql: %s has no column %s", st.Table, col)
			}
			setIdx[i] = e
		}
		matches, err := rel.Select(st.Where)
		if err != nil {
			return err
		}
		for _, t := range matches {
			nt := t.Tuple()
			for i, e := range setIdx {
				v, err := e.Eval(schema, t)
				if err != nil {
					return err
				}
				nt[i] = v
			}
			if _, err := tx.Replace(st.Table, t.Key(schema), nt); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Affected: n}, nil
}

func runDelete(db *reldb.Database, st *DeleteStmt) (*Outcome, error) {
	n := 0
	err := db.RunInTx(func(tx *reldb.Tx) error {
		rel, err := tx.Relation(st.Table)
		if err != nil {
			return err
		}
		schema := rel.Schema()
		matches, err := rel.Select(st.Where)
		if err != nil {
			return err
		}
		for _, t := range matches {
			if _, err := tx.Delete(st.Table, t.Key(schema)); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Affected: n}, nil
}

// FormatResult renders a result set as an aligned text table for the REPL.
func FormatResult(rs *reldb.ResultSet) string {
	names := rs.Schema.AttrNames()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, rs.Len())
	for r := 0; r < rs.Len(); r++ {
		row := make([]string, len(names))
		for c := range names {
			row[c] = rs.Rows[r].At(c).String()
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
		cells[r] = row
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for c, v := range vals {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			b.WriteString(strings.Repeat(" ", widths[c]-len(v)))
		}
		b.WriteString("\n")
	}
	writeRow(names)
	sep := make([]string, len(names))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", rs.Len())
	return b.String()
}
