package rql

import (
	"penguin/internal/reldb"
)

// Stmt is a parsed RQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt defines a new relation.
type CreateTableStmt struct {
	Name string
	Cols []ColumnDef
	Key  []string
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name     string
	Type     reldb.Kind
	Nullable bool
}

// DropTableStmt removes a relation.
type DropTableStmt struct{ Name string }

// InsertStmt adds tuples to a relation.
type InsertStmt struct {
	Table string
	// Cols optionally names the attributes the rows supply (missing
	// attributes become null); empty means all attributes in order.
	Cols []string
	Rows [][]reldb.Expr
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	// Star selects every column ("*").
	Star bool
	// Agg is non-empty for aggregate items: COUNT, SUM, MIN, MAX, AVG.
	Agg string
	// Expr is the column reference (nil for COUNT(*) and for Star).
	Expr *reldb.Attr
	// As renames the output column.
	As string
}

// SelectStmt is a query.
type SelectStmt struct {
	Items    []SelectItem
	Distinct bool
	From     string
	Joins    []reldb.Join // the FROM chain past From, in order
	Where    reldb.Expr
	GroupBy  []string
	OrderBy  []string
	Desc     bool
	Limit    int // -1 when absent
}

// UpdateStmt modifies tuples in place.
type UpdateStmt struct {
	Table string
	Set   map[string]reldb.Expr
	Where reldb.Expr
}

// DeleteStmt removes tuples.
type DeleteStmt struct {
	Table string
	Where reldb.Expr
}

func (*CreateTableStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
