package reldb

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression evaluated against a Row read under a
// schema. Expressions use SQL-style three-valued logic: comparisons
// involving null evaluate to null, which predicates treat as false.
type Expr interface {
	// Eval computes the expression's value for row r of schema s.
	Eval(*Schema, Row) (Value, error)
	// String renders the expression in RQL syntax.
	String() string
}

// Const is a literal value.
type Const struct{ V Value }

// Eval implements Expr.
func (c Const) Eval(*Schema, Row) (Value, error) { return c.V, nil }

// String implements Expr.
func (c Const) String() string { return c.V.Literal() }

// Attr references an attribute by name, optionally qualified by relation
// name (Rel.Attr). Unqualified references resolve against the row schema;
// qualified references additionally require the schema name to match or
// the row to carry a joined schema exposing the qualified name.
type Attr struct {
	Rel  string // optional qualifier
	Name string
}

// Eval implements Expr.
func (a Attr) Eval(s *Schema, r Row) (Value, error) {
	i, err := a.index(s)
	if err != nil {
		return Null(), err
	}
	return r.At(i), nil
}

// index resolves the reference against schema s.
func (a Attr) index(s *Schema) (int, error) {
	if a.Rel != "" {
		if i, ok := s.AttrIndex(a.Rel + "." + a.Name); ok {
			return i, nil
		}
		if s.Name() != a.Rel {
			return 0, fmt.Errorf("reldb: attribute %s.%s not found in %s", a.Rel, a.Name, s.Name())
		}
	}
	i, ok := s.AttrIndex(a.Name)
	if !ok {
		return 0, fmt.Errorf("reldb: attribute %s not found in %s", a.Name, s.Name())
	}
	return i, nil
}

// String implements Expr.
func (a Attr) String() string {
	if a.Rel != "" {
		return a.Rel + "." + a.Name
	}
	return a.Name
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(op))
	}
}

// Cmp is a binary comparison. A comparison with a null operand evaluates
// to null.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(s *Schema, r Row) (Value, error) {
	lv, err := c.L.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	rv, err := c.R.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	cmp, err := Compare(lv, rv)
	if err != nil {
		return Null(), fmt.Errorf("reldb: %s: %w", c, err)
	}
	switch c.Op {
	case OpEq:
		return Bool(cmp == 0), nil
	case OpNe:
		return Bool(cmp != 0), nil
	case OpLt:
		return Bool(cmp < 0), nil
	case OpLe:
		return Bool(cmp <= 0), nil
	case OpGt:
		return Bool(cmp > 0), nil
	case OpGe:
		return Bool(cmp >= 0), nil
	default:
		return Null(), fmt.Errorf("reldb: unknown comparison %v", c.Op)
	}
}

// String implements Expr.
func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// And is n-ary conjunction with three-valued logic.
type And struct{ Terms []Expr }

// Eval implements Expr.
func (a And) Eval(s *Schema, r Row) (Value, error) {
	sawNull := false
	for _, t := range a.Terms {
		v, err := t.Eval(s, r)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		b, ok := v.AsBool()
		if !ok {
			return Null(), fmt.Errorf("reldb: AND operand %s is not boolean", t)
		}
		if !b {
			return Bool(false), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(true), nil
}

// String implements Expr.
func (a And) String() string { return joinExprs(a.Terms, " and ") }

// Or is n-ary disjunction with three-valued logic.
type Or struct{ Terms []Expr }

// Eval implements Expr.
func (o Or) Eval(s *Schema, r Row) (Value, error) {
	sawNull := false
	for _, t := range o.Terms {
		v, err := t.Eval(s, r)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		b, ok := v.AsBool()
		if !ok {
			return Null(), fmt.Errorf("reldb: OR operand %s is not boolean", t)
		}
		if b {
			return Bool(true), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(false), nil
}

// String implements Expr.
func (o Or) String() string { return "(" + joinExprs(o.Terms, " or ") + ")" }

// Not negates a boolean expression; not(null) is null.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(s *Schema, r Row) (Value, error) {
	v, err := n.E.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	b, ok := v.AsBool()
	if !ok {
		return Null(), fmt.Errorf("reldb: NOT operand %s is not boolean", n.E)
	}
	return Bool(!b), nil
}

// String implements Expr.
func (n Not) String() string { return "not (" + n.E.String() + ")" }

// IsNull tests an expression for null; never itself evaluates to null.
type IsNull struct {
	E      Expr
	Negate bool // IS NOT NULL
}

// Eval implements Expr.
func (i IsNull) Eval(s *Schema, r Row) (Value, error) {
	v, err := i.E.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	res := v.IsNull()
	if i.Negate {
		res = !res
	}
	return Bool(res), nil
}

// String implements Expr.
func (i IsNull) String() string {
	if i.Negate {
		return i.E.String() + " is not null"
	}
	return i.E.String() + " is null"
}

// In tests membership of an expression in a literal list.
type In struct {
	E    Expr
	List []Expr
}

// Eval implements Expr.
func (in In) Eval(s *Schema, r Row) (Value, error) {
	v, err := in.E.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, le := range in.List {
		lv, err := le.Eval(s, r)
		if err != nil {
			return Null(), err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if c, err := Compare(v, lv); err == nil && c == 0 {
			return Bool(true), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(false), nil
}

// String implements Expr.
func (in In) String() string {
	return in.E.String() + " in (" + joinExprs(in.List, ", ") + ")"
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

// String implements fmt.Stringer.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return fmt.Sprintf("arith(%d)", uint8(op))
	}
}

// Arith is binary arithmetic over int and float values. Mixed int/float
// promotes to float; integer division by zero is an error; any null
// operand yields null.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(s *Schema, r Row) (Value, error) {
	lv, err := a.L.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	rv, err := a.R.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	if lv.Kind() == KindInt && rv.Kind() == KindInt {
		li, _ := lv.AsInt()
		ri, _ := rv.AsInt()
		switch a.Op {
		case OpAdd:
			return Int(li + ri), nil
		case OpSub:
			return Int(li - ri), nil
		case OpMul:
			return Int(li * ri), nil
		case OpDiv:
			if ri == 0 {
				return Null(), fmt.Errorf("reldb: division by zero in %s", a)
			}
			return Int(li / ri), nil
		}
	}
	lf, lok := lv.AsFloat()
	rf, rok := rv.AsFloat()
	if !lok || !rok {
		return Null(), fmt.Errorf("reldb: arithmetic on non-numeric operands in %s", a)
	}
	switch a.Op {
	case OpAdd:
		return Float(lf + rf), nil
	case OpSub:
		return Float(lf - rf), nil
	case OpMul:
		return Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return Null(), fmt.Errorf("reldb: division by zero in %s", a)
		}
		return Float(lf / rf), nil
	}
	return Null(), fmt.Errorf("reldb: unknown arithmetic op %v", a.Op)
}

// String implements Expr.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Like is a simple pattern match: % matches any run, _ matches one rune.
type Like struct {
	E       Expr
	Pattern string
}

// Eval implements Expr.
func (l Like) Eval(s *Schema, r Row) (Value, error) {
	v, err := l.E.Eval(s, r)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	str, ok := v.AsString()
	if !ok {
		return Null(), fmt.Errorf("reldb: LIKE on non-string operand %s", l.E)
	}
	return Bool(likeMatch(l.Pattern, str)), nil
}

// String implements Expr.
func (l Like) String() string {
	return l.E.String() + " like " + String(l.Pattern).Literal()
}

func likeMatch(pattern, s string) bool {
	p := []rune(pattern)
	t := []rune(s)
	var match func(pi, ti int) bool
	match = func(pi, ti int) bool {
		for pi < len(p) {
			switch p[pi] {
			case '%':
				for skip := ti; skip <= len(t); skip++ {
					if match(pi+1, skip) {
						return true
					}
				}
				return false
			case '_':
				if ti >= len(t) {
					return false
				}
				pi++
				ti++
			default:
				if ti >= len(t) || t[ti] != p[pi] {
					return false
				}
				pi++
				ti++
			}
		}
		return ti == len(t)
	}
	return match(0, 0)
}

// EvalBool evaluates e as a predicate: null counts as false.
func EvalBool(e Expr, s *Schema, r Row) (bool, error) {
	v, err := e.Eval(s, r)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("reldb: predicate %s evaluated to non-boolean %s", e, v)
	}
	return b, nil
}

// CheckExpr resolves every attribute reference in e against schema s,
// reading no row: it refuses what evaluating e would refuse on the first
// row that reached the bad reference, whatever rows there are.
func CheckExpr(e Expr, s *Schema) error {
	var sub []Expr
	switch x := e.(type) {
	case Attr:
		_, err := x.index(s)
		return err
	case Cmp:
		sub = []Expr{x.L, x.R}
	case Arith:
		sub = []Expr{x.L, x.R}
	case And:
		sub = x.Terms
	case Or:
		sub = x.Terms
	case Not:
		sub = []Expr{x.E}
	case IsNull:
		sub = []Expr{x.E}
	case Like:
		sub = []Expr{x.E}
	case In:
		sub = append([]Expr{x.E}, x.List...)
	}
	for _, se := range sub {
		if err := CheckExpr(se, s); err != nil {
			return err
		}
	}
	return nil
}

// Eq is shorthand for an attribute = constant comparison.
func Eq(attr string, v Value) Expr {
	return Cmp{Op: OpEq, L: Attr{Name: attr}, R: Const{V: v}}
}

// AndAll conjoins expressions, simplifying the 0- and 1-term cases.
func AndAll(terms ...Expr) Expr {
	switch len(terms) {
	case 0:
		return Const{V: Bool(true)}
	case 1:
		return terms[0]
	default:
		return And{Terms: terms}
	}
}

func joinExprs(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}
