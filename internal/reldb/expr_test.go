package reldb

import (
	"strings"
	"testing"
)

// evalRow is a row and the schema an expression reads it under.
type evalRow struct {
	s *Schema
	r Row
}

func exprRow(t *testing.T) evalRow {
	t.Helper()
	s := MustSchema("R", []Attribute{
		{Name: "A", Type: KindInt},
		{Name: "B", Type: KindString, Nullable: true},
		{Name: "C", Type: KindFloat, Nullable: true},
		{Name: "D", Type: KindBool, Nullable: true},
	}, []string{"A"})
	return evalRow{s, RowOf(Tuple{Int(10), String("hi"), Float(2.5), Bool(true)})}
}

func mustEval(t *testing.T, e Expr, r evalRow) Value {
	t.Helper()
	v, err := e.Eval(r.s, r.r)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestConstAndAttr(t *testing.T) {
	r := exprRow(t)
	if v := mustEval(t, Const{V: Int(5)}, r); !v.Equal(Int(5)) {
		t.Fatalf("const = %v", v)
	}
	if v := mustEval(t, Attr{Name: "B"}, r); !v.Equal(String("hi")) {
		t.Fatalf("attr = %v", v)
	}
	if v := mustEval(t, Attr{Rel: "R", Name: "A"}, r); !v.Equal(Int(10)) {
		t.Fatalf("qualified attr = %v", v)
	}
	if _, err := (Attr{Name: "Z"}).Eval(r.s, r.r); err == nil {
		t.Fatal("unknown attr should fail")
	}
	if _, err := (Attr{Rel: "S", Name: "A"}).Eval(r.s, r.r); err == nil {
		t.Fatal("wrong qualifier should fail")
	}
}

func TestAttrQualifiedAgainstJoinedSchema(t *testing.T) {
	s := MustSchema("J", []Attribute{
		{Name: "R.A", Type: KindInt, Nullable: true},
		{Name: "S.A", Type: KindInt, Nullable: true},
	}, []string{"R.A"})
	r := evalRow{s, RowOf(Tuple{Int(1), Int(2)})}
	if v := mustEval(t, Attr{Rel: "S", Name: "A"}, r); !v.Equal(Int(2)) {
		t.Fatalf("joined qualified attr = %v", v)
	}
}

func TestComparisons(t *testing.T) {
	r := exprRow(t)
	cases := []struct {
		e    Expr
		want bool
	}{
		{Cmp{OpEq, Attr{Name: "A"}, Const{Int(10)}}, true},
		{Cmp{OpNe, Attr{Name: "A"}, Const{Int(10)}}, false},
		{Cmp{OpLt, Attr{Name: "A"}, Const{Int(11)}}, true},
		{Cmp{OpLe, Attr{Name: "A"}, Const{Int(10)}}, true},
		{Cmp{OpGt, Attr{Name: "A"}, Const{Int(10)}}, false},
		{Cmp{OpGe, Attr{Name: "A"}, Const{Int(10)}}, true},
		{Cmp{OpEq, Attr{Name: "C"}, Const{Float(2.5)}}, true},
		{Cmp{OpLt, Attr{Name: "B"}, Const{String("zz")}}, true},
	}
	for _, c := range cases {
		v := mustEval(t, c.e, r)
		if b, _ := v.AsBool(); b != c.want {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestCmpNullPropagates(t *testing.T) {
	r := exprRow(t)
	e := Cmp{OpEq, Attr{Name: "A"}, Const{Null()}}
	if v := mustEval(t, e, r); !v.IsNull() {
		t.Fatalf("cmp with null = %v, want null", v)
	}
	// EvalBool treats null as false.
	b, err := EvalBool(e, r.s, r.r)
	if err != nil || b {
		t.Fatalf("EvalBool(null) = %v, %v", b, err)
	}
}

func TestCmpTypeMismatchErrors(t *testing.T) {
	r := exprRow(t)
	e := Cmp{OpEq, Attr{Name: "A"}, Const{String("x")}}
	if _, err := e.Eval(r.s, r.r); err == nil {
		t.Fatal("int vs string compare should error")
	}
}

func TestLogicalOps(t *testing.T) {
	r := exprRow(t)
	tr := Const{Bool(true)}
	fa := Const{Bool(false)}
	nu := Const{Null()}
	cases := []struct {
		e    Expr
		want Value
	}{
		{And{[]Expr{tr, tr}}, Bool(true)},
		{And{[]Expr{tr, fa}}, Bool(false)},
		{And{[]Expr{fa, nu}}, Bool(false)}, // false dominates null
		{And{[]Expr{tr, nu}}, Null()},
		{And{nil}, Bool(true)}, // empty conjunction
		{Or{[]Expr{fa, tr}}, Bool(true)},
		{Or{[]Expr{fa, fa}}, Bool(false)},
		{Or{[]Expr{tr, nu}}, Bool(true)}, // true dominates null
		{Or{[]Expr{fa, nu}}, Null()},
		{Or{nil}, Bool(false)}, // empty disjunction
		{Not{tr}, Bool(false)},
		{Not{fa}, Bool(true)},
		{Not{nu}, Null()},
	}
	for _, c := range cases {
		v := mustEval(t, c.e, r)
		if !v.Equal(c.want) && !(v.IsNull() && c.want.IsNull()) {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
	// Non-boolean operands error.
	if _, err := (And{[]Expr{Const{Int(1)}}}).Eval(r.s, r.r); err == nil {
		t.Error("And over int should fail")
	}
	if _, err := (Or{[]Expr{Const{Int(1)}}}).Eval(r.s, r.r); err == nil {
		t.Error("Or over int should fail")
	}
	if _, err := (Not{Const{Int(1)}}).Eval(r.s, r.r); err == nil {
		t.Error("Not over int should fail")
	}
}

func TestIsNull(t *testing.T) {
	r := exprRow(t)
	if v := mustEval(t, IsNull{E: Const{Null()}}, r); !v.Equal(Bool(true)) {
		t.Fatalf("is null = %v", v)
	}
	if v := mustEval(t, IsNull{E: Attr{Name: "A"}}, r); !v.Equal(Bool(false)) {
		t.Fatalf("is null on int = %v", v)
	}
	if v := mustEval(t, IsNull{E: Const{Null()}, Negate: true}, r); !v.Equal(Bool(false)) {
		t.Fatalf("is not null = %v", v)
	}
}

func TestIn(t *testing.T) {
	r := exprRow(t)
	in := In{E: Attr{Name: "A"}, List: []Expr{Const{Int(1)}, Const{Int(10)}}}
	if v := mustEval(t, in, r); !v.Equal(Bool(true)) {
		t.Fatalf("in = %v", v)
	}
	notIn := In{E: Attr{Name: "A"}, List: []Expr{Const{Int(1)}}}
	if v := mustEval(t, notIn, r); !v.Equal(Bool(false)) {
		t.Fatalf("not in = %v", v)
	}
	// Null element: unknown unless a match is found.
	withNull := In{E: Attr{Name: "A"}, List: []Expr{Const{Null()}}}
	if v := mustEval(t, withNull, r); !v.IsNull() {
		t.Fatalf("in with null list = %v", v)
	}
	matchDespiteNull := In{E: Attr{Name: "A"}, List: []Expr{Const{Null()}, Const{Int(10)}}}
	if v := mustEval(t, matchDespiteNull, r); !v.Equal(Bool(true)) {
		t.Fatalf("in match with null = %v", v)
	}
	nullNeedle := In{E: Const{Null()}, List: []Expr{Const{Int(1)}}}
	if v := mustEval(t, nullNeedle, r); !v.IsNull() {
		t.Fatalf("null in list = %v", v)
	}
}

func TestArith(t *testing.T) {
	r := exprRow(t)
	cases := []struct {
		e    Expr
		want Value
	}{
		{Arith{OpAdd, Const{Int(2)}, Const{Int(3)}}, Int(5)},
		{Arith{OpSub, Const{Int(2)}, Const{Int(3)}}, Int(-1)},
		{Arith{OpMul, Const{Int(4)}, Const{Int(3)}}, Int(12)},
		{Arith{OpDiv, Const{Int(7)}, Const{Int(2)}}, Int(3)},
		{Arith{OpAdd, Const{Float(1.5)}, Const{Int(1)}}, Float(2.5)},
		{Arith{OpDiv, Const{Float(5)}, Const{Float(2)}}, Float(2.5)},
		{Arith{OpMul, Attr{Name: "C"}, Const{Int(2)}}, Float(5)},
	}
	for _, c := range cases {
		v := mustEval(t, c.e, r)
		if !v.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
	if _, err := (Arith{OpDiv, Const{Int(1)}, Const{Int(0)}}).Eval(r.s, r.r); err == nil {
		t.Error("int division by zero should fail")
	}
	if _, err := (Arith{OpDiv, Const{Float(1)}, Const{Float(0)}}).Eval(r.s, r.r); err == nil {
		t.Error("float division by zero should fail")
	}
	if _, err := (Arith{OpAdd, Const{String("a")}, Const{Int(1)}}).Eval(r.s, r.r); err == nil {
		t.Error("arith on string should fail")
	}
	if v := mustEval(t, Arith{OpAdd, Const{Null()}, Const{Int(1)}}, r); !v.IsNull() {
		t.Errorf("arith with null = %v", v)
	}
}

func TestLike(t *testing.T) {
	r := exprRow(t)
	cases := []struct {
		pattern string
		s       string
		want    bool
	}{
		{"hi", "hi", true},
		{"h_", "hi", true},
		{"h%", "hello", true},
		{"%llo", "hello", true},
		{"%e%", "hello", true},
		{"h%o", "hello", true},
		{"", "", true},
		{"%", "", true},
		{"_", "", false},
		{"h", "hi", false},
		{"%x%", "hello", false},
		{"a%b%c", "aXXbYYc", true},
	}
	for _, c := range cases {
		e := Like{E: Const{String(c.s)}, Pattern: c.pattern}
		v := mustEval(t, e, r)
		if b, _ := v.AsBool(); b != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v", c.pattern, c.s, v, c.want)
		}
	}
	if v := mustEval(t, Like{E: Const{Null()}, Pattern: "%"}, r); !v.IsNull() {
		t.Error("LIKE on null should be null")
	}
	if _, err := (Like{E: Const{Int(1)}, Pattern: "%"}).Eval(r.s, r.r); err == nil {
		t.Error("LIKE on int should fail")
	}
}

func TestExprStrings(t *testing.T) {
	e := AndAll(
		Eq("A", Int(1)),
		Or{[]Expr{Cmp{OpGt, Attr{Name: "C"}, Const{Float(2)}}, IsNull{E: Attr{Name: "B"}}}},
		Not{In{E: Attr{Name: "A"}, List: []Expr{Const{Int(1)}, Const{Int(2)}}}},
		Like{E: Attr{Name: "B"}, Pattern: "h%"},
	)
	s := e.String()
	for _, want := range []string{"A = 1", "C > 2", "B is null", "not (A in (1, 2))", `B like "h%"`, " and ", " or "} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if got := (IsNull{E: Attr{Name: "B"}, Negate: true}).String(); got != "B is not null" {
		t.Errorf("is-not-null String = %q", got)
	}
	if got := (Attr{Rel: "R", Name: "A"}).String(); got != "R.A" {
		t.Errorf("qualified attr String = %q", got)
	}
	if got := (Arith{OpAdd, Attr{Name: "A"}, Const{Int(1)}}).String(); got != "(A + 1)" {
		t.Errorf("arith String = %q", got)
	}
}

func TestAndAllSimplification(t *testing.T) {
	r := exprRow(t)
	if v := mustEval(t, AndAll(), r); !v.Equal(Bool(true)) {
		t.Fatal("empty AndAll should be true")
	}
	one := Eq("A", Int(10))
	if got := AndAll(one); got.String() != one.String() {
		t.Fatal("single-term AndAll should not wrap")
	}
}

func TestEvalBoolErrors(t *testing.T) {
	r := exprRow(t)
	if _, err := EvalBool(Const{Int(3)}, r.s, r.r); err == nil {
		t.Fatal("non-boolean predicate should error")
	}
	if _, err := EvalBool(Attr{Name: "Z"}, r.s, r.r); err == nil {
		t.Fatal("eval error should propagate")
	}
}

func TestOpStringsExhaustive(t *testing.T) {
	wantCmp := map[CmpOp]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, s := range wantCmp {
		if op.String() != s {
			t.Errorf("%v.String() = %q", op, op.String())
		}
	}
	wantArith := map[ArithOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}
	for op, s := range wantArith {
		if op.String() != s {
			t.Errorf("%v.String() = %q", op, op.String())
		}
	}
}
