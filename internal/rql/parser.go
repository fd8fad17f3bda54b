package rql

import (
	"fmt"
	"strconv"
	"strings"

	"penguin/internal/reldb"
)

// parser consumes a token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses one RQL statement (an optional trailing semicolon is
// consumed).
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("rql: unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseExpr parses a standalone boolean/scalar expression. The object
// query language reuses this entry point for its predicates.
func ParseExpr(src string) (reldb.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("rql: unexpected %s after expression", p.peek())
	}
	return e, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{tokIdent: "identifier", tokNumber: "number", tokString: "string"}[kind]
	}
	return token{}, fmt.Errorf("rql: expected %s, found %s", want, p.peek())
}

func (p *parser) keyword(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.keyword("CREATE"):
		return p.parseCreate()
	case p.keyword("DROP"):
		return p.parseDrop()
	case p.keyword("INSERT"):
		return p.parseInsert()
	case p.keyword("SELECT"):
		return p.parseSelect()
	case p.keyword("UPDATE"):
		return p.parseUpdate()
	case p.keyword("DELETE"):
		return p.parseDelete()
	default:
		return nil, fmt.Errorf("rql: expected a statement, found %s", p.peek())
	}
}

func (p *parser) parseCreate() (Stmt, error) {
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name.text}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typTok := p.next()
		if typTok.kind != tokIdent && typTok.kind != tokKeyword {
			return nil, fmt.Errorf("rql: expected a type name, found %s", typTok)
		}
		kind, err := reldb.ParseKind(typTok.text)
		if err != nil {
			return nil, err
		}
		def := ColumnDef{Name: col.text, Type: kind}
		if p.keyword("NULL") {
			def.Nullable = true
		} else if p.keyword("NOT") {
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
		}
		st.Cols = append(st.Cols, def)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "KEY"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		k, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		st.Key = append(st.Key, k.text)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name.text}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name.text}
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c.text)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []reldb.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.keyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	st.From = from.text
	for {
		outer := false
		if p.keyword("LEFT") {
			p.keyword("OUTER")
			outer = true
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		} else if !p.keyword("JOIN") {
			break
		}
		tbl, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		jc := reldb.Join{Relation: tbl.text, Outer: outer}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		for {
			l, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, "="); err != nil {
				return nil, err
			}
			r, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			jc.LeftAttrs = append(jc.LeftAttrs, l.text)
			jc.RightAttrs = append(jc.RightAttrs, r.text)
			if p.keyword("AND") {
				continue
			}
			break
		}
		st.Joins = append(st.Joins, jc)
	}
	if p.keyword("WHERE") {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.keyword("GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, g.text)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.keyword("ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			o, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			st.OrderBy = append(st.OrderBy, o.text)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if p.keyword("DESC") {
			st.Desc = true
		} else {
			p.keyword("ASC")
		}
	}
	if p.keyword("LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.Atoi(n.text)
		if err != nil || limit < 0 {
			return nil, fmt.Errorf("rql: bad LIMIT %q", n.text)
		}
		st.Limit = limit
	}
	return st, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	for _, agg := range []string{"COUNT", "SUM", "MIN", "MAX", "AVG"} {
		if p.keyword(agg) {
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: agg}
			if !p.accept(tokSymbol, "*") {
				id, err := p.expect(tokIdent, "")
				if err != nil {
					return SelectItem{}, err
				}
				attr := identToAttr(id.text)
				item.Expr = &attr
			} else if agg != "COUNT" {
				return SelectItem{}, fmt.Errorf("rql: %s(*) is not defined", agg)
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return SelectItem{}, err
			}
			if p.keyword("AS") {
				as, err := p.expect(tokIdent, "")
				if err != nil {
					return SelectItem{}, err
				}
				item.As = as.text
			}
			return item, nil
		}
	}
	id, err := p.expect(tokIdent, "")
	if err != nil {
		return SelectItem{}, err
	}
	attr := identToAttr(id.text)
	item := SelectItem{Expr: &attr}
	if p.keyword("AS") {
		as, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.As = as.text
	}
	return item, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name.text, Set: make(map[string]reldb.Expr)}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set[col.text] = e
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.keyword("WHERE") {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name.text}
	if p.keyword("WHERE") {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Expression grammar, by descending precedence:
//
//	or   := and (OR and)*
//	and  := not (AND not)*
//	not  := NOT not | cmp
//	cmp  := add ((= != < <= > >=) add | IS [NOT] NULL | IN (list) | LIKE str)?
//	add  := mul ((+ -) mul)*
//	mul  := unary ((* /) unary)*
//	unary:= - unary | primary
//	prim := literal | ident | ( or )
func (p *parser) parseExpr() (reldb.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (reldb.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []reldb.Expr{left}
	for p.keyword("OR") {
		t, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return reldb.Or{Terms: terms}, nil
}

func (p *parser) parseAnd() (reldb.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	terms := []reldb.Expr{left}
	for p.keyword("AND") {
		t, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return reldb.And{Terms: terms}, nil
}

func (p *parser) parseNot() (reldb.Expr, error) {
	if p.keyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return reldb.Not{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]reldb.CmpOp{
	"=": reldb.OpEq, "!=": reldb.OpNe,
	"<": reldb.OpLt, "<=": reldb.OpLe,
	">": reldb.OpGt, ">=": reldb.OpGe,
}

func (p *parser) parseCmp() (reldb.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol {
		if op, ok := cmpOps[p.peek().text]; ok {
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return reldb.Cmp{Op: op, L: left, R: right}, nil
		}
	}
	if p.keyword("IS") {
		negate := p.keyword("NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return reldb.IsNull{E: left, Negate: negate}, nil
	}
	if p.keyword("IN") {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []reldb.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return reldb.In{E: left, List: list}, nil
	}
	if p.keyword("LIKE") {
		s, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return reldb.Like{E: left, Pattern: s.text}, nil
	}
	return left, nil
}

var arithOps = map[string]reldb.ArithOp{
	"+": reldb.OpAdd, "-": reldb.OpSub, "*": reldb.OpMul, "/": reldb.OpDiv,
}

func (p *parser) parseAdd() (reldb.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSymbol && (p.peek().text == "+" || p.peek().text == "-") {
		op := arithOps[p.next().text]
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = reldb.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMul() (reldb.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSymbol && (p.peek().text == "*" || p.peek().text == "/") {
		op := arithOps[p.next().text]
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = reldb.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (reldb.Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return reldb.Arith{Op: reldb.OpSub, L: reldb.Const{V: reldb.Int(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (reldb.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("rql: bad number %q", t.text)
			}
			return reldb.Const{V: reldb.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("rql: bad number %q", t.text)
		}
		return reldb.Const{V: reldb.Int(n)}, nil
	case t.kind == tokString:
		p.next()
		return reldb.Const{V: reldb.String(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return reldb.Const{V: reldb.Null()}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return reldb.Const{V: reldb.Bool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return reldb.Const{V: reldb.Bool(false)}, nil
	case t.kind == tokIdent:
		p.next()
		return identToAttr(t.text), nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("rql: expected an expression, found %s", t)
	}
}

// identToAttr splits a possibly qualified identifier into an Attr.
func identToAttr(text string) reldb.Attr {
	if i := strings.IndexByte(text, '.'); i >= 0 {
		return reldb.Attr{Rel: text[:i], Name: text[i+1:]}
	}
	return reldb.Attr{Name: text}
}
