package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"quickr/internal/table"
)

// Parse parses a single SELECT statement (optionally followed by a
// semicolon) and returns its AST.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input %q", p.cur().text)
	}
	return sel, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.i++
		return t, nil
	}
	return token{}, p.errorf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// parseSelect parses a SELECT and the UNION ALL arms that follow it.
// A contract clause binds to the whole statement: it is written after
// the last arm and moves to the head, and one written on any other arm
// is an error.
func (p *parser) parseSelect() (*SelectStmt, error) {
	s, err := p.parseArm()
	if err != nil {
		return nil, err
	}
	last := s
	for p.accept(tokKeyword, "UNION") {
		if _, err := p.expect(tokKeyword, "ALL"); err != nil {
			return nil, p.errorf("only UNION ALL is supported")
		}
		if last.Contract != nil {
			return nil, p.errorf("a contract clause binds to the whole statement: write it after the last UNION ALL arm")
		}
		if last, err = p.parseArm(); err != nil {
			return nil, err
		}
		s.UnionAll = append(s.UnionAll, last)
	}
	if last != s {
		s.Contract, last.Contract = last.Contract, nil
	}
	return s, nil
}

// parseArm parses one SELECT up to its contract clause.
func (p *parser) parseArm() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept(tokKeyword, "DISTINCT")

	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}

	if p.accept(tokKeyword, "FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				it.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, it)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	if err := p.parseContract(s); err != nil {
		return nil, err
	}
	return s, nil
}

// parseContract parses the optional trailing contract clauses, in any
// order and at most once each:
//
//	ERROR WITHIN <pct> % [CONFIDENCE <pct> %]
//	WITHIN <number> <unit>          (unit: s, ms, us, ns)
func (p *parser) parseContract(s *SelectStmt) error {
	for {
		switch {
		case p.accept(tokKeyword, "ERROR"):
			if s.Contract != nil && s.Contract.ErrPct > 0 {
				return p.errorf("duplicate ERROR WITHIN clause")
			}
			if _, err := p.expect(tokKeyword, "WITHIN"); err != nil {
				return err
			}
			v, err := p.parsePercent("ERROR WITHIN")
			if err != nil {
				return err
			}
			if s.Contract == nil {
				s.Contract = &Contract{}
			}
			s.Contract.ErrPct = v
			if p.accept(tokKeyword, "CONFIDENCE") {
				c, err := p.parsePercent("CONFIDENCE")
				if err != nil {
					return err
				}
				if c >= 100 {
					return p.errorf("CONFIDENCE must be below 100%%, got %g%%", c)
				}
				s.Contract.ConfPct = c
			}
		case p.accept(tokKeyword, "WITHIN"):
			if s.Contract != nil && s.Contract.Deadline > 0 {
				return p.errorf("duplicate WITHIN deadline clause")
			}
			d, err := p.parseDuration()
			if err != nil {
				return err
			}
			if s.Contract == nil {
				s.Contract = &Contract{}
			}
			s.Contract.Deadline = d
		default:
			return nil
		}
	}
}

// parsePercent parses `<number> %` and returns the number (which must
// be positive).
func (p *parser) parsePercent(clause string) (float64, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil || v <= 0 {
		return 0, p.errorf("%s needs a positive percentage, got %q", clause, t.text)
	}
	if _, err := p.expect(tokOp, "%"); err != nil {
		return 0, err
	}
	return v, nil
}

// parseDuration parses `<number><unit>` (the lexer splits "500ms" into
// a number and an identifier).
func (p *parser) parseDuration() (time.Duration, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil || v <= 0 {
		return 0, p.errorf("WITHIN needs a positive duration, got %q", t.text)
	}
	u, err := p.expect(tokIdent, "")
	if err != nil {
		return 0, p.errorf("WITHIN duration needs a unit (s, ms, us, ns)")
	}
	var unit time.Duration
	switch strings.ToLower(u.text) {
	case "s":
		unit = time.Second
	case "ms":
		unit = time.Millisecond
	case "us":
		unit = time.Microsecond
	case "ns":
		unit = time.Nanosecond
	default:
		return 0, p.errorf("unknown duration unit %q (want s, ms, us, ns)", u.text)
	}
	d := time.Duration(v * float64(unit))
	if d <= 0 {
		return 0, p.errorf("WITHIN duration %q rounds to zero", t.text+u.text)
	}
	return d, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		t, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.text
	} else if p.at(tokIdent, "") {
		item.Alias = p.cur().text
		p.i++
	}
	return item, nil
}

// parseTableExpr parses a FROM clause: comma-separated cross joins of
// join chains.
func (p *parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	for p.accept(tokOp, ",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &JoinExpr{Kind: JoinInner, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseJoinChain() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind := JoinInner
		switch {
		case p.accept(tokKeyword, "JOIN"):
		case p.at(tokKeyword, "INNER") && p.peek().text == "JOIN":
			p.i += 2
		case p.at(tokKeyword, "CROSS") && p.peek().text == "JOIN":
			p.i += 2
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Kind: JoinInner, Left: left, Right: right}
			continue
		case p.at(tokKeyword, "LEFT"):
			p.i++
			p.accept(tokKeyword, "OUTER")
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeftOuter
		case p.at(tokKeyword, "RIGHT"):
			p.i++
			p.accept(tokKeyword, "OUTER")
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = JoinRightOuter
		case p.at(tokKeyword, "FULL"):
			return nil, p.errorf("FULL OUTER JOIN is not supported")
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinExpr{Kind: kind, Left: left, Right: right, On: on}
	}
}

func (p *parser) parseTablePrimary() (TableExpr, error) {
	if p.accept(tokOp, "(") {
		if p.at(tokKeyword, "SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			p.accept(tokKeyword, "AS")
			t, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, p.errorf("derived table requires an alias")
			}
			return &Subquery{Select: sel, Alias: t.text}, nil
		}
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return te, nil
	}
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	tn := &TableName{Name: t.text, Alias: t.text}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		tn.Alias = a.text
	} else if p.at(tokIdent, "") {
		tn.Alias = p.cur().text
		p.i++
	}
	return tn, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

// parsePredicate parses comparisons, IN, BETWEEN, IS NULL, LIKE.
func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := false
	if p.at(tokKeyword, "NOT") && (p.peek().text == "IN" || p.peek().text == "BETWEEN" || p.peek().text == "LIKE") {
		not = true
		p.i++
	}
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &InExpr{X: l, List: list, Not: not}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.accept(tokKeyword, "LIKE"):
		t, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: l, Pattern: t.text, Not: not}, nil
	case p.accept(tokKeyword, "IS"):
		isNot := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: isNot}, nil
	}
	if op, ok := p.comparisonOp(); ok {
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) comparisonOp() (BinaryOp, bool) {
	if p.cur().kind != tokOp {
		return 0, false
	}
	var op BinaryOp
	switch p.cur().text {
	case "=":
		op = OpEq
	case "<>":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return 0, false
	}
	p.i++
	return op, true
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept(tokOp, "+"):
			op = OpAdd
		case p.accept(tokOp, "-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept(tokOp, "*"):
			op = OpMul
		case p.accept(tokOp, "/"):
			op = OpDiv
		case p.accept(tokOp, "%"):
			op = OpMod
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok && lit.Val.IsNumeric() {
			if lit.Val.Kind() == table.KindInt {
				return &Literal{Val: table.NewInt(-lit.Val.Int())}, nil
			}
			f := -lit.Val.Float()
			if f == 0 {
				// Avoid IEEE negative zero: it renders as "-0", which
				// re-parses as integer zero instead of this literal.
				f = 0
			}
			return &Literal{Val: table.NewFloat(f)}, nil
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Val: table.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Literal{Val: table.NewInt(n)}, nil
	case t.kind == tokString:
		p.i++
		return &Literal{Val: table.NewString(t.text)}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.i++
		return &Literal{Val: table.NewBool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.i++
		return &Literal{Val: table.NewBool(false)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.i++
		return &Literal{Val: table.Null}, nil
	case t.kind == tokKeyword && t.text == "CASE":
		return p.parseCase()
	case t.kind == tokOp && t.text == "(":
		p.i++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.i++
		name := t.text
		// Function call?
		if p.at(tokOp, "(") {
			return p.parseFuncCall(name)
		}
		// Qualified column?
		if p.accept(tokOp, ".") {
			c, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: c.text}, nil
		}
		return &ColumnRef{Name: name}, nil
	}
	return nil, p.errorf("unexpected token %q", t.text)
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: strings.ToUpper(name)}
	if p.accept(tokOp, "*") {
		f.Star = true
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		if p.at(tokKeyword, "OVER") {
			over, err := p.parseOver()
			if err != nil {
				return nil, err
			}
			f.Over = over
		}
		return f, nil
	}
	f.Distinct = p.accept(tokKeyword, "DISTINCT")
	if !p.at(tokOp, ")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	if p.at(tokKeyword, "OVER") {
		over, err := p.parseOver()
		if err != nil {
			return nil, err
		}
		f.Over = over
	}
	return f, nil
}

// parseOver parses OVER (PARTITION BY ... ORDER BY ...).
func (p *parser) parseOver() (*WindowSpec, error) {
	if _, err := p.expect(tokKeyword, "OVER"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	w := &WindowSpec{}
	if p.accept(tokKeyword, "PARTITION") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				it.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			w.OrderBy = append(w.OrderBy, it)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *parser) parseCase() (Expr, error) {
	if _, err := p.expect(tokKeyword, "CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.accept(tokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(tokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
