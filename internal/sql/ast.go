// Package sql implements the lexer, parser and AST for the SQL subset that
// Quickr supports (paper Table 1): selections with arbitrary predicate
// expressions, aggregates (COUNT, SUM, AVG, MIN, MAX, DISTINCT and the *IF
// variants), equi- and theta-joins including outer joins (all but full
// outer), derived tables, UNION ALL, GROUP BY/HAVING, ORDER BY and LIMIT.
package sql

import (
	"fmt"
	"strings"
	"time"

	"quickr/internal/table"
)

// Node is any AST node.
type Node interface{ String() string }

// Statement is a parsed top-level statement.
type Statement interface {
	Node
	stmt()
}

// SelectStmt is a SELECT query, possibly the head of a UNION ALL chain.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil means a table-less SELECT (constants only)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	// Contract is the query's optional accuracy/latency contract
	// (BlinkDB-style `ERROR WITHIN 2% CONFIDENCE 95%` / `WITHIN 500ms`).
	// It binds to the whole statement: only the head of a UNION ALL
	// chain carries one, rendered after the last arm.
	Contract *Contract
	// UnionAll chains additional SELECTs whose output is concatenated.
	UnionAll []*SelectStmt
}

// Contract is an accuracy and/or latency demand attached to a SELECT.
// Percentages are stored as written (2.5 for `2.5%`) so the canonical
// rendering round-trips bit-exactly through the parser; downstream
// layers convert to fractions.
type Contract struct {
	// ErrPct is the maximum relative error in percent (`ERROR WITHIN
	// <ErrPct>%`); 0 means no error clause.
	ErrPct float64
	// ConfPct is the confidence level in percent (`CONFIDENCE
	// <ConfPct>%`); 0 means the clause was absent (defaults to 95
	// downstream).
	ConfPct float64
	// Deadline is the latency budget (`WITHIN <duration>`); 0 means no
	// deadline clause.
	Deadline time.Duration
}

// clause renders the contract in its canonical trailing-clause form,
// with a leading space (empty for a zero contract).
func (c *Contract) clause() string {
	var b strings.Builder
	if c.ErrPct > 0 {
		fmt.Fprintf(&b, " ERROR WITHIN %g%%", c.ErrPct)
		if c.ConfPct > 0 {
			fmt.Fprintf(&b, " CONFIDENCE %g%%", c.ConfPct)
		}
	}
	if c.Deadline > 0 {
		b.WriteString(" WITHIN " + formatDeadline(c.Deadline))
	}
	return b.String()
}

// formatDeadline renders a duration as <integer><unit> using the
// largest unit that divides it evenly, so parsing the rendering yields
// the identical duration (time.Duration.String's composite forms like
// "1m30s" would not re-parse under the number+unit grammar).
func formatDeadline(d time.Duration) string {
	switch {
	case d%time.Second == 0:
		return fmt.Sprintf("%ds", d/time.Second)
	case d%time.Millisecond == 0:
		return fmt.Sprintf("%dms", d/time.Millisecond)
	case d%time.Microsecond == 0:
		return fmt.Sprintf("%dus", d/time.Microsecond)
	}
	return fmt.Sprintf("%dns", d.Nanoseconds())
}

func (*SelectStmt) stmt() {}

// SelectItem is one output expression with an optional alias. A nil Expr
// with Star=true denotes `*`.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinKind enumerates join types.
type JoinKind int

// Join kinds. Full outer join is intentionally unsupported (paper Table 1).
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinRightOuter
	JoinSemi // used internally for EXISTS-style rewrites
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER"
	case JoinLeftOuter:
		return "LEFT OUTER"
	case JoinRightOuter:
		return "RIGHT OUTER"
	case JoinSemi:
		return "SEMI"
	}
	return "?"
}

// TableExpr is a FROM-clause item.
type TableExpr interface {
	Node
	tableExpr()
}

// TableName references a base table, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableExpr() {}

// JoinExpr joins two table expressions on a condition.
type JoinExpr struct {
	Kind  JoinKind
	Left  TableExpr
	Right TableExpr
	On    Expr // nil for cross join
}

func (*JoinExpr) tableExpr() {}

// Subquery is a derived table: (SELECT ...) AS alias.
type Subquery struct {
	Select *SelectStmt
	Alias  string
}

func (*Subquery) tableExpr() {}

// Expr is a scalar or aggregate expression.
type Expr interface {
	Node
	expr()
}

// ColumnRef references column Name, optionally qualified by Table.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) expr() {}

// Literal is a constant value.
type Literal struct {
	Val table.Value
}

func (*Literal) expr() {}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}

func (o BinaryOp) String() string { return binOpNames[o] }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

func (*BinaryExpr) expr() {}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (*UnaryExpr) expr() {}

// FuncCall is a function application: either a built-in aggregate
// (COUNT/SUM/AVG/MIN/MAX/SUMIF/COUNTIF), a window function (when Over
// is set), or a scalar UDF.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Distinct bool // COUNT(DISTINCT x)
	Star     bool // COUNT(*)
	// Over marks a windowed application: f(...) OVER (PARTITION BY ...
	// ORDER BY ...). Paper Table 1 lists windowed aggregates among the
	// supported "Others".
	Over *WindowSpec
}

// WindowSpec is the OVER clause of a window function.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
}

func (*FuncCall) expr() {}

// InExpr is `x [NOT] IN (v1, v2, ...)`.
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

func (*InExpr) expr() {}

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) expr() {}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// LikeExpr is `x [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern string
	Not     bool
}

func (*LikeExpr) expr() {}

// CaseExpr is `CASE WHEN c1 THEN v1 ... [ELSE e] END`.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN/THEN arm of a CASE.
type WhenClause struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// ---- String renderings (stable, used by tests and EXPLAIN) ----

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			continue
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		b.WriteString(" FROM " + s.From.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	for _, u := range s.UnionAll {
		b.WriteString(" UNION ALL " + u.String())
	}
	if s.Contract != nil {
		b.WriteString(s.Contract.clause())
	}
	return b.String()
}

func (t *TableName) String() string {
	if t.Alias != "" && t.Alias != t.Name {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

func (j *JoinExpr) String() string {
	on := ""
	if j.On != nil {
		on = " ON " + j.On.String()
	}
	kind := ""
	switch j.Kind {
	case JoinInner:
		// An inner join with no condition is a cross join; without the
		// CROSS keyword the grammar would demand an ON clause on re-parse.
		if j.On == nil {
			kind = "CROSS "
		}
	case JoinLeftOuter:
		kind = "LEFT "
	case JoinRightOuter:
		kind = "RIGHT "
	case JoinSemi:
		kind = "SEMI "
	}
	return "(" + j.Left.String() + " " + kind + "JOIN " + j.Right.String() + on + ")"
}

func (s *Subquery) String() string { return "(" + s.Select.String() + ") AS " + s.Alias }

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (l *Literal) String() string {
	if l.Val.Kind() == table.KindString {
		return "'" + strings.ReplaceAll(l.Val.Str(), "'", "''") + "'"
	}
	return l.Val.String()
}

func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.X.String() + ")"
	}
	return "(-" + e.X.String() + ")"
}

func (f *FuncCall) String() string {
	var core string
	if f.Star {
		core = f.Name + "(*)"
	} else {
		args := make([]string, len(f.Args))
		for i, a := range f.Args {
			args[i] = a.String()
		}
		d := ""
		if f.Distinct {
			d = "DISTINCT "
		}
		core = f.Name + "(" + d + strings.Join(args, ", ") + ")"
	}
	if f.Over != nil {
		var parts []string
		if len(f.Over.PartitionBy) > 0 {
			cols := make([]string, len(f.Over.PartitionBy))
			for i, e := range f.Over.PartitionBy {
				cols[i] = e.String()
			}
			parts = append(parts, "PARTITION BY "+strings.Join(cols, ", "))
		}
		if len(f.Over.OrderBy) > 0 {
			cols := make([]string, len(f.Over.OrderBy))
			for i, o := range f.Over.OrderBy {
				cols[i] = o.Expr.String()
				if o.Desc {
					cols[i] += " DESC"
				}
			}
			parts = append(parts, "ORDER BY "+strings.Join(cols, ", "))
		}
		core += " OVER (" + strings.Join(parts, " ") + ")"
	}
	return core
}

func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "IN (" + strings.Join(items, ", ") + "))"
}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

func (e *IsNullExpr) String() string {
	if e.Not {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

func (e *LikeExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "LIKE '" + e.Pattern + "')"
}

func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		b.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Then.String())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// IsAggregateFunc reports whether name (upper case) is a built-in
// aggregate function.
func IsAggregateFunc(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "SUMIF", "COUNTIF", "AVGIF":
		return true
	}
	return false
}

// HasAggregate reports whether the expression tree contains a (non-
// windowed) aggregate function call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && IsAggregateFunc(f.Name) && f.Over == nil {
			found = true
		}
	})
	return found
}

// IsWindowFunc reports whether name (upper case) can be applied as a
// window function.
func IsWindowFunc(name string) bool {
	switch name {
	case "ROW_NUMBER", "RANK", "SUM", "COUNT", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// HasWindow reports whether the expression tree contains a window
// function application.
func HasWindow(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && f.Over != nil {
			found = true
		}
	})
	return found
}

// WalkExpr visits e and every sub-expression in pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
		if x.Over != nil {
			for _, pe := range x.Over.PartitionBy {
				WalkExpr(pe, fn)
			}
			for _, oe := range x.Over.OrderBy {
				WalkExpr(oe.Expr, fn)
			}
		}
	case *InExpr:
		WalkExpr(x.X, fn)
		for _, a := range x.List {
			WalkExpr(a, fn)
		}
	case *BetweenExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *IsNullExpr:
		WalkExpr(x.X, fn)
	case *LikeExpr:
		WalkExpr(x.X, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	}
}
