package lplan

import (
	"fmt"
	"strings"

	"quickr/internal/table"
)

// Node is a logical plan operator.
type Node interface {
	// Columns returns the node's output columns in order.
	Columns() []ColumnInfo
	// Children returns the input operators.
	Children() []Node
	// WithChildren returns a shallow copy with replaced children.
	WithChildren(ch []Node) Node
	// Describe returns a one-line operator description for EXPLAIN.
	Describe() string
}

// Scan reads a base table. When WeightColumn is set, the named column
// holds per-row sampling weights (the apriori-sample path used by the
// BlinkDB baseline): the executor moves it into the row weight instead
// of exposing it as data.
type Scan struct {
	Table        string
	Cols         []ColumnInfo
	WeightColumn string
}

// Columns implements Node.
func (s *Scan) Columns() []ColumnInfo { return s.Cols }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// WithChildren implements Node.
func (s *Scan) WithChildren(ch []Node) Node {
	c := *s
	return &c
}

// Describe implements Node.
func (s *Scan) Describe() string { return "Scan " + s.Table }

// Select filters rows by a predicate.
type Select struct {
	Input Node
	Pred  Expr
}

// Columns implements Node.
func (s *Select) Columns() []ColumnInfo { return s.Input.Columns() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Select) WithChildren(ch []Node) Node { return &Select{Input: ch[0], Pred: s.Pred} }

// Describe implements Node.
func (s *Select) Describe() string { return "Select " + s.Pred.String() }

// Project computes output expressions.
type Project struct {
	Input Node
	Exprs []Expr
	Cols  []ColumnInfo // one per expr; IDs may alias input IDs for pass-through ColRefs
}

// Columns implements Node.
func (p *Project) Columns() []ColumnInfo { return p.Cols }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// WithChildren implements Node.
func (p *Project) WithChildren(ch []Node) Node {
	return &Project{Input: ch[0], Exprs: p.Exprs, Cols: p.Cols}
}

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinKind enumerates logical join types.
type JoinKind int

// Join kinds (full outer join is unsupported, paper Table 1).
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
)

func (k JoinKind) String() string {
	if k == LeftOuterJoin {
		return "LeftOuter"
	}
	return "Inner"
}

// Join combines two inputs. Equi-join keys are extracted into
// LeftKeys/RightKeys (positionally paired); any non-equi condition
// remains in Residual.
type Join struct {
	Kind      JoinKind
	Left      Node
	Right     Node
	LeftKeys  []ColumnID
	RightKeys []ColumnID
	Residual  Expr
	// FKJoin marks a foreign-key join with a dimension table on the
	// right: each left row matches exactly one right row (paper §3:
	// "join between a fact and a dimension table is effectively a
	// select").
	FKJoin bool
}

// Columns implements Node.
func (j *Join) Columns() []ColumnInfo {
	out := append([]ColumnInfo{}, j.Left.Columns()...)
	return append(out, j.Right.Columns()...)
}

// FloatSpaceKeys reports whether a key pair joins an Int with a Float
// column, the one pair of two kinds the binder admits. Such keys are
// equal in float space (Value.Equal), where equal keys need not hash
// alike (Value.Hash64): 2⁵³+1 equals 2⁵³.0.
func (j *Join) FloatSpaceKeys() bool {
	for k := range j.LeftKeys {
		l, _ := ColumnByID(j.Left.Columns(), j.LeftKeys[k])
		r, _ := ColumnByID(j.Right.Columns(), j.RightKeys[k])
		if l.Kind == table.KindInt && r.Kind == table.KindFloat || l.Kind == table.KindFloat && r.Kind == table.KindInt {
			return true
		}
	}
	return false
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren implements Node.
func (j *Join) WithChildren(ch []Node) Node {
	c := *j
	c.Left, c.Right = ch[0], ch[1]
	return &c
}

// Describe implements Node.
func (j *Join) Describe() string {
	keys := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		keys[i] = fmt.Sprintf("%d=%d", j.LeftKeys[i], j.RightKeys[i])
	}
	d := fmt.Sprintf("%sJoin [%s]", j.Kind, strings.Join(keys, ","))
	if j.Residual != nil {
		d += " residual " + j.Residual.String()
	}
	if j.FKJoin {
		d += " (fk)"
	}
	return d
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate kinds including the *IF variants (paper Table 1).
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
	AggCountDistinct
	AggSumIf
	AggCountIf
)

var aggNames = [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX", "COUNT DISTINCT", "SUMIF", "COUNTIF"}

func (k AggKind) String() string { return aggNames[k] }

// AggSpec is one aggregation in an Aggregate node. Arg is the input
// column (NoColumn for COUNT(*)); Cond is the predicate column for *IF
// aggregates.
type AggSpec struct {
	Kind AggKind
	Arg  ColumnID
	Cond ColumnID
	Out  ColumnInfo
}

// NoColumn marks an absent column reference. It is the zero ColumnID
// so zero-valued AggSpecs behave correctly; the binder allocates real
// IDs starting at 1.
const NoColumn ColumnID = 0

// Aggregate groups Input by GroupCols and computes Aggs. The binder
// normalizes group keys and aggregate arguments to bare columns by
// inserting a Project below.
type Aggregate struct {
	Input     Node
	GroupCols []ColumnID
	GroupInfo []ColumnInfo
	Aggs      []AggSpec
}

// Columns implements Node.
func (a *Aggregate) Columns() []ColumnInfo {
	out := append([]ColumnInfo{}, a.GroupInfo...)
	for _, g := range a.Aggs {
		out = append(out, g.Out)
	}
	return out
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// WithChildren implements Node.
func (a *Aggregate) WithChildren(ch []Node) Node {
	c := *a
	c.Input = ch[0]
	return &c
}

// Describe implements Node.
func (a *Aggregate) Describe() string {
	parts := make([]string, len(a.Aggs))
	for i, g := range a.Aggs {
		parts[i] = g.Kind.String()
	}
	return fmt.Sprintf("Aggregate group=%v aggs=[%s]", a.GroupCols, strings.Join(parts, ","))
}

// Sort orders rows.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// SortKey is one ordering key.
type SortKey struct {
	Col  ColumnID
	Desc bool
}

// Columns implements Node.
func (s *Sort) Columns() []ColumnInfo { return s.Input.Columns() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Sort) WithChildren(ch []Node) Node { return &Sort{Input: ch[0], Keys: s.Keys} }

// Describe implements Node.
func (s *Sort) Describe() string { return fmt.Sprintf("Sort %v", s.Keys) }

// Limit truncates to N rows.
type Limit struct {
	Input Node
	N     int64
}

// Columns implements Node.
func (l *Limit) Columns() []ColumnInfo { return l.Input.Columns() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// WithChildren implements Node.
func (l *Limit) WithChildren(ch []Node) Node { return &Limit{Input: ch[0], N: l.N} }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// UnionAll concatenates inputs. All inputs share the first input's
// column IDs (the binder inserts aligning projects).
type UnionAll struct {
	Inputs []Node
}

// Columns implements Node.
func (u *UnionAll) Columns() []ColumnInfo { return u.Inputs[0].Columns() }

// Children implements Node.
func (u *UnionAll) Children() []Node { return u.Inputs }

// WithChildren implements Node.
func (u *UnionAll) WithChildren(ch []Node) Node { return &UnionAll{Inputs: ch} }

// Describe implements Node.
func (u *UnionAll) Describe() string { return fmt.Sprintf("UnionAll (%d inputs)", len(u.Inputs)) }

// Walk visits the plan tree in pre-order.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// Format renders the plan as an indented tree.
func Format(n Node) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// Depth returns the operator depth of the plan.
func Depth(n Node) int {
	if n == nil {
		return 0
	}
	d := 0
	for _, c := range n.Children() {
		if cd := Depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Count returns the number of operators in the plan.
func Count(n Node) int {
	c := 0
	Walk(n, func(Node) { c++ })
	return c
}

// ColumnByID finds a column by ID among cols.
func ColumnByID(cols []ColumnInfo, id ColumnID) (ColumnInfo, bool) {
	for _, c := range cols {
		if c.ID == id {
			return c, true
		}
	}
	return ColumnInfo{}, false
}

// OutputIDs returns the set of column IDs produced by n.
func OutputIDs(n Node) ColSet {
	s := ColSet{}
	for _, c := range n.Columns() {
		s.Add(c.ID)
	}
	return s
}
