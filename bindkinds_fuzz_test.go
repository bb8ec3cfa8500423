package quickr

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"quickr/internal/refimpl"
	"quickr/internal/table"
)

// fuzzOperands are the operands FuzzBindKinds builds its expressions
// from: literals and columns of every kind of the fixture table kt.
var fuzzOperands = []struct {
	sql  string
	kind table.Kind
}{
	{"NULL", table.KindNull},
	{"7", table.KindInt}, {"2.5", table.KindFloat}, {"'x'", table.KindString}, {"TRUE", table.KindBool},
	{"i", table.KindInt}, {"f", table.KindFloat}, {"s", table.KindString}, {"b", table.KindBool},
	{"i * 2", table.KindInt}, {"f / 2", table.KindFloat},
}

// fuzzShapes are the expressions whose operand kinds the binder joins,
// each with the number of operands it takes; a UNION ALL's operands are
// its arms' one column.
var fuzzShapes = []struct {
	format string
	arity  int
}{
	{"SELECT CASE WHEN i > 3 THEN %s ELSE %s END FROM kt", 2},
	{"SELECT CASE WHEN b THEN %s WHEN f < 0.5 THEN %s END FROM kt", 2},
	{"SELECT CASE WHEN i > 5 THEN %s WHEN i > 2 THEN %s ELSE %s END FROM kt", 3},
	{"SELECT IF(i > 3, %s, %s) FROM kt", 2},
	{"SELECT COALESCE(%s, %s, %s) FROM kt", 3},
	{"SELECT %s FROM kt UNION ALL SELECT %s FROM kt", 2},
	{"SELECT %s FROM kt UNION ALL SELECT %s FROM kt UNION ALL SELECT %s FROM kt", 3},
	{"SELECT i %% 3, MAX(CASE WHEN i > 3 THEN %s ELSE %s END) FROM kt GROUP BY i %% 3", 2},
}

// joins reports whether kinds have a kind join, written out here as the
// rule states it: the non-NULL kinds are all one kind, or Int and Float.
func joins(kinds []table.Kind) bool {
	seen := map[table.Kind]bool{}
	for _, k := range kinds {
		if k != table.KindNull {
			seen[k] = true
		}
	}
	return len(seen) <= 1 || len(seen) == 2 && seen[table.KindInt] && seen[table.KindFloat]
}

// kindEngine is FuzzBindKinds' fixture: kt(i Int, f Float, s String,
// b Bool), NULLs in every column.
func kindEngine(t testing.TB) *Engine {
	eng := New()
	if err := eng.CreateTable("kt", []Column{{"i", Int}, {"f", Float}, {"s", String}, {"b", Bool}}, 2); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for k := 0; k < 12; k++ {
		row := []any{k, float64(k) / 4, fmt.Sprint("s", k%3), k%2 == 0}
		row[k%5%4] = nil
		rows = append(rows, row)
	}
	if err := eng.Insert("kt", rows); err != nil {
		t.Fatal(err)
	}
	return eng
}

// FuzzBindKinds builds CASE, IF, COALESCE and UNION ALL statements over
// typed literals and columns and checks the binder's kind join: a
// statement binds exactly when its operand kinds join, and then its
// exact answer equals refimpl's over the bound plan, every value of its
// column's declared kind.
func FuzzBindKinds(f *testing.F) {
	for shape := range fuzzShapes {
		f.Add(uint8(shape), uint8(1), uint8(2), uint8(0))
		f.Add(uint8(shape), uint8(5), uint8(6), uint8(9))
		f.Add(uint8(shape), uint8(3), uint8(6), uint8(0))
		f.Add(uint8(shape), uint8(7), uint8(0), uint8(3))
		f.Add(uint8(shape), uint8(4), uint8(8), uint8(10))
	}
	eng := kindEngine(f)
	f.Fuzz(func(t *testing.T, shape, a, b, c uint8) {
		sh := fuzzShapes[int(shape)%len(fuzzShapes)]
		ops := []uint8{a, b, c}[:sh.arity]
		args, kinds := make([]any, len(ops)), make([]table.Kind, len(ops))
		for j, o := range ops {
			op := fuzzOperands[int(o)%len(fuzzOperands)]
			args[j], kinds[j] = op.sql, op.kind
		}
		query := fmt.Sprintf(sh.format, args...)
		plan, err := eng.BoundPlan(query)
		if want := joins(kinds); (err == nil) != want {
			t.Fatalf("%s: bind error %v, operand kinds %v join: %v", query, err, kinds, want)
		}
		if err != nil {
			return
		}
		res, err := eng.Exec(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		var declared []table.Kind
		for _, col := range plan.Columns() {
			declared = append(declared, col.Kind)
		}
		checkKinds(t, query, res, declared)
		want, err := refimpl.Run(eng.Catalog(), plan)
		if err != nil {
			t.Fatalf("%s: refimpl: %v", query, err)
		}
		if got, ref := rowKeys(res.InternalRows), rowKeys(want); !slices.Equal(got, ref) {
			t.Fatalf("%s:\n got %v\nwant %v", query, got, ref)
		}
	})
}

// rowKeys renders rows as sorted strings of their values' kinds and
// Key()s: a multiset that tells 1 from 1.0.
func rowKeys(rows []table.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%v:%s ", v.Kind(), v.Key())
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}
