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
// from: literals and columns of every kind of the fixture table kt. A
// column is written {t}name, {t} standing for the table qualifier a
// join shape gives it.
var fuzzOperands = []fuzzOperand{
	{"NULL", table.KindNull},
	{"7", table.KindInt}, {"2.5", table.KindFloat}, {"'x'", table.KindString}, {"TRUE", table.KindBool},
	{"{t}i", table.KindInt}, {"{t}f", table.KindFloat}, {"{t}s", table.KindString}, {"{t}b", table.KindBool},
	{"{t}i * 2", table.KindInt}, {"{t}f / 2", table.KindFloat},
}

type fuzzOperand struct {
	sql  string
	kind table.Kind
}

// literal reports whether the operand is a literal.
func (o fuzzOperand) literal() bool { return !strings.Contains(o.sql, "{t}") }

// fuzzShapes are the statements FuzzBindKinds fills with operands, each
// with its operands' table qualifiers (one per operand) and the rule,
// written out, under which its operands bind; a UNION ALL's operands
// are its arms' one column.
var fuzzShapes = []struct {
	format string
	quals  []string
	binds  func(ops []fuzzOperand) bool
}{
	{"SELECT CASE WHEN i > 3 THEN %s ELSE %s END FROM kt", none(2), joins},
	{"SELECT CASE WHEN b THEN %s WHEN f < 0.5 THEN %s END FROM kt", none(2), joins},
	{"SELECT CASE WHEN i > 5 THEN %s WHEN i > 2 THEN %s ELSE %s END FROM kt", none(3), joins},
	{"SELECT IF(i > 3, %s, %s) FROM kt", none(2), joins},
	{"SELECT COALESCE(%s, %s, %s) FROM kt", none(3), joins},
	{"SELECT %s FROM kt UNION ALL SELECT %s FROM kt", none(2), joins},
	{"SELECT %s FROM kt UNION ALL SELECT %s FROM kt UNION ALL SELECT %s FROM kt", none(3), joins},
	{"SELECT i %% 3, MAX(CASE WHEN i > 3 THEN %s ELSE %s END) FROM kt GROUP BY i %% 3", none(2), joins},
	{"SELECT %s = %s FROM kt", none(2), joins},
	{"SELECT i, f FROM kt WHERE %s < %s", none(2), joins},
	{"SELECT COUNT(*) FROM kt JOIN kt kt2 ON %s = %s", []string{"kt.", "kt2."}, joins},
	{"SELECT %s IN (%s, NULL) FROM kt", none(2), func(ops []fuzzOperand) bool { return ops[1].literal() && joins(ops) }},
	{"SELECT s FROM kt WHERE %s LIKE 'x%%'", none(1), are(table.KindString)},
	{"SELECT i, s FROM kt WHERE %s", none(1), are(table.KindBool)},
	{"SELECT %s AND %s FROM kt", none(2), are(table.KindBool)},
	{"SELECT NOT %s FROM kt", none(1), are(table.KindBool)},
	{"SELECT SUM(%s), AVG(%s) FROM kt", none(2), are(table.KindInt, table.KindFloat)},
	{"SELECT SUMIF(%s, %s) FROM kt", none(2), func(ops []fuzzOperand) bool {
		return are(table.KindBool)(ops[:1]) && are(table.KindInt, table.KindFloat)(ops[1:])
	}},
	{"SELECT %s %% %s FROM kt", none(2), are(table.KindInt)},
}

// none is n empty table qualifiers.
func none(n int) []string { return make([]string, n) }

// joins reports whether the operands' kinds have a kind join, written
// out here as the rule states it: the non-NULL kinds are all one kind,
// or Int and Float.
func joins(ops []fuzzOperand) bool {
	seen := map[table.Kind]bool{}
	for _, o := range ops {
		if o.kind != table.KindNull {
			seen[o.kind] = true
		}
	}
	return len(seen) <= 1 || len(seen) == 2 && seen[table.KindInt] && seen[table.KindFloat]
}

// are is the rule that every operand is NULL or of one of kinds.
func are(kinds ...table.Kind) func([]fuzzOperand) bool {
	return func(ops []fuzzOperand) bool {
		for _, o := range ops {
			if o.kind != table.KindNull && !slices.Contains(kinds, o.kind) {
				return false
			}
		}
		return true
	}
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

// FuzzBindKinds builds statements over typed literals and columns —
// CASE, IF, COALESCE and UNION ALL, comparisons and equi-join keys, IN,
// LIKE, conditions, AND and NOT, SUM, AVG and SUMIF, and % — and checks
// the binder's kind rules: a statement binds exactly when its shape's
// rule holds for its operands, and then its exact answer equals
// refimpl's over the bound plan, every value of its column's declared
// kind.
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
		ops := make([]fuzzOperand, len(sh.quals))
		args := make([]any, len(sh.quals))
		for j, o := range []uint8{a, b, c}[:len(sh.quals)] {
			ops[j] = fuzzOperands[int(o)%len(fuzzOperands)]
			args[j] = strings.ReplaceAll(ops[j].sql, "{t}", sh.quals[j])
		}
		query := fmt.Sprintf(sh.format, args...)
		plan, err := eng.BoundPlan(query)
		if want := sh.binds(ops); (err == nil) != want {
			t.Fatalf("%s: bind error %v, operands %v bind: %v", query, err, ops, want)
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
