package refimpl

import (
	"testing"
	"testing/quick"

	"quickr/internal/catalog"
	"quickr/internal/lplan"
	"quickr/internal/table"
)

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%c", true},
		{"abc", "a%b%c%", true},
		{"abc", "_b_", true},
		{"ab", "_b_", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v want %v", c.s, c.p, got, c.want)
		}
	}
}

// Property: %-only patterns reduce to substring-anchored matching.
// Inputs are mapped to ASCII since LIKE matching is byte-based.
func TestLikePercentProperties(t *testing.T) {
	f := func(raw []byte) bool {
		b := make([]byte, len(raw))
		for i, c := range raw {
			b[i] = 'a' + c%26
		}
		s := string(b)
		return likeMatch(s, "%") &&
			likeMatch(s, s) &&
			(len(s) == 0 || likeMatch(s, s[:1]+"%"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunSmallPlan(t *testing.T) {
	cat := catalog.New()
	tbl := table.New("t", table.NewSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindFloat},
	), 2)
	for i := 0; i < 10; i++ {
		tbl.Append(i, table.Row{table.NewInt(int64(i % 3)), table.NewFloat(float64(i))})
	}
	cat.Register(tbl)

	cols := []lplan.ColumnInfo{
		{ID: 1, Name: "k", Kind: table.KindInt},
		{ID: 2, Name: "v", Kind: table.KindFloat},
	}
	scan := &lplan.Scan{Table: "t", Cols: cols}
	agg := &lplan.Aggregate{
		Input:     scan,
		GroupCols: []lplan.ColumnID{1},
		GroupInfo: cols[:1],
		Aggs: []lplan.AggSpec{{
			Kind: lplan.AggSum, Arg: 2,
			Out: lplan.ColumnInfo{ID: 3, Name: "s", Kind: table.KindFloat},
		}},
	}
	rows, err := Run(cat, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups: %v", rows)
	}
	var total float64
	for _, r := range rows {
		total += r[1].Float()
	}
	if total != 45 {
		t.Errorf("sum of sums %v want 45", total)
	}
}

func TestRunRejectsSampledPlans(t *testing.T) {
	cat := catalog.New()
	tbl := table.New("t", table.NewSchema(table.Column{Name: "k", Kind: table.KindInt}), 1)
	cat.Register(tbl)
	scan := &lplan.Scan{Table: "t", Cols: []lplan.ColumnInfo{{ID: 1, Name: "k", Kind: table.KindInt}}}
	sampled := &lplan.Sample{
		Input: scan,
		State: lplan.NewSamplerState(nil),
		Def:   &lplan.SamplerDef{Type: lplan.SamplerUniform, P: 0.1},
	}
	if _, err := Run(cat, sampled); err == nil {
		t.Error("reference evaluator must refuse sampled plans")
	}
	passthrough := &lplan.Sample{
		Input: scan,
		State: lplan.NewSamplerState(nil),
		Def:   &lplan.SamplerDef{Type: lplan.SamplerPassThrough},
	}
	if _, err := Run(cat, passthrough); err != nil {
		t.Errorf("pass-through must be transparent: %v", err)
	}
}

// NOT of a NULL is NULL, and a filter drops it: NOT (CASE ... END) keeps
// only the rows whose CASE is false, not the ones it leaves NULL.
func TestRunNotOfNull(t *testing.T) {
	cat := catalog.New()
	tbl := table.New("t", table.NewSchema(table.Column{Name: "k", Kind: table.KindInt}), 1)
	for i := 0; i < 10; i++ {
		tbl.Append(i, table.Row{table.NewInt(int64(i))})
	}
	cat.Register(tbl)
	k := &lplan.ColRef{ID: 1, Name: "k", Kind: table.KindInt}
	cmp := func(op lplan.BinOp, v int64) lplan.Expr {
		return &lplan.Binary{Op: op, L: k, R: &lplan.Const{Val: table.NewInt(v)}}
	}
	// WHERE NOT (CASE WHEN k > 5 THEN TRUE WHEN k < 2 THEN FALSE END)
	plan := &lplan.Select{
		Input: &lplan.Scan{Table: "t", Cols: []lplan.ColumnInfo{{ID: 1, Name: "k", Kind: table.KindInt}}},
		Pred: &lplan.Not{X: &lplan.Case{Whens: []lplan.When{
			{Cond: cmp(lplan.OpGt, 5), Then: &lplan.Const{Val: table.NewBool(true)}},
			{Cond: cmp(lplan.OpLt, 2), Then: &lplan.Const{Val: table.NewBool(false)}},
		}}},
	}
	rows, err := Run(cat, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int()+rows[1][0].Int() != 1 {
		t.Fatalf("NOT (CASE ...) kept %v, want the rows k = 0 and k = 1", rows)
	}
}
