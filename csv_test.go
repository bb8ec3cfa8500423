package quickr

import (
	"strings"
	"testing"
)

const csvData = `id,city,amount,vip
1,paris,10.5,true
2,oslo,3.25,false
3,paris,7.0,true
4,,2.0,false
`

func TestLoadCSVInferred(t *testing.T) {
	eng := New()
	n, err := eng.LoadCSV("orders", strings.NewReader(csvData), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d rows", n)
	}
	res, err := eng.Exec("SELECT city, SUM(amount) AS total, COUNTIF(vip) AS vips FROM orders GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	byCity := map[any][2]float64{}
	for _, r := range res.Rows {
		byCity[r[0]] = [2]float64{r[1].(float64), float64(r[2].(int64))}
	}
	if got := byCity["paris"]; got != [2]float64{17.5, 2} {
		t.Errorf("paris: %v", got)
	}
	if got := byCity["oslo"]; got != [2]float64{3.25, 0} {
		t.Errorf("oslo: %v", got)
	}
	// Empty field became NULL and forms its own non-group (NULL key).
	if len(res.Rows) != 3 {
		t.Errorf("groups: %v", res.Rows)
	}
}

func TestLoadCSVExplicitSchema(t *testing.T) {
	eng := New()
	cols := []Column{
		{Name: "id", Type: Int},
		{Name: "city", Type: String},
		{Name: "amount", Type: Float},
		{Name: "vip", Type: Bool},
	}
	if _, err := eng.LoadCSV("orders", strings.NewReader(csvData), cols, 1); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Exec("SELECT COUNT(*) AS n FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 4 {
		t.Errorf("count: %v", res.Rows)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	eng := New()
	if _, err := eng.LoadCSV("bad", strings.NewReader("a,b\n1,notanumber\n"),
		[]Column{{Name: "a", Type: Int}, {Name: "b", Type: Int}}, 1); err == nil {
		t.Error("type mismatch must error")
	}
	if _, err := eng.LoadCSV("short", strings.NewReader("a,b\n1,2\n"),
		[]Column{{Name: "a", Type: Int}}, 1); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := eng.LoadCSV("empty", strings.NewReader(""), nil, 1); err == nil {
		t.Error("empty input must error")
	}
	// A record that does not parse part-way through the file loads
	// nothing: the rows before it are not left behind in a new table.
	if n, err := eng.LoadCSV("partial", strings.NewReader("a,b\n1,2\n3,4\n5,x\n"), nil, 1); err == nil || n != 0 {
		t.Errorf("bad third record: loaded %d rows, err %v", n, err)
	}
	for _, name := range []string{"bad", "partial"} {
		if _, err := eng.Exec("SELECT COUNT(*), SUM(a) FROM " + name); err == nil {
			t.Errorf("a failed load left table %s behind", name)
		}
	}
}
