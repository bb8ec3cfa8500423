package quickr

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestSetterEpochAudit enumerates every Engine.Set* method by
// reflection and asserts each one publishes a snapshot with a higher
// epoch: a setter that wrote configuration any other way than through
// reconfigure would serve stale cached plans. The audited names must be
// exactly the engine's knob surface below, so that adding, removing or
// renaming a setter is a deliberate edit here.
func TestSetterEpochAudit(t *testing.T) {
	want := []string{
		"SetBatchSize", "SetColumnar", "SetHistoryLearning", "SetOptions",
		"SetPrimaryKey", "SetPrune", "SetSampleCache", "SetSeed",
	}
	eng := New()
	typ := reflect.TypeOf(eng)
	var audited []string
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if !strings.HasPrefix(m.Name, "Set") {
			continue
		}
		audited = append(audited, m.Name)
		before := eng.cur.Load().epoch

		// Call with zero values for every parameter (variadic tails
		// omitted); zero arguments are always accepted by setters.
		mv := reflect.ValueOf(eng).MethodByName(m.Name)
		mt := mv.Type()
		numIn := mt.NumIn()
		if mt.IsVariadic() {
			numIn--
		}
		args := make([]reflect.Value, numIn)
		for j := 0; j < numIn; j++ {
			args[j] = reflect.Zero(mt.In(j))
		}
		mv.Call(args)

		after := eng.cur.Load().epoch
		if after <= before {
			t.Errorf("%s did not bump the plan-cache epoch (%d -> %d): stale cached plans would be served",
				m.Name, before, after)
		}
	}
	// reflect lists methods in lexicographic order.
	if !slices.Equal(audited, want) {
		t.Fatalf("Engine's Set* methods are %v, want %v", audited, want)
	}
}

// TestContractKnobsInvalidateCache pins the audit's purpose end to end:
// a cached contract plan must not survive a contract-knob change.
func TestContractKnobsInvalidateCache(t *testing.T) {
	eng := New()
	if err := eng.CreateTable("t", []Column{{Name: "g", Type: Int}, {Name: "v", Type: Float}}, 2); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 0, 400)
	for i := 0; i < 400; i++ {
		rows = append(rows, []any{i % 4, float64(i%7) + 1})
	}
	if err := eng.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT g, SUM(v) FROM t GROUP BY g"
	if _, err := eng.Exec(q); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCached {
		t.Fatal("second identical run should be a plan-cache hit")
	}
	eng.SetHistoryLearning(false)
	res, err = eng.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCached {
		t.Fatal("SetHistoryLearning must invalidate cached plans")
	}
}
