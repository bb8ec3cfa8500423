package quickr

import (
	"reflect"
	"strings"
	"testing"
)

// TestSetterEpochAudit enumerates every Engine.Set* method by
// reflection and asserts each one publishes a snapshot with a higher
// epoch: a setter that wrote configuration any other way than through
// reconfigure would serve stale cached plans. New knobs are covered
// automatically as they are added.
func TestSetterEpochAudit(t *testing.T) {
	eng := New()
	typ := reflect.TypeOf(eng)
	audited := 0
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if !strings.HasPrefix(m.Name, "Set") {
			continue
		}
		audited++
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
	// The audit must actually cover the engine's knob surface; if the
	// count shrinks someone renamed setters away from the Set* pattern
	// and this audit silently stopped guarding them.
	if audited < 10 {
		t.Fatalf("audited only %d Set* methods, expected at least 10", audited)
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
	eng.SetContractMaxEscalations(5)
	res, err = eng.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCached {
		t.Fatal("SetContractMaxEscalations must invalidate cached plans")
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
