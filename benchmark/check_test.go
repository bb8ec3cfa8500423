package main

import (
	"math"
	"testing"

	"quickr"
	"quickr/internal/exec"
	"quickr/internal/table"
)

func group(key string, vals []any, ci []float64) quickr.GroupEstimate {
	se := make([]float64, len(ci))
	for i, c := range ci {
		se[i] = c / 1.96
	}
	return quickr.GroupEstimate{Key: []any{key}, Values: vals, StdErr: se, CI95: ci, SampleRows: 50}
}

func TestErrorPool(t *testing.T) {
	exact := &quickr.Result{Estimates: []quickr.GroupEstimate{
		group("a", []any{int64(100), 10.0}, []float64{0, 0}),
		group("b", []any{int64(0), 5.0}, []float64{0, 0}),
		group("missed", []any{int64(7), 7.0}, []float64{0, 0}),
	}}
	approx := &quickr.Result{Estimates: []quickr.GroupEstimate{
		// 110 vs 100 with CI exactly 10: on the edge, covered. 10 vs 10
		// with no CI (MIN/MAX): an error cell, not a coverage cell.
		group("a", []any{int64(110), 10.0}, []float64{10, 0}),
		// Exact value 0: no relative error or width, but coverage counts
		// (|3-0| > 2: not covered). 6 vs 5 with CI 0.5: not covered.
		group("b", []any{int64(3), 6.0}, []float64{2, 0.5}),
		group("extra", []any{int64(1), 1.0}, []float64{1, 1}),
	}}
	var p errorPool
	p.add(exact, approx)
	if p.groups != 3 || p.found != 2 {
		t.Errorf("groups %d found %d, want 3 and 2", p.groups, p.found)
	}
	wantErr := []float64{10, 0, 20}
	if len(p.relErr) != len(wantErr) {
		t.Fatalf("relErr = %v, want %v", p.relErr, wantErr)
	}
	for i := range wantErr {
		if math.Abs(p.relErr[i]-wantErr[i]) > 1e-9 {
			t.Errorf("relErr = %v, want %v", p.relErr, wantErr)
		}
	}
	if p.ciCells != 3 || p.ciCovered != 1 {
		t.Errorf("ci cells %d covered %d, want 3 and 1", p.ciCells, p.ciCovered)
	}
	if len(p.ciWidth) != 2 || math.Abs(p.ciWidth[0]-10) > 1e-9 || math.Abs(p.ciWidth[1]-10) > 1e-9 {
		t.Errorf("ciWidth = %v, want [10 10]", p.ciWidth)
	}
	var q errorPool
	q.merge(&p)
	q.merge(&p)
	if q.groups != 6 || len(q.relErr) != 6 || q.ciCovered != 2 {
		t.Errorf("merge: %+v", q)
	}
}

func TestSameRows(t *testing.T) {
	row := func(k string, n int64, f float64) table.Row {
		return table.Row{table.NewString(k), table.NewInt(n), table.NewFloat(f)}
	}
	a := []table.Row{row("x", 1, 1.5), row("y", 2, 100), {table.Null, table.NewInt(3), table.NewFloat(0)}}
	reordered := []table.Row{a[2], row("y", 2, 100*(1+1e-12)), a[0]}
	if err := sameRows(a, a); err != nil {
		t.Errorf("identical rows: %v", err)
	}
	if err := sameRows(reordered, a); err != nil {
		t.Errorf("reordered rows with a float summed in another order: %v", err)
	}
	if err := sameRows([]table.Row{a[0], row("y", 2, 100.001), a[2]}, a); err == nil {
		t.Error("a float off in the 6th digit passed")
	}
	if err := sameRows([]table.Row{a[0], row("y", 3, 100), a[2]}, a); err == nil {
		t.Error("a different integer passed")
	}
	if err := sameRows(a[:2], a); err == nil {
		t.Error("a missing row passed")
	}
}

func TestFiniteEstimates(t *testing.T) {
	ok := &quickr.Result{Estimates: []quickr.GroupEstimate{group("a", []any{int64(-5), -2.5}, []float64{1, 0})}}
	if err := finiteEstimates(ok); err != nil {
		t.Errorf("negative estimates are legal: %v", err)
	}
	for name, g := range map[string]quickr.GroupEstimate{
		"NaN estimate": group("a", []any{math.NaN()}, []float64{1}),
		"Inf estimate": group("a", []any{math.Inf(1)}, []float64{1}),
		"NaN ci":       group("a", []any{1.0}, []float64{math.NaN()}),
		"negative ci":  group("a", []any{1.0}, []float64{-1}),
	} {
		if err := finiteEstimates(&quickr.Result{Estimates: []quickr.GroupEstimate{g}}); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}

// The engine's result and the executor's carry the same answer in two
// types; their digests must agree for the staged replay to be checked.
func TestDigestsAgreeAcrossResultTypes(t *testing.T) {
	rows := []table.Row{{table.NewString("k"), table.NewInt(4), table.NewFloat(2.5), table.NewBool(true), table.Null}}
	pub := &quickr.Result{InternalRows: rows, Estimates: []quickr.GroupEstimate{{StdErr: []float64{0.5, 0}, SampleRows: 9}}}
	low := &exec.Result{Rows: rows, Estimates: []exec.GroupEstimate{{StdErr: []float64{0.5, 0}, SampleRows: 9}}}
	if resultDigest(pub) != execDigest(low) {
		t.Error("digests differ for the same answer")
	}
	low.Estimates[0].StdErr[0] = 0.25
	if resultDigest(pub) == execDigest(low) {
		t.Error("digest ignores the standard errors")
	}
}
