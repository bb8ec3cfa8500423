package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 95, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 100, 50},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestSpearman(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"monotone", []float64{1, 2, 3, 4}, []float64{10, 100, 1000, 10000}, 1},
		{"reversed", []float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}, -1},
		{"no spread", []float64{1, 2, 3}, []float64{5, 5, 5}, 0},
		{"too short", []float64{1}, []float64{2}, 0},
		{"unequal", []float64{1, 2}, []float64{1, 2, 3}, 0},
		// ranks a: 1 2.5 2.5 4, b: 1 2 3 4
		{"ties", []float64{1, 2, 2, 3}, []float64{1, 2, 3, 4}, 4.5 / math.Sqrt(4.5*5)},
	}
	for _, c := range cases {
		if got := spearman(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: spearman = %v, want %v", c.name, got, c.want)
		}
	}
}
