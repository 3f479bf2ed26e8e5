package main

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4), the
// statistic the benchmark's spread is judged by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{0.5, 0.25, 4, 1}, 0.3125, 0.75, 3.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSpreadAndEmpty(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
	if q1, m, q3 := quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v", q1, m, q3)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v", got)
	}
}
