package main

import "testing"

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 2 * minBeyond; n <= 5000; n++ {
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = float64(n - i) // distinct values, reverse order
		}
		v, q, beyond := tail(lat)
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%.1f leaves %d samples beyond, want >= %d", n, q, beyond, minBeyond)
		}
		above := 0
		for _, x := range lat {
			if x > v {
				above++
			}
		}
		if above != beyond {
			t.Fatalf("n=%d: %d samples above the tail value, reported %d", n, above, beyond)
		}
		// The next percentile on the grid must leave fewer than minBeyond
		// beyond it, unless the grid's cap was reached.
		if tenths, _, _ := tailRank(n); tenths < 999 {
			next := ((tenths+1)*n + 999) / 1000 // its 1-based nearest rank
			if n-next >= minBeyond {
				t.Fatalf("n=%d: p%.1f still leaves %d beyond, so p%.1f is not the highest", n, float64(tenths+1)/10, n-next, q)
			}
		}
	}
}

func TestTailPercentileExamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{1_000_000, 99.9, true},
	} {
		tenths, _, ok := tailRank(c.n)
		if q := float64(tenths) / 10; ok != c.ok || q != c.want {
			t.Errorf("tailRank(%d) = p%v, %v; want p%v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	// Too few samples: the maximum, with nothing beyond it.
	if v, q, beyond := tail([]float64{3, 9, 1}); v != 9 || q != 100 || beyond != 0 {
		t.Errorf("tail of 3 samples = %v p%v %d beyond; want 9 p100 0", v, q, beyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
