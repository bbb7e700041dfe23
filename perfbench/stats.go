package main

import "sort"

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailRank picks the highest percentile, in tenths of a percent and capped
// at 99.9, whose nearest-rank position among n sorted samples leaves at
// least minBeyond samples above it; idx is that position. ok is false when
// n is too small for even the median to qualify. Integer arithmetic keeps
// the grid exact.
func tailRank(n int) (tenths, idx int, ok bool) {
	if n < 2*minBeyond {
		return 0, 0, false
	}
	tenths = min(999, 1000*(n-minBeyond)/n)
	return tenths, (tenths*n+999)/1000 - 1, true
}

// tail returns the tail latency of xs at the tailRank percentile, the
// percentile used, and the number of samples beyond it. Below 2·minBeyond
// samples it falls back to the maximum (q = 100, beyond = 0).
func tail(xs []float64) (v, q float64, beyond int) {
	s := sortedCopy(xs)
	tenths, i, ok := tailRank(len(s))
	if !ok {
		if len(s) == 0 {
			return 0, 100, 0
		}
		return s[len(s)-1], 100, 0
	}
	return s[i], float64(tenths) / 10, len(s) - 1 - i
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
