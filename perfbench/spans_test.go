package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "http", Start: 10, End: 90},
		{Op: 1, ID: 3, Parent: 2, Name: "service", Start: 20, End: 80},
		// A second op whose root has two overlapping children and one that
		// runs past the parent's end.
		{Op: 2, ID: 4, Parent: 0, Name: "op", Start: 1000, End: 1100},
		{Op: 2, ID: 5, Parent: 4, Name: "http", Start: 1010, End: 1050},
		{Op: 2, ID: 6, Parent: 4, Name: "http", Start: 1040, End: 1060},
		{Op: 2, ID: 7, Parent: 4, Name: "pastix", Start: 1090, End: 1200},
	}
	got := selfTimes(spans)
	want := map[int64]map[string]time.Duration{
		1: {"op": 20, "http": 20, "service": 60},
		// op: 100 minus the union [1010,1060) ∪ [1090,1100) = 50+10.
		2: {"op": 40, "http": 60, "pastix": 110},
	}
	for op, layers := range want {
		for name, d := range layers {
			if got[op][name] != d {
				t.Errorf("op %d %s self = %d, want %d", op, name, got[op][name], d)
			}
		}
		if len(got[op]) != len(layers) {
			t.Errorf("op %d layers = %v, want %v", op, got[op], layers)
		}
	}
	// Self times of one op add up to its root span.
	var sum time.Duration
	for _, d := range got[1] {
		sum += d
	}
	if sum != 100 {
		t.Errorf("op 1 self times sum to %d, want the root's 100", sum)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {6, 8}}, 4},
		{0, 10, [][2]int64{{2, 6}, {4, 8}}, 6},
		{0, 10, [][2]int64{{-5, 3}, {8, 20}}, 5},
		{0, 10, [][2]int64{{3, 4}, {1, 9}, {2, 5}}, 8},
		{0, 10, [][2]int64{{12, 15}}, 0},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, 0, "op")
	child := tr.begin(7, root, "pastix")
	tr.end(child)
	tr.end(root)
	spans := tr.spans()
	if len(spans) != 2 || spans[0].Name != "pastix" || spans[0].Parent != root || spans[1].ID != root {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start || s.Op != 7 {
			t.Fatalf("bad span %+v", s)
		}
	}
	// A nil tracer records nothing and does not panic.
	var off *tracer
	off.end(off.begin(1, 0, "op"))
}
